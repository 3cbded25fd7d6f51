import os
import subprocess
import sys
import textwrap
import types

import sigfrac as sg

# every public non-module name `import sigfrac` gives, 61 of them; a
# change to the library's surface edits this set
PUBLIC = {
    "AssociationRule", "AxisUnit", "EmpiricalDistribution", "FadingModel",
    "FitError", "FitResult", "GBParams", "NetworkParams", "NumericError",
    "SimConfig", "SimResult", "SimulationError", "arcsine_cdf",
    "arcsine_moment", "best_inverse", "best_sf_ccdf", "best_sir_ccdf",
    "beta_fn", "conjecture_report", "convexity_sign", "db_to_linear",
    "empirical_ccdf", "empirical_moment", "flatness_rate", "g_n",
    "g_n_is_exact", "gb_cdf", "gb_fit", "gb_moment", "gb_params_from_pq",
    "gb_pdf", "harmonic", "hyp2f1_11", "ks_distance", "linear_to_db",
    "log_sf_gap", "markov_lower_bound", "mean_sf1_upper_bound",
    "mean_sf_ratio", "misf", "misr", "nba_m_cdf_asymptote",
    "ordered_pathloss_pdf", "poly_ccdf", "rational_ccdf", "rational_coeff",
    "ratio_cdf", "rba_cdf", "rba_mean", "rba_pdf", "sample_nakagami",
    "sample_sf", "sample_sf_topk", "sf_ccdf_exact", "sf_moment_exact",
    "sf_pdf_exact", "sinc_pi", "sir_ccdf_exact", "t_inv", "t_map",
    "tail_ccdf",
}


def test_public_surface():
    names = {n for n, v in vars(sg).items()
             if not (n.startswith("_") or isinstance(v, types.ModuleType))}
    assert names == PUBLIC


def _fresh_interpreter(code):
    src = os.path.dirname(os.path.dirname(sg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                       capture_output=True, text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path,
                            "SIGFRAC_THREADS": "1"})
    assert r.returncode == 0, r.stderr


def test_cli_import_loads_no_scipy_solver():
    # importing the package and the CLI loads no SciPy, and neither do
    # the commands that need only numpy; exact loads scipy.special on
    # its first call
    _fresh_interpreter("""
        import contextlib, io, sys

        def scipy_loaded():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))

        import sigfrac
        assert not scipy_loaded(), scipy_loaded()
        from sigfrac import cli
        assert not scipy_loaded(), scipy_loaded()

        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(list(argv)) == 0, argv

        for argv in (
                ("simulate", "--alpha", "4", "--fading", "nakagami:1",
                 "--samples", "2000"),
                ("simulate", "--alpha", "4", "--assoc", "rba",
                 "--samples", "2000"),
                ("conjecture", "--samples", "10000"),
                ("convert", "--value", "3", "--from", "dB", "--to", "MH")):
            run(*argv)
            assert not scipy_loaded(), (argv, scipy_loaded())
        run("exact", "--alpha", "4")
        assert "scipy.special" in sys.modules
        assert "scipy.optimize" not in sys.modules
    """)
    # gb_fit and flatness_rate each load scipy.optimize on first call
    for call in ("gb_fit", "flatness_rate"):
        _fresh_interpreter(f"""
            import sys
            import sigfrac as sg
            assert "scipy.optimize" not in sys.modules
            sg.{call}(sg.NetworkParams.from_alpha(4.0))
            assert "scipy.optimize" in sys.modules
        """)
