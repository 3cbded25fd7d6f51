import os
import subprocess
import sys
import types

import sigfrac as sg

# every public non-module name `import sigfrac` gives, 62 of them; a
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
    "sample_plp", "sample_sf", "sample_sf_topk", "sf_ccdf_exact",
    "sf_moment_exact", "sf_pdf_exact", "sinc_pi", "sir_ccdf_exact",
    "t_inv", "t_map", "tail_ccdf",
}


def test_public_surface():
    names = {n for n, v in vars(sg).items()
             if not (n.startswith("_") or isinstance(v, types.ModuleType))}
    assert names == PUBLIC


def test_cli_import_loads_no_scipy_solver():
    # a fresh interpreter: importing the CLI loads scipy.special only;
    # gb_fit and flatness_rate load scipy.optimize on their first call
    code = (
        "import sys, sigfrac.cli\n"
        "loaded = sorted(m for m in ('scipy.optimize', 'scipy.integrate')\n"
        "                if m in sys.modules)\n"
        "assert not loaded, loaded\n"
        "assert 'scipy.special' in sys.modules\n"
        "import sigfrac as sg\n"
        "p = sg.NetworkParams.from_alpha(4.0)\n"
        "sg.gb_fit(p)\n"
        "sg.flatness_rate(p)\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    src = os.path.dirname(os.path.dirname(sg.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
