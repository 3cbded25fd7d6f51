import argparse
import copy
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft7Validator
from referencing import Registry, Resource

import sigfrac as sg
from sigfrac import cli, montecarlo
from sigfrac.cli import main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"


def load_registry():
    resources = []
    schemas = {}
    for path in SCHEMA_DIR.glob("*.json"):
        doc = json.loads(path.read_text())
        schemas[path.stem] = doc
        resources.append((doc["$id"], Resource.from_contents(doc)))
    return Registry().with_resources(resources), schemas


REGISTRY, SCHEMAS = load_registry()


def validate(doc, name):
    Draft7Validator(SCHEMAS[name], registry=REGISTRY).validate(doc)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestExact:
    def test_sf_grid(self, capsys):
        rc, out, _ = run(capsys, "exact", "--alpha", "4", "--var", "SF",
                         "--grid", "0:1:101")
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == ["arg_unit", "arg", "value"]
        assert len(rows) == 101
        assert float(rows[0][2]) == 1.0
        assert float(rows[-1][2]) == 0.0

    def test_sir_db_monotone(self, capsys):
        rc, out, _ = run(capsys, "exact", "--alpha", "4", "--var", "SIR",
                         "--unit", "dB", "--grid", "-20:20:81")
        assert rc == 0
        _, rows = csv_rows(out)
        vals = [float(r[2]) for r in rows]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert rows[0][0] == "dB"

    def test_matches_library(self, capsys, params_half):
        rc, out, _ = run(capsys, "exact", "--alpha", "4", "--var", "SF",
                         "--grid", "0:1:3")
        _, rows = csv_rows(out)
        assert float(rows[1][2]) == pytest.approx(
            sg.sf_ccdf_exact(params_half, 0.5), rel=1e-11)

    @staticmethod
    def refused(capsys, *argv):
        """stderr of a command argparse refuses: exit 2, empty stdout."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    def test_alpha_delta_consistency(self, capsys):
        # exactly one of the two is given, whether or not a pair agrees
        for delta in ("0.4", "0.5"):
            err = self.refused(capsys, "exact", "--alpha", "4", "--delta",
                               delta)
            assert "argument --delta: not allowed with argument --alpha" in err
        assert "one of the arguments --alpha --delta is required" in \
            self.refused(capsys, "exact", "--grid", "0:1:3")

    def test_nan_delta_disagrees(self, capsys):
        # a NaN --delta beside --alpha is refused like any other value
        err = self.refused(capsys, "exact", "--alpha", "4", "--delta", "nan",
                           "--grid", "0:1:3")
        assert "not allowed with argument --alpha" in err

    def test_invalid_delta(self, capsys):
        rc, out, err = run(capsys, "exact", "--delta", "1.5")
        assert rc == 2
        assert out == ""
        assert "delta must be in (0, 1), got 1.5" in err

    def test_mh_refuses_unit_arg(self, capsys):
        # 1 MH is an infinite SIR: t_inv, the MH-to-linear map, refuses it
        rc, out, err = run(capsys, "exact", "--alpha", "4", "--var", "SIR",
                           "--unit", "MH", "--grid", "0:1:11")
        assert rc == 2
        assert out == ""
        assert "t must be in [0, 1), got 1.0" in err

    def test_nan_grid_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "exact", "--alpha", "4", "--grid", "0,nan")
        assert rc == 2
        assert out == ""
        assert "finite" in err

    def test_json_schema(self, capsys):
        rc, out, _ = run(capsys, "exact", "--alpha", "4", "--var", "SF",
                         "--grid", "0:1:11", "--format", "json")
        assert rc == 0
        validate(json.loads(out), "curve")

    def test_db_overflow_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "exact", "--alpha", "4", "--var", "SIR",
                           "--unit", "dB", "--grid", "0,4000")
        assert rc == 2
        assert out == ""
        assert "4000" in err and "overflows" in err


class TestApprox:
    def test_best_value(self, capsys):
        rc, out, _ = run(capsys, "approx", "--method", "best", "--alpha", "4",
                         "--grid", "0:1:3")
        _, rows = csv_rows(out)
        assert float(rows[1][2]) == pytest.approx((0.5 / 1.5) ** 0.5, rel=1e-11)

    def test_poly1_value(self, capsys):
        rc, out, _ = run(capsys, "approx", "--method", "poly:1", "--alpha", "4",
                         "--grid", "0:1:6")
        _, rows = csv_rows(out)
        assert float(rows[1][2]) == pytest.approx(0.8, rel=1e-12)

    def test_gb_fit_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "gb.csv"
        rc, _, _ = run(capsys, "approx", "--method", "gb-fit", "--alpha", "4",
                       "--grid", "0:1:5", "--out", str(out_path))
        assert rc == 0
        side = json.loads((tmp_path / "gb.csv.fit.json").read_text())
        validate(side, "fit")
        assert side["b"] == pytest.approx(0.5554, abs=1e-3)
        assert side["q"] == pytest.approx(0.5276, abs=1e-3)
        assert side["residual"] <= 1e-6

    def test_gb_fit_embedded_json(self, capsys):
        rc, out, _ = run(capsys, "approx", "--method", "gb-fit", "--alpha",
                         "4", "--grid", "0:1:5", "--format", "json")
        doc = json.loads(out)
        validate(doc, "curve")
        assert "fit" in doc

    def test_gb_fit_near_alpha_two(self, capsys):
        # delta = 0.9999, where a tanh-sinh moment rule of 129 nodes
        # fails its own accuracy check
        rc, out, _ = run(capsys, "approx", "--method", "gb-fit", "--alpha",
                         "2.0002", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        validate(doc, "curve")
        validate(doc["fit"], "fit")
        assert doc["fit"]["residual"] <= 1e-6

    def test_unknown_method(self, capsys):
        rc, _, err = run(capsys, "approx", "--method", "spline", "--alpha", "4")
        assert rc == 2
        assert "rational" in err and "best" in err

    def test_numeric_failure_exit_code(self, capsys):
        # the moment fit has no solution below a fold near delta = 0.385
        rc, out, err = run(capsys, "approx", "--method", "gb-fit",
                           "--delta", "0.3", "--grid", "0:1:5")
        assert rc == 3
        assert out == ""
        assert "numeric failure" in err

    def test_rational_matches_library(self, capsys, params_half):
        rc, out, _ = run(capsys, "approx", "--method", "rational:2",
                         "--alpha", "4", "--grid", "0:0.8:5")
        _, rows = csv_rows(out)
        assert float(rows[2][2]) == pytest.approx(
            sg.rational_ccdf(params_half, 2, 0.4), rel=1e-11)

    def test_rational_order_limit(self, capsys):
        # the order drives a Python loop of s + 1 terms, so it is capped
        top = sg.approx._RATIONAL_MAX_ORDER
        rc, out, _ = run(capsys, "approx", "--method", f"rational:{top}",
                         "--alpha", "4", "--grid", "0:0.99:3")
        assert rc == 0 and out
        rc, out, err = run(capsys, "approx", "--method",
                           f"rational:{top + 1}", "--alpha", "4",
                           "--grid", "0:0.99:3")
        assert rc == 2
        assert out == ""
        assert f"got {top + 1}" in err


class TestSimulate:
    def test_mean_matches_exact(self, capsys, params_half):
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--fading",
                           "nakagami:1", "--assoc", "nba", "--samples",
                           "40000", "--seed", "7", "--grid", "0:1:6")
        assert rc == 0
        summary = json.loads(err)
        validate(summary, "summary")
        m = sg.sf_moment_exact(params_half, 1)
        sd = math.sqrt(summary["variance"])
        assert abs(summary["mean"] - m) < 3.0 * sd / math.sqrt(40000)
        assert summary["flagged"] == 0
        assert summary["seed"] == 7

    @pytest.mark.parametrize("assoc, extra, eps", [
        ("nba", (), 1e-3), ("kth:2", (), 1e-3), ("rba", (), 1e-3),
        ("rba", ("--tail-eps", "0.003"), 0.003),
        ("nba", ("--tail-eps", "1e-05"), 1e-5)])
    def test_summary_states_tail_eps(self, capsys, assoc, extra, eps):
        # the default, or the --tail-eps given, as the run used it
        rc, _, err = run(capsys, "simulate", "--alpha", "4", "--assoc",
                         assoc, "--samples", "1000", "--seed", "3", *extra)
        assert rc == 0
        summary = json.loads(err)
        validate(summary, "summary")
        assert summary["tail_eps"] == eps

    def test_tail_eps_help_states_both_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--help"])
        # the default the help text states is the one the parser and
        # SimConfig use, and the same for every rule
        text = " ".join(capsys.readouterr().out.split())
        assert "cumulants; default 1e-3" in text and "for rba" not in text
        args = cli.build_parser().parse_args(["simulate", "--alpha", "4",
                                              "--samples", "1"])
        assert args.tail_eps == sg.SimConfig.tail_eps == 1e-3

    def test_kth2_support(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--alpha", "4", "--fading",
                         "none", "--assoc", "kth:2", "--samples", "20000",
                         "--seed", "5", "--grid", "0:1:21")
        _, rows = csv_rows(out)
        for r in rows:
            if float(r[1]) >= 0.5:
                assert float(r[2]) == 0.0

    def test_seed_reproducibility(self, capsys):
        args = ("simulate", "--alpha", "4", "--fading", "nakagami:1",
                "--assoc", "nba", "--samples", "20000", "--seed", "9",
                "--grid", "0:1:21")
        _, out1, err1 = run(capsys, *args)
        _, out2, err2 = run(capsys, *args)
        assert out1 == out2
        assert err1 == err2

    def test_small_delta_simulates(self, capsys, monkeypatch):
        # delta = 0.01: G_1^(-1/delta) overflows for G_1 < 8.3e-4; one
        # worker keeps the run in this process, where a RuntimeWarning
        # is an error
        monkeypatch.setenv("SIGFRAC_THREADS", "1")
        rc, _, err = run(capsys, "simulate", "--alpha", "200", "--samples",
                         "20000", "--seed", "1")
        assert rc == 0
        summary = json.loads(err)
        validate(summary, "summary")
        assert summary["flagged"] == 0

    def test_gain_underflow_simulates(self, capsys, monkeypatch):
        # a Nakagami-0.01 gain is below 1e-103 in about 1 draw in 10, and
        # at delta = 0.01 such a first gain is nearly the whole total,
        # whose cube underflows; the stop test must not form it
        args = ("simulate", "--alpha", "200", "--fading", "nakagami:0.01",
                "--samples", "20000", "--seed", "1")
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SIGFRAC_THREADS", threads)
            rc, out, err = run(capsys, *args)
            assert rc == 0
            summary = json.loads(err)
            validate(summary, "summary")
            assert summary["flagged"] == 0
            outs.append((out, err))
        assert outs[0] == outs[1]

    def test_all_gains_underflow_is_domain_error(self, capsys, monkeypatch):
        # most Nakagami-1e-4 gains underflow to 0, so some rows have no
        # power at all and no signal fraction
        monkeypatch.setenv("SIGFRAC_THREADS", "1")
        rc, out, err = run(capsys, "simulate", "--alpha", "200", "--fading",
                           "nakagami:0.0001", "--samples", "20000",
                           "--seed", "1")
        assert rc == 2
        assert out == ""
        assert "underflows float64" in err

    def test_chunk_rounds_worker_independent(self, capsys, monkeypatch):
        # 40,000 samples make three shards
        args = ("simulate", "--alpha", "3", "--fading", "nakagami:1",
                "--samples", "40000", "--seed", "12", "--format", "json")
        rounds = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SIGFRAC_THREADS", threads)
            rc, out, _ = run(capsys, *args)
            assert rc == 0
            doc = json.loads(out)
            validate(doc, "curve")
            rounds.append(doc["summary"]["chunk_rounds"])
        assert rounds[0] == rounds[1] >= 3

    def test_tail_clamped_reported(self, capsys):
        # without fading at delta = 0.1 the gamma tail's shift is
        # negative and some drawn tails are clamped at zero
        rc, out, _ = run(capsys, "simulate", "--delta", "0.1", "--samples",
                         "20000", "--seed", "14", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        validate(doc, "curve")
        assert doc["summary"]["tail_clamped"] > 0

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        args = ("simulate", "--alpha", "4", "--fading", "none", "--assoc",
                "nba", "--samples", "40000", "--seed", "11", "--grid",
                "0:1:21", "--format", "json")
        monkeypatch.setenv("SIGFRAC_THREADS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("SIGFRAC_THREADS", "3")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("m", ["nan", "0"])
    def test_bad_nakagami_parameter_rejected(self, capsys, m):
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--fading",
                           f"nakagami:{m}", "--samples", "100")
        assert rc == 2
        assert out == ""
        assert f"nakagami parameter m must be > 0, got {m}" in err

    def test_nakagami_inf_is_no_fading(self, capsys):
        # no fading is the m -> inf limit, with the same bytes
        args = ("simulate", "--alpha", "4", "--samples", "2000", "--seed",
                "9", "--grid", "0:1:11", "--format", "json")
        ref = run(capsys, *args, "--fading", "none")
        assert ref[0] == 0
        for m in ("inf", "1e400"):
            assert run(capsys, *args, "--fading", f"nakagami:{m}") == ref

    @pytest.mark.parametrize("spec", ["rice", "nakagami"])
    def test_unknown_or_bare_fading_rejected(self, capsys, spec):
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--fading",
                           spec, "--samples", "100")
        assert (rc, out) == (2, "")
        assert f"--fading must be none | nakagami:m, got {spec!r}" in err

    def test_kth_over_shard_limit_rejected(self, capsys):
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--assoc",
                           "kth:100000", "--samples", "20000")
        assert rc == 2
        assert out == ""
        assert "error: kth:100000 on 16384 realizations a shard" in err

    def test_non_integer_threads_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SIGFRAC_THREADS", "abc")
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--samples",
                           "100")
        assert rc == 2
        assert out == ""
        assert "SIGFRAC_THREADS must be an integer, got 'abc'" in err

    def test_negative_seed_rejected(self, capsys, monkeypatch):
        def never(config):
            raise AssertionError("simulated with a negative seed")

        monkeypatch.setattr(montecarlo, "sample_sf", never)
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--samples",
                           "100", "--seed", "-1")
        assert rc == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize("assoc", ["isba", "kth:1", "kth:2", "rba"])
    def test_strength_rules_ignore_fading(self, capsys, assoc):
        # only nba sees the fading: the rules acting on the signal
        # fractions ordered by strength print the no-fading bytes under
        # any fading, and isba is kth:1
        args = ("simulate", "--alpha", "4", "--samples", "3000", "--seed",
                "5", "--grid", "0:1:21", "--format", "json", "--assoc")
        ref = run(capsys, *args, assoc, "--fading", "none")
        assert ref[0] == 0
        for m in ("1", "0.5"):
            faded = run(capsys, *args, assoc, "--fading", f"nakagami:{m}")
            assert faded == ref
        if assoc == "isba":
            assert run(capsys, *args, "kth:1", "--fading", "none") == ref

    def test_summary_sidecar_file(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        rc, _, _ = run(capsys, "simulate", "--alpha", "4", "--fading", "none",
                       "--assoc", "nba", "--samples", "5000", "--seed", "3",
                       "--out", str(out_path))
        assert rc == 0
        assert out_path.exists()
        summary = json.loads((tmp_path / "sim.csv.summary.json").read_text())
        validate(summary, "summary")

    @pytest.mark.parametrize("grid", ["0:2:11", "abc"])
    def test_bad_grid_rejected_before_sampling(self, capsys, monkeypatch,
                                               grid):
        def never(config):
            raise AssertionError("simulated before the grid was checked")

        monkeypatch.setattr(montecarlo, "sample_sf", never)
        rc, out, _ = run(capsys, "simulate", "--alpha", "3", "--fading",
                         "nakagami:1", "--samples", "400000", "--grid", grid)
        assert rc == 2
        assert out == ""

    def test_json_embeds_summary(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--alpha", "4", "--fading",
                         "none", "--assoc", "nba", "--samples", "5000",
                         "--seed", "3", "--format", "json")
        doc = json.loads(out)
        validate(doc, "curve")
        assert doc["summary"]["count"] == 5000


class TestPlpCommand:
    def test_gn_scalar(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "gn:1", "--delta", "0.5",
                         "--grid", "0.5")
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == ["arg_unit", "arg", "value"]
        assert len(rows) == 1
        assert float(rows[0][2]) == pytest.approx(2.0 / math.pi, abs=1e-4)

    def test_gn_flags_below_half(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "gn:1", "--delta", "0.5",
                         "--grid", "0.3", "--format", "json")
        assert rc == 0
        doc = json.loads(out)
        validate(doc, "curve")
        assert doc["kind"] == "bound"
        [pt] = doc["points"]
        assert pt["flag"] == "ub-only"
        assert pt["value"] == pytest.approx(
            sg.g_n(sg.NetworkParams.from_delta(0.5), 1, 0.3), rel=1e-11)

    def test_gn_grid_flag_column(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "gn:1", "--delta", "0.5",
                         "--grid", "0.2:0.8:4")
        header, rows = csv_rows(out)
        assert header == ["arg_unit", "arg", "value", "flag"]
        flags = {float(r[1]): r[3] for r in rows}
        assert flags[0.2] == "ub-only"
        assert flags[0.8] == ""

    def test_sfirat(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "sfirat:2", "--delta", "0.5")
        assert json.loads(out)["value"] == pytest.approx(1.0 / 3.0, abs=1e-4)

    def test_loggap(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "loggap:3", "--delta", "0.5")
        assert json.loads(out)["value"] == pytest.approx(11.0 / 3.0, abs=1e-6)

    def test_sf1_bound_scalar(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "sf1-bound", "--delta", "0.5")
        v = json.loads(out)["value"]
        assert 0.0 < v < 1.0
        assert v == pytest.approx(0.639092926772, abs=1e-9)

    def test_sstar(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "sstar", "--delta", "0.5")
        assert json.loads(out)["value"] == pytest.approx(0.854032656598,
                                                         abs=1e-9)

    def test_rba_curve(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "rba-curve", "--delta",
                         "0.5", "--grid", "0.25:0.75:3", "--kind", "cdf")
        _, rows = csv_rows(out)
        assert float(rows[0][2]) == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_unknown_stat(self, capsys):
        rc, _, err = run(capsys, "plp", "--stat", "what", "--delta", "0.5")
        assert rc == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("--stat", "gn:5", "--delta", "0.9", "--grid", "1e-300,0.5"),
        ("--stat", "gn:1", "--delta", "0.99", "--grid", "5e-324,0.5"),
        ("--stat", "rba-curve", "--kind", "pdf", "--delta", "0.99",
         "--grid", "5e-324,0.5"),
    ], ids=" ".join)
    def test_overflowing_curve_is_domain_error(self, capsys, tmp_path, argv,
                                               fmt):
        # a value past the largest double is no CSV inf and no invalid
        # JSON, and no --out file is left behind
        out_path = tmp_path / "curve.out"
        rc, out, err = run(capsys, "plp", *argv, "--format", fmt,
                           "--out", str(out_path))
        assert rc == 2
        assert out == ""
        assert "overflows a double at t = " in err
        assert not out_path.exists()
        rc, out, _ = run(capsys, "plp", *argv, "--format", fmt)
        assert (rc, out) == (2, "")

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_t_rejected(self, capsys, t):
        rc, out, err = run(capsys, "plp", "--alpha", "4", "--stat", "gn:2",
                           "--grid", t, "--format", "json")
        assert rc == 2
        assert out == ""
        assert "--grid must be finite" in err

    def test_t_flag_is_gone(self, capsys):
        # a single t is a one-point --grid
        with pytest.raises(SystemExit) as exc:
            main(["plp", "--alpha", "4", "--stat", "gn:2", "--t", "0.6"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("approx", "--method", "best:7"),
    ("approx", "--method", "gb-fit:9"),
    ("approx", "--method", "markov:1"),
    ("plp", "--stat", "sf1-bound:1"),
    ("plp", "--stat", "sstar:4"),
    ("plp", "--stat", "rba-curve:2"),
    ("simulate", "--fading", "none:3", "--samples", "100"),
    ("simulate", "--assoc", "nba:5", "--samples", "100"),
    # the colon decides: a bare name given one takes no parameter
    ("approx", "--method", "best:"),
    ("simulate", "--fading", "none:", "--samples", "100"),
    ("simulate", "--assoc", "isba:2", "--samples", "100"),
], ids=" ".join)
def test_stray_parameter_rejected(capsys, argv):
    rc, out, err = run(capsys, *argv, "--alpha", "4")
    assert rc == 2
    assert out == ""
    assert "takes no" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--fading", "nakagami:x", "--samples", "100"),
    ("simulate", "--assoc", "kth:x", "--samples", "100"),
    ("approx", "--method", "rational:x"),
    ("approx", "--method", "poly:x"),
    ("approx", "--method", "tail:x"),
    ("approx", "--method", "nba-m:x"),
    ("plp", "--stat", "gn:x"),
    ("plp", "--stat", "sfirat:x"),
    ("plp", "--stat", "loggap:x"),
    ("exact", "--grid", "0:1:x"),
    ("exact", "--grid", "0,a"),
    # an empty number after a colon is a bad number, not no number
    ("approx", "--method", "tail:"),
    ("plp", "--stat", "gn:"),
    ("simulate", "--assoc", "kth:", "--samples", "100"),
    ("simulate", "--fading", "nakagami:", "--samples", "100"),
    # so do an unknown --assoc name and kth with no number
    ("simulate", "--assoc", "foo", "--samples", "100"),
    ("simulate", "--assoc", "kth", "--samples", "100"),
    ("simulate", "--assoc", ":2", "--samples", "100"),
], ids=" ".join)
def test_bad_spec_number_names_flag(capsys, argv):
    # a number that does not parse names its flag and the whole spec
    flag, spec = argv[1:3]
    rc, out, err = run(capsys, *argv, "--alpha", "4")
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {flag} {spec!r}: ")


class TestCurveOutput:
    CURVES = [("approx", "--method", m) for m in (
        "rational:3", "poly:1", "poly:2", "tail:1", "tail:2", "best",
        "gb-fit", "markov", "nba-m:1", "nba-m:2")] + [
        ("plp", "--stat", "gn:1"), ("plp", "--stat", "gn:2"),
        ("plp", "--stat", "rba-curve", "--kind", "cdf"),
        ("plp", "--stat", "rba-curve", "--kind", "pdf")]

    @pytest.mark.parametrize("argv", CURVES, ids=" ".join)
    def test_csv_and_json_agree(self, capsys, argv):
        # one 12-digit rule: a JSON float is float() of the CSV text
        rc, csv_out, _ = run(capsys, *argv, "--alpha", "3")
        assert rc == 0
        rc, json_out, _ = run(capsys, *argv, "--alpha", "3", "--format",
                              "json")
        assert rc == 0
        _, rows = csv_rows(csv_out)
        points = json.loads(json_out)["points"]
        assert len(rows) == len(points) > 1
        for row, pt in zip(rows, points):
            assert (pt["arg"], pt["value"]) == (float(row[1]), float(row[2]))
            assert pt.get("flag", "") == (row[3] if len(row) > 3 else "")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ("approx", "--method", "markov", "--grid", "0.6:1:5"),
        ("approx", "--method", "rational:2", "--grid", "1"),
        ("plp", "--stat", "gn:1", "--grid", "0,1"),
        ("plp", "--stat", "rba-curve", "--grid", "0,1"),
    ], ids=" ".join)
    def test_empty_domain_is_usage_error(self, capsys, argv, fmt):
        rc, out, err = run(capsys, *argv, "--alpha", "4", "--format", fmt)
        assert rc == 2
        assert out == ""
        assert "no --grid point lies in the curve's domain" in err


def reference_curve_json(variable, kind, unit, pts, values, flags=None,
                         **extra):
    """A curve document through json.dumps, the bytes curve_doc must
    write."""
    points = [{"arg": arg, "value": val}
              for arg, val in zip(pts.tolist(), values.tolist())]
    for pt, f in zip(points, flags or ()):
        if f:
            pt["flag"] = f
    doc = {"schema": "curve", "variable": variable, "kind": kind,
           "arg_unit": unit, "points": points, **extra}
    return json.dumps(cli._rounded(doc), indent=2, allow_nan=False) + "\n"


class TestJsonPoints:
    """curve_doc writes the points itself; its bytes are those of
    json.dumps of the rounded document."""

    @pytest.mark.parametrize("argv", [
        ("plp", "--stat", "gn:2"),                              # flags
        ("plp", "--stat", "gn:2", "--grid", "0.5:0.99:50"),     # no flags
        ("plp", "--stat", "gn:2", "--grid", "0.6"),             # one point
        ("approx", "--method", "gb-fit"),                       # fit
        ("simulate", "--samples", "2000"),                      # summary
    ], ids=" ".join)
    def test_commands_match_json_dumps(self, capsys, monkeypatch, argv):
        calls = []
        real = cli.curve_doc

        def spy(*args, **kwargs):
            calls.append(copy.deepcopy((args, kwargs)))
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "curve_doc", spy)
        rc, out, _ = run(capsys, *argv, "--alpha", "4", "--format", "json")
        assert rc == 0
        [(args, kwargs)] = calls
        assert out == reference_curve_json(*args, **kwargs)

    @pytest.mark.parametrize("flags", [None, ["", "ub-only", "", "x\"y"]])
    def test_extreme_values_match_json_dumps(self, flags):
        pts = np.array([-0.0, 5e-324, 1e-300, 1.7e308])
        values = np.array([1.7e308, 1e-300, 5e-324, -0.0])
        assert (cli.curve_doc("SF", "ccdf", "linear", pts, values, flags)
                == reference_curve_json("SF", "ccdf", "linear", pts, values,
                                        flags))
        # every exponent and the positional/exponent switches of repr
        rng = np.random.default_rng(7)
        x = rng.uniform(-10.0, 10.0, 600) * 10.0 ** rng.integers(-320, 299, 600)
        x = np.concatenate([x, [1.0, 100.0, 1e12, 123456789012345.0,
                                1e16, 0.1 + 0.2, 1e-5, 2.0 ** -1074]])
        assert (cli.curve_doc("SF", "ccdf", "dB", x, x[::-1], fit={"a": 1.5})
                == reference_curve_json("SF", "ccdf", "dB", x, x[::-1],
                                        fit={"a": 1.5}))

    def test_first_non_finite_value_is_named(self):
        # the error names the first bad value in document order
        pts = np.array([0.1, 0.2, math.inf])
        values = np.array([0.5, -math.inf, math.nan])
        with pytest.raises(ValueError) as ref:
            reference_curve_json("SF", "ccdf", "linear", pts, values)
        with pytest.raises(ValueError) as exc:
            cli.curve_doc("SF", "ccdf", "linear", pts, values)
        assert str(exc.value) == str(ref.value)


class TestOutputBoundary:
    """Every text is built before the first write, so a failed command
    leaves no --out file and no sidecar file."""

    @staticmethod
    def args(fmt, out):
        return argparse.Namespace(format=fmt, out=str(out), unit="linear")

    def test_json_inf_creates_no_file(self, tmp_path):
        out = tmp_path / "curve.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.emit_curve(self.args("json", out), "SF", "ccdf",
                           np.array([0.5]), np.array([math.inf]))
        assert list(tmp_path.iterdir()) == []

    def test_csv_nan_sidecar_creates_no_file(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli.emit_curve(self.args("csv", out), "SF", "ccdf",
                           np.array([0.5]), np.array([0.25]),
                           sidecars={"summary": {"mean": math.nan}})
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr() == ("", "")

    def test_unopenable_out_is_domain_error(self, capsys, tmp_path):
        rc, out, err = run(capsys, "exact", "--alpha", "4", "--grid", "0:1:3",
                           "--out", str(tmp_path / "nodir" / "x.csv"))
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write ")
        assert list(tmp_path.iterdir()) == []

    def test_unopenable_sidecar_leaves_no_csv(self, capsys, tmp_path):
        # every file is opened before any is written
        out = tmp_path / "f.csv"
        (tmp_path / "f.csv.fit.json").mkdir()
        rc, stdout, err = run(capsys, "approx", "--method", "gb-fit",
                              "--alpha", "4", "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: cannot write ")
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv.fit.json"]

    def test_unopenable_sidecar_keeps_existing_out(self, capsys, tmp_path):
        # only the files a failed call created are removed
        out = tmp_path / "x.csv"
        out.write_text("precious\n")
        (tmp_path / "x.csv.fit.json").mkdir()
        argv = ["approx", "--method", "gb-fit", "--alpha", "4", "--grid",
                "0:1:3"]
        rc, stdout, err = run(capsys, *argv, "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: cannot write ")
        assert out.read_text() == "precious\n"
        # once the sidecar can be opened, both files are written whole,
        # over a longer one too
        (tmp_path / "x.csv.fit.json").rmdir()
        (tmp_path / "x.csv.fit.json").write_text("precious\n" * 1000)
        _, text, side = run(capsys, *argv)
        assert run(capsys, *argv, "--out", str(out)) == (0, "", "")
        assert out.read_text() == text
        assert (tmp_path / "x.csv.fit.json").read_text() == side

    def test_out_to_a_device(self, capsys):
        # a device or pipe is written, not truncated, as open(2) ignores
        # O_TRUNC on one
        assert run(capsys, "exact", "--alpha", "4", "--grid", "0:1:3",
                   "--out", os.devnull) == (0, "", "")

    def test_existing_out_file_is_kept(self, capsys, tmp_path):
        # a failed command does not truncate what a good one wrote
        out = tmp_path / "f.json"
        argv = ["plp", "--stat", "gn:5", "--delta", "0.9", "--format",
                "json", "--out", str(out)]
        assert main(argv + ["--grid", "0.5"]) == 0
        good = out.read_text()
        assert main(argv + ["--grid", "1e-300,0.5"]) == 2
        assert out.read_text() == good


class TestConjecture:
    def test_gating_below_threshold(self, capsys):
        rc, out, _ = run(capsys, "conjecture", "--samples", "20000",
                         "--seed", "3")
        assert rc == 0
        doc = json.loads(out)
        validate(doc, "conjecture")
        assert doc["thresholds_evaluated"] is False
        assert "not evaluated" in doc["note"]
        assert len(doc["moments"]) == 10
        assert doc["tail_eps"] == 1e-3

    def test_explicit_tail_eps_is_reported_and_used(self, capsys):
        args = ("conjecture", "--samples", "10000", "--seed", "3")
        docs = [json.loads(run(capsys, *args, *extra)[1])
                for extra in ((), ("--tail-eps", "1e-4"), ("--tail-eps",
                                                           "0.001"))]
        for doc in docs:
            validate(doc, "conjecture")
        assert [d["tail_eps"] for d in docs] == [1e-3, 1e-4, 1e-3]
        assert docs[0] == docs[2]
        assert (docs[1]["points_per_realization"]
                > docs[0]["points_per_realization"])

    def test_minimum_samples(self, capsys):
        rc, _, err = run(capsys, "conjecture", "--samples", "100")
        assert rc == 2

    def test_csv_format_refused(self, capsys):
        # the report is a JSON document only
        with pytest.raises(SystemExit) as exc:
            main(["conjecture", "--samples", "20000", "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_chunk_rounds_worker_independent(self, capsys, monkeypatch):
        rounds = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SIGFRAC_THREADS", threads)
            rc, out, _ = run(capsys, "conjecture", "--samples", "40000",
                             "--seed", "13")
            assert rc == 0
            doc = json.loads(out)
            validate(doc, "conjecture")
            rounds.append(doc["chunk_rounds"])
        assert rounds[0] == rounds[1] >= 3

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        args = ("conjecture", "--samples", "20000", "--seed", "8")
        monkeypatch.setenv("SIGFRAC_THREADS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("SIGFRAC_THREADS", "2")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestConvert:
    def test_db_to_mh(self, capsys):
        rc, out, _ = run(capsys, "convert", "--value", "10", "--from", "dB",
                         "--to", "MH")
        assert json.loads(out)["result"] == pytest.approx(10.0 / 11.0,
                                                          rel=1e-11)

    def test_round_trip(self, capsys):
        rc, out, _ = run(capsys, "convert", "--value", "0.5", "--from", "MH",
                         "--to", "linear")
        assert json.loads(out)["result"] == 1.0
        rc, out, _ = run(capsys, "convert", "--value", "1", "--from",
                         "linear", "--to", "dB")
        assert json.loads(out)["result"] == 0.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_value_rejected(self, capsys, value):
        rc, out, err = run(capsys, "convert", "--value", value, "--from",
                           "dB", "--to", "linear", "--format", "json")
        assert rc == 2
        assert out == ""
        assert "--value must be finite" in err


    def test_db_overflow_is_domain_error(self, capsys):
        rc, out, err = run(capsys, "convert", "--value", "4000", "--from",
                           "dB", "--to", "linear")
        assert rc == 2
        assert out == ""
        assert "4000.0 dB overflows" in err


class TestEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys
        r = subprocess.run([sys.executable, "-m", "sigfrac.cli", "exact",
                            "--alpha", "4", "--grid", "0:1:3"],
                           capture_output=True, text=True)
        assert r.returncode == 0
        assert r.stdout.startswith("arg_unit,arg,value")

    def test_workers_end_with_the_process(self):
        # the workers inherit stdout, so one that outlived the CLI would
        # keep the pipe open until the timeout
        import os
        import subprocess
        import sys
        argv = [sys.executable, "-m", "sigfrac.cli", "simulate", "--alpha",
                "3", "--fading", "nakagami:1", "--samples", "100000",
                "--seed", "1"]
        outs = []
        for threads in ("2", "1"):
            r = subprocess.run(argv, capture_output=True, text=True,
                               timeout=120,
                               env={**os.environ, "SIGFRAC_THREADS": threads})
            assert r.returncode == 0, r.stderr
            outs.append(r.stdout)
        assert outs[0] == outs[1] != ""


class TestRepeatedCalls:
    """main builds its parser once per process; calls must not leak
    options, outputs or command functions into later calls."""

    def test_sequence_matches_fresh_processes(self, capsys, tmp_path):
        import subprocess
        import sys
        out_path = tmp_path / "first.csv"
        seq = [
            ("exact", "--alpha", "4", "--var", "SIR", "--unit", "dB",
             "--grid", "-20:20:9"),
            ("approx", "--alpha", "4", "--method", "best", "--grid",
             "0:1:5", "--format", "json"),
            ("exact", "--alpha", "3", "--grid", "0:1:5", "--out",
             str(out_path)),
            ("exact", "--alpha", "4", "--grid", "0:1:5"),
            ("approx", "--alpha", "4", "--method", "best", "--grid", "0:1:5"),
        ]
        for argv in seq:
            rc, out, _ = run(capsys, *argv)
            written = out_path.read_text() if "--out" in argv else None
            fresh = subprocess.run([sys.executable, "-m", "sigfrac.cli",
                                    *argv], capture_output=True, text=True)
            assert (rc, out) == (fresh.returncode, fresh.stdout), argv
            if written is not None:
                assert written == out_path.read_text() != ""

    def test_rebound_command_is_called(self, capsys, monkeypatch):
        argv = ("exact", "--alpha", "4", "--grid", "0:1:3")
        assert run(capsys, *argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_exact", lambda args: seen.append(args) or 0)
        rc, out, _ = run(capsys, *argv)
        assert (rc, out) == (0, "")
        assert [a.alpha for a in seen] == [4.0]

    def test_usage_error_between_calls(self, capsys):
        argv = ("approx", "--alpha", "4", "--method", "best", "--grid",
                "0:1:5")
        rc, first, _ = run(capsys, *argv)
        assert rc == 0
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--alpha", "4"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err
        assert run(capsys, *argv)[:2] == (0, first)
