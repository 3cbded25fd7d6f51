import json
import math
from pathlib import Path

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

    def test_alpha_delta_consistency(self, capsys):
        rc, _, err = run(capsys, "exact", "--alpha", "4", "--delta", "0.4")
        assert rc == 2
        assert "disagree" in err

    def test_invalid_delta(self, capsys):
        rc, _, err = run(capsys, "exact", "--delta", "1.5")
        assert rc == 2
        assert "0 < delta < 1" in err

    def test_mh_refuses_unit_arg(self, capsys):
        rc, _, err = run(capsys, "exact", "--alpha", "4", "--var", "SIR",
                         "--unit", "MH", "--grid", "0:1:11")
        assert rc == 2
        assert "MH" in err

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

    def test_unknown_method(self, capsys):
        rc, _, err = run(capsys, "approx", "--method", "spline", "--alpha", "4")
        assert rc == 2
        assert "rational" in err and "best" in err

    def test_numeric_failure_exit_code(self, capsys):
        # the moment fit leaves the b <= 1 family at small delta
        rc, _, err = run(capsys, "approx", "--method", "gb-fit",
                         "--delta", "0.3", "--grid", "0:1:5")
        assert rc == 3
        assert "numeric failure" in err

    def test_rational_matches_library(self, capsys, params_half):
        rc, out, _ = run(capsys, "approx", "--method", "rational:2",
                         "--alpha", "4", "--grid", "0:0.8:5")
        _, rows = csv_rows(out)
        assert float(rows[2][2]) == pytest.approx(
            sg.rational_ccdf(params_half, 2, 0.4), rel=1e-11)


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

    def test_threads_do_not_change_output(self, capsys, monkeypatch):
        args = ("simulate", "--alpha", "4", "--fading", "none", "--assoc",
                "nba", "--samples", "40000", "--seed", "11", "--grid",
                "0:1:21", "--format", "json")
        monkeypatch.setenv("SIGFRAC_THREADS", "1")
        _, out1, _ = run(capsys, *args)
        monkeypatch.setenv("SIGFRAC_THREADS", "3")
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("m", ["nan", "inf", "0"])
    def test_bad_nakagami_parameter_rejected(self, capsys, m):
        rc, out, err = run(capsys, "simulate", "--alpha", "4", "--fading",
                           f"nakagami:{m}", "--samples", "100")
        assert rc == 2
        assert out == ""
        assert f"nakagami parameter m must be finite and > 0, got {m}" in err

    def test_rba_with_fading_rejected(self, capsys):
        rc, _, err = run(capsys, "simulate", "--alpha", "4", "--fading",
                         "nakagami:1", "--assoc", "rba", "--samples", "100")
        assert rc == 2
        assert "no-fading" in err

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
                         "--t", "0.5")
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(2.0 / math.pi, abs=1e-4)
        assert "flag" not in doc

    def test_gn_flags_below_half(self, capsys):
        rc, out, _ = run(capsys, "plp", "--stat", "gn:1", "--delta", "0.5",
                         "--t", "0.3")
        doc = json.loads(out)
        assert doc["flag"] == "ub-only"

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

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_t_rejected(self, capsys, t):
        rc, out, err = run(capsys, "plp", "--alpha", "4", "--stat", "gn:2",
                           "--t", t, "--format", "json")
        assert rc == 2
        assert out == ""
        assert "--t must be finite" in err


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
