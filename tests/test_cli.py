"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supgof import cli
from supgof.cli import main
from supgof.model import DENSE_RATES_CAP, RateVector, SimplexVector
from supgof.rates import multinomial_rate, poisson_rate
from supgof.risk import sweep_multinomial_sharp_constant, sweep_sharp_constant

POISSON_NULL = '{"model":"poisson","rates":[1,1,1]}'
MULT_NULL = '{"model":"multinomial","probs":[0.5,0.3,0.2],"n":50}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRateCommand:
    def test_poisson_profile_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--null", POISSON_NULL)
        assert code == 0
        payload = json.loads(out)
        # One term per cell: the profile of the null with each cell a run of its own.
        profile = poisson_rate(RateVector.from_runs([1.0, 1.0, 1.0], [1, 1, 1]))
        assert payload["epsilon_star"] == profile.epsilon_star
        assert payload["j_star"] == profile.j_star
        np.testing.assert_array_equal(payload["terms"], profile.per_coordinate_terms)

    def test_multinomial_profile(self, capsys):
        code, out, _ = run_cli(capsys, "rate", "--null", MULT_NULL)
        assert code == 0
        assert json.loads(out)["j_star"] >= 1

    def test_output_file_atomic(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        code, out, _ = run_cli(capsys, "rate", "--null", POISSON_NULL, "--out", str(target))
        assert code == 0
        assert target.exists()
        assert json.loads(target.read_text())["j_star"] == 3
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        assert leftovers == []

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, where):
        """Both once ended in a traceback, from ``mkstemp`` and from ``os.replace``."""
        target = tmp_path / "out"
        if where == "missing-directory":
            target = target / "x.json"
        else:
            target.mkdir()  # the temp file is made beside it, in tmp_path
        code, out, err = run_cli(capsys, "rate", "--null", POISSON_NULL, "--out", str(target))
        assert code == 1
        assert f"--out {target}" in err
        assert out == ""
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    def test_null_json_array_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "null.json"
        spec.write_text("[1,2,3]")
        code, _out, err = run_cli(capsys, "rate", "--null", str(spec))
        assert code == 2
        assert "JSON object" in err

    @pytest.mark.parametrize("what", ["null", "alternative"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_spec_is_data_error(self, tmp_path, capsys, what, kind):
        """A directory once ended in an ``IsADirectoryError`` traceback, and a
        file that is not UTF-8 text exited 1 as a config error."""
        spec = tmp_path
        if kind == "not-utf8":
            spec = tmp_path / "spec.json"
            spec.write_bytes(b'\xff\xfe{"model": "poisson", "rates": [1, 1, 1]}')
        argv = ["rate", "--null", str(spec)] if what == "null" else ["risk", "--null", POISSON_NULL, "--alt", str(spec)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("data error: ") and f"{what} spec {spec}" in err
        assert out == ""

    def test_17_digit_floats_round_trip(self, capsys):
        _code, out, _ = run_cli(capsys, "rate", "--null", POISSON_NULL)
        payload = json.loads(out)
        profile = poisson_rate(RateVector([1.0, 1.0, 1.0]))
        assert payload["psi"] == profile.psi  # bit-exact: the shortest round-trip repr


class TestJsonOutput:
    def test_same_text_as_a_17_digit_detour(self):
        """Writing each double directly gives the text that rounding it through
        17 significant digits first gave: that detour returns the same double."""
        rng = np.random.default_rng(11)
        values = np.concatenate(
            [
                rng.standard_normal(2000) * 10.0 ** rng.integers(-300, 300, 2000),
                [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3],
            ]
        )
        detour = [float(format(float(v), ".17g")) for v in values]
        assert cli._dump_json({"x": values}) == json.dumps({"x": detour})
        assert cli._dump_json(list(values)) == json.dumps(detour)

    def test_numpy_scalars_and_arrays_become_builtins(self):
        payload = {"i": np.int64(7), "f": np.float32(0.5), "a": np.arange(3), "m": np.eye(2)}
        assert json.loads(cli._dump_json(payload)) == {"i": 7, "f": 0.5, "a": [0, 1, 2], "m": [[1.0, 0.0], [0.0, 1.0]]}

    def test_other_objects_are_refused(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            cli._dump_json({"x": object()})


class TestTestCommand:
    def test_decisions_per_row(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("a,b,c\n1,1,1\n30,1,1\n")
        code, out, _ = run_cli(
            capsys, "test", "--null", POISSON_NULL, "--data", str(data), "--eta", "0.1"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [d["decision"] for d in lines] == ["accept", "reject"]
        assert all({"statistic", "threshold", "decision"} <= set(d) for d in lines)

    def test_multinomial_mode(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("25,15,10\n")
        code, out, _ = run_cli(
            capsys, "test", "--null", MULT_NULL, "--data", str(data), "--eta", "0.2"
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[0])["decision"] == "accept"

    def test_missing_data_is_config_error(self, capsys):
        code, _out, err = run_cli(capsys, "test", "--null", POISSON_NULL)
        assert code == 1
        assert "--data" in err

    @pytest.mark.parametrize(
        "null",
        [
            '{"model":"multinomial","probs":[0.5,0.5],"n":0}',
            '{"model":"multinomial","probs":[0.5,0.5],"n":-5}',
            '{"model":"multinomial","probs":[0.5,0.5],"n":null}',
            '{"model":"multinomial","probs":[0.5,0.5],"n":[10]}',
            '{"model":"multinomial","probs":{"a":1},"n":10}',
            # JSON true once passed as the number 1 (n = 1, a rate or probability of 1.0).
            '{"model":"multinomial","probs":[0.5,0.5],"n":true}',
            '{"model":"multinomial","probs":[1,false],"n":10}',
            '{"model":"poisson","rates":[true,true]}',
        ],
        ids=["n-zero", "n-negative", "n-null", "n-list", "probs-object", "n-boolean", "probs-boolean", "rates-boolean"],
    )
    def test_bad_null_field_is_config_error(self, tmp_path, capsys, null):
        data = tmp_path / "counts.csv"
        data.write_text("a,b\n5,5\n")
        code, out, err = run_cli(capsys, "test", "--null", null, "--data", str(data))
        assert code == 1
        assert "invalid null spec" in err
        assert out == ""

    def test_agreeing_model_flag_changes_nothing(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("25,15,10\n40,5,5\n")
        argv = ["test", "--null", MULT_NULL, "--data", str(data)]
        plain = run_cli(capsys, *argv)
        flagged = run_cli(capsys, *argv, "--model", "multinomial")
        assert flagged == plain
        assert plain[0] == 0

    def test_disagreeing_model_flag_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("1,1,1\n")
        code, out, err = run_cli(capsys, "test", "--null", POISSON_NULL, "--data", str(data), "--model", "multinomial")
        assert code == 1
        assert "multinomial" in err and "poisson" in err
        assert out == ""

    def test_missing_file_is_data_error(self, capsys):
        code, _out, err = run_cli(
            capsys, "test", "--null", POISSON_NULL, "--data", "/nonexistent/file.csv"
        )
        assert code == 2

    def test_wrong_width_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("1,2\n")
        code, _out, _err = run_cli(capsys, "test", "--null", POISSON_NULL, "--data", str(data))
        assert code == 2

    def test_multinomial_row_sum_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "counts.csv"
        data.write_text("5,5\n3,3\n4,4\n")
        null = '{"model":"multinomial","probs":[0.5,0.5],"n":10}'
        code, out, err = run_cli(capsys, "test", "--null", null, "--data", str(data))
        assert code == 2
        assert "row 2 sums to 6, not n = 10" in err
        assert out == ""


    @pytest.mark.parametrize("first", ["1.5,2,3", "inf,2,3"])
    def test_numeric_first_row_is_data_error(self, tmp_path, capsys, first):
        """A numeric first row is data, never a header to skip."""
        data = tmp_path / "counts.csv"
        data.write_text(f"{first}\n1,1,1\n")
        code, out, err = run_cli(capsys, "test", "--null", POISSON_NULL, "--data", str(data))
        assert code == 2
        assert "CSV row 1" in err
        assert out == ""


class TestPriorCommand:
    def test_poisson_draws_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "prior", "--null", POISSON_NULL, "--c", "0.3", "--trials", "5", "--seed", "1"
        )
        assert code == 0
        rows = [json.loads(line)["rates"] for line in out.strip().splitlines()]
        assert len(rows) == 5
        assert all(len(r) == 3 for r in rows)

    def test_poisson_without_c_is_config_error(self, capsys):
        code, _out, err = run_cli(capsys, "prior", "--null", POISSON_NULL, "--trials", "5")
        assert code == 1
        assert "--c" in err

    def test_poisson_infinite_spike_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "prior", "--null", '{"model":"poisson","rates":[3,2,1]}',
            "--c", "1e308", "--trials", "2", "--seed", "1",
        )
        assert code == 1
        assert "infinite" in err
        assert out == ""

    def test_poisson_nan_spike_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "prior", "--null", POISSON_NULL, "--c", "nan")
        assert code == 1
        assert "c must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("null, c", [(POISSON_NULL, "0.3"), (MULT_NULL, "1.0")], ids=["poisson", "multinomial"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_is_config_error(self, capsys, null, c, trials):
        """``0`` once printed an empty line with exit 0; ``-1`` printed numpy's message."""
        code, out, err = run_cli(capsys, "prior", "--null", null, "--c", c, "--trials", trials)
        assert code == 1
        assert "--trials" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["prior"], ["risk", "--poissonized"]], ids=["prior", "risk"])
    def test_multinomial_nan_spike_is_config_error(self, capsys, argv):
        """A NaN spike scale once printed NaN draws (prior) or warned (Poissonized risk)."""
        code, out, err = run_cli(capsys, *argv, "--null", MULT_NULL, "--c", "nan")
        assert code == 1
        assert "c must be positive" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["prior"], ["verify", "flattening"]], ids=["prior", "verify"])
    def test_nan_big_c_names_the_option(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--null", POISSON_NULL, "--c", "0.5", "--big-c", "nan")
        assert code == 1
        assert "--big-c" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [["prior"], ["verify", "flattening"]], ids=["prior", "verify"])
    def test_infinite_big_c_is_config_error(self, capsys, argv):
        """``C = inf`` passed the ``C >= e`` check and exited 3 from ``h^{-1}``."""
        code, out, err = run_cli(capsys, *argv, "--null", POISSON_NULL, "--c", "0.5", "--big-c", "inf")
        assert code == 1
        assert "C (--big-c) must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("null, c", [(POISSON_NULL, "1"), (MULT_NULL, "1.0")], ids=["poisson", "multinomial"])
    def test_trials_past_the_cap_is_config_error(self, capsys, null, c):
        """``--trials 1e12`` once died in ``np.tile``; it is refused before any allocation."""
        code, out, err = run_cli(capsys, "prior", "--null", null, "--c", c, "--trials", "1000000000000")
        assert code == 1
        assert "--trials" in err and "DENSE_RATES_CAP" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv", [["prior"], ["risk"], ["risk", "--poissonized"]], ids=["prior", "risk", "risk-poissonized"]
    )
    def test_one_category_names_the_input(self, capsys, argv):
        """A one-cell null once failed as an "inconsistent critical index"."""
        null = '{"model":"multinomial","probs":[1],"n":50}'
        code, out, err = run_cli(capsys, *argv, "--null", null)
        assert code == 1
        assert "need at least two categories" in err
        assert out == ""

    def test_multinomial_draws_on_simplex(self, capsys):
        null = json.dumps(
            {"model": "multinomial", "probs": [0.025] * 40, "n": 50}
        )
        code, out, _ = run_cli(capsys, "prior", "--null", null, "--trials", "8", "--seed", "2")
        assert code == 0
        for line in out.strip().splitlines():
            probs = json.loads(line)["probs"]
            assert abs(sum(probs) - 1.0) < 1e-9


class TestVerifyCommand:
    def test_flattening_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "flattening", "--null", '{"model":"poisson","rates":[2,1]}', "--c", "0.2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["lhs_tv"] <= payload["rhs_head_tv"] + payload["rhs_tail_tv"] + 1e-8

    @pytest.mark.parametrize("k", ["99", "-5", "0"])
    def test_k_out_of_range_is_config_error(self, capsys, k):
        null = '{"model":"poisson","rates":[2,1,1,0.5]}'
        code, out, err = run_cli(capsys, "verify", "flattening", "--null", null, "--k", k)
        assert code == 1
        assert f"k must lie in [1, 4], got {k}" in err
        assert out == ""


class TestRiskAndSweep:
    def test_risk_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "risk",
            "--null",
            POISSON_NULL,
            "--alt",
            "[6,1,1]",
            "--eta",
            "0.2",
            "--trials",
            "400",
            "--seed",
            "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == payload["type1"] + payload["type2"]
        assert payload["trials"] == 400

    def test_two_dimensional_alternative_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--null", POISSON_NULL, "--alt", "[[6,1,1]]")
        assert code == 1
        assert "dimension mismatch" in err
        assert out == ""

    @pytest.mark.parametrize("alt", ['{"rates": [true, 1, 1]}', "[true, 1, 1]"], ids=["object", "array"])
    def test_boolean_alternative_is_config_error(self, capsys, alt):
        """JSON ``true`` was read as the rate 1 and exited 0; the null refuses it too."""
        code, out, err = run_cli(capsys, "risk", "--null", POISSON_NULL, "--alt", alt)
        assert code == 1
        assert 'invalid alternative spec: field "rates" holds a boolean' in err
        assert out == ""

    def test_alternative_without_its_field_is_config_error(self, capsys):
        code, out, err = run_cli(capsys, "risk", "--null", POISSON_NULL, "--alt", '{"probs": [2, 1, 1]}')
        assert code == 1
        assert "missing required field in alternative spec: 'rates'" in err
        assert out == ""

    def test_risk_poisson_prior_without_c_is_config_error(self, capsys):
        code, _out, err = run_cli(capsys, "risk", "--null", POISSON_NULL, "--trials", "400")
        assert code == 1
        assert "--c" in err

    def test_sweep_csv_schema_and_determinism(self, tmp_path, capsys):
        null = json.dumps({"model": "poisson", "rates": [2.0] * 30})
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        for out_path in (out1, out2):
            code, _o, _e = run_cli(
                capsys,
                "sweep",
                "--null",
                null,
                "--xi-grid",
                "0.5,2.0",
                "--trials",
                "300",
                "--seed",
                "9",
                "--format",
                "csv",
                "--out",
                str(out_path),
            )
            assert code == 0
        text = out1.read_text()
        assert text.splitlines()[0] == "# schema=1"
        assert text.splitlines()[1].startswith("xi,epsilon,type1,type2,total,ci,trials,seed,regime")
        assert out1.read_bytes() == out2.read_bytes()

    def test_multinomial_sweep_zero_trials_is_config_error(self, capsys):
        null = '{"model":"multinomial","probs":[0.5,0.3,0.2],"n":100}'
        code, out, err = run_cli(capsys, "sweep", "--null", null, "--trials", "0")
        assert code == 1
        assert "trials" in err
        assert out == ""

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_poisson_sweep_trials_below_one_is_config_error(self, capsys, trials):
        """The Poisson sweep once exited 0 whatever ``--trials`` held."""
        code, out, err = run_cli(capsys, "sweep", "--null", '{"model":"poisson","rates":[3,2,1]}', "--trials", trials)
        assert code == 1
        assert "trials must be at least 1" in err
        assert out == ""

    def test_sweep_over_runs_at_paper_scale(self, capsys):
        """A flat null of 1e15 coordinates, given as one run, sweeps exactly."""
        null = '{"model":"poisson","runs":[[1.0, 1e15]]}'
        code, out, _err = run_cli(capsys, "sweep", "--null", null, "--xi-grid", "0.8,1.4")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        expected = sweep_sharp_constant(RateVector.from_runs([1.0], [10**15]), [0.8, 1.4], math.log(1e15), 1, 0)
        assert rows == expected.rows()
        assert [round(r["total"], 3) for r in rows] == [0.826, 0.054]

    @pytest.mark.parametrize("command", [["prior", "--c", "0.5"], ["verify", "flattening"], ["risk", "--c", "0.5"]])
    def test_dense_only_command_past_the_cap_is_config_error(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--null", '{"model":"poisson","runs":[[1.0, 1e15]]}')
        assert code == 1
        assert "DENSE_RATES_CAP" in err
        assert out == ""

    @pytest.mark.parametrize(
        "null, model",
        [
            ('{"model":"poisson","runs":[[50,1e6],[3,1e9],[1,1e12]]}', "poisson"),
            ('{"model":"multinomial","runs":[[1e-15, 1e15]],"n":1.26e18}', "multinomial"),
        ],
        ids=["poisson", "multinomial"],
    )
    def test_rate_past_the_cap_gives_one_term_per_run(self, capsys, null, model):
        """``rate`` works on the runs at any p: past the cap its terms are
        one [value, count, term at the run's end] per run (of the tail, for
        a multinomial null)."""
        code, out, _err = run_cli(capsys, "rate", "--null", null)
        assert code == 0
        payload = json.loads(out)
        if model == "poisson":
            profile = poisson_rate(RateVector.from_runs([50.0, 3.0, 1.0], [10**6, 10**9, 10**12]))
            runs = [[50.0, 10**6], [3.0, 10**9], [1.0, 10**12]]
            assert payload["j_star"] == 1_000_000 and payload["regime"] == "subgaussian"
        else:
            profile = multinomial_rate(SimplexVector.from_runs([1e-15], [10**15]), 1.26e18)
            runs = [[1e-15, 10**15 - 1]]  # the head is a run of its own
        assert payload == {**profile.to_dict(), "terms": [run + [t] for run, t in zip(runs, profile.per_coordinate_terms.tolist())]}
        assert len(payload["terms"]) == len(runs)

    def test_prior_and_risk_past_the_cap_name_it(self, capsys):
        """The spike prior builds on the runs, so ``prior`` gets as far as its
        draws, which it refuses naming ``--trials`` and the cap; ``risk`` reads
        the dense rates and names the cap."""
        null = '{"model":"poisson","runs":[[50,1e6],[3,1e9],[1,1e12]]}'
        code, out, err = run_cli(capsys, "prior", "--null", null, "--c", "1")
        assert (code, out) == (1, "")
        assert "--trials" in err and "DENSE_RATES_CAP" in err
        code, out, err = run_cli(capsys, "risk", "--null", null, "--c", "1")
        assert (code, out) == (1, "")
        assert "DENSE_RATES_CAP" in err

    @pytest.mark.parametrize("data", ["counts.csv", "missing.csv"])
    def test_test_past_the_cap_is_config_error_before_the_data(self, tmp_path, capsys, data):
        """``test`` once read the CSV first and exited 2 with "expected 1000000000000000 columns"."""
        (tmp_path / "counts.csv").write_text("1,1,1\n")
        null = '{"model":"poisson","runs":[[1.0, 1e15]]}'
        code, out, err = run_cli(capsys, "test", "--null", null, "--data", str(tmp_path / data))
        assert code == 1
        assert "DENSE_RATES_CAP" in err
        assert out == ""

    def test_multinomial_sweep_over_runs_at_paper_scale(self, capsys):
        """A flat multinomial null of 1e15 cells, given as one run, sweeps exactly when Poissonized."""
        null = '{"model":"multinomial","runs":[[1e-15, 1e15]],"n":1.26e18}'
        code, out, _err = run_cli(capsys, "sweep", "--poissonized", "--null", null, "--xi-grid", "0.8,1.25")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        q0 = SimplexVector.from_runs([1e-15], [10**15])
        expected = sweep_multinomial_sharp_constant(q0, 1.26e18, [0.8, 1.25], math.log(1e15), 1, 0, poissonized=True)
        assert rows == expected.rows()
        assert [round(r["total"], 3) for r in rows] == [0.944, 0.044]

    @pytest.mark.parametrize("poissonized", [[], ["--poissonized"]], ids=["fixed-n", "poissonized"])
    def test_multinomial_runs_null_is_its_dense_null(self, capsys, poissonized):
        """``risk`` and ``sweep`` print the same bytes for a null given as runs and as its cells."""
        dense = json.dumps({"model": "multinomial", "probs": [0.1] * 4 + [0.05] * 12, "n": 400})
        runs = '{"model":"multinomial","runs":[[0.1,4],[0.05,12]],"n":400}'
        for command in (["risk", "--c", "0.5"], ["sweep", "--xi-grid", "0.5,1"]):
            outs = [run_cli(capsys, *command, *poissonized, "--null", null) for null in (dense, runs)]
            assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize(
        "command", [["prior"], ["test", "--data", "missing.csv"], ["sweep"], ["risk", "--poissonized"]]
    )
    def test_multinomial_dense_route_past_the_cap_is_config_error(self, capsys, command):
        """Past the cap only ``rate`` and the Poissonized sweep run; fixed-n,
        ``prior`` (its simplex prior holds the cells), ``risk`` and ``test`` name the cap."""
        null = '{"model":"multinomial","runs":[[1e-15, 1e15]],"n":1.26e18}'
        code, out, err = run_cli(capsys, *command, "--null", null)
        assert code == 1
        assert "DENSE_RATES_CAP" in err
        assert out == ""

    @pytest.mark.parametrize(
        "null, message",
        [
            ('{"model":"multinomial","runs":[[0.25, 4.5]],"n":10}', "run counts must be integers"),
            ('{"model":"multinomial","runs":[[0.25, 4]],"probs":[0.25,0.25,0.25,0.25],"n":10}', "not both"),
            ('{"model":"multinomial","runs":[[0.25, 3]],"n":10}', "sum to 1"),
            ('{"model":"multinomial","runs":[[0.25, 2], [0.5, 1]],"n":10}', "sorted non-increasing"),
            ('{"model":"multinomial","runs":[0.5, 2],"n":10}', "pairs"),
        ],
        ids=["non-integer-count", "probs-and-runs", "off-the-simplex", "increasing", "not-pairs"],
    )
    @pytest.mark.parametrize("command", ["rate", "sweep", "risk"])
    def test_malformed_multinomial_runs_are_config_errors(self, capsys, null, message, command):
        code, out, err = run_cli(capsys, command, "--null", null)
        assert code == 1
        assert message in err and "Traceback" not in err
        assert out == ""

    def test_bad_alpha_rule_is_config_error(self, capsys):
        code, _o, err = run_cli(
            capsys, "sweep", "--null", POISSON_NULL, "--alpha-rule", "bogus", "--trials", "200"
        )
        assert code == 1

    @pytest.mark.parametrize("null", [POISSON_NULL, MULT_NULL], ids=["poisson", "multinomial"])
    @pytest.mark.parametrize("rule", ["inf", "nan"])
    def test_non_finite_alpha_rule_is_config_error(self, capsys, null, rule):
        """``inf`` once exited 3 and ``nan`` named ``h_inverse``."""
        code, out, err = run_cli(capsys, "sweep", "--null", null, "--alpha-rule", rule, "--trials", "200")
        assert code == 1
        assert "alpha_p" in err
        assert out == ""

    def test_bad_null_model_is_config_error(self, capsys):
        code, _o, err = run_cli(capsys, "rate", "--null", '{"model":"gaussian"}')
        assert code == 1
        assert "model" in err


class TestUsageErrors:
    """Malformed command lines are configuration errors (exit 1); --help exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--bogus", "1"],
            ["rate", "--null", POISSON_NULL, "--seed", "1"],
            ["test", "--null", POISSON_NULL, "--format", "csv"],
            ["test", "--eta", "abc"],
            ["sweep", "--trials", "1.5"],
        ],
        ids=["unknown-flag", "rate-seed", "test-format", "eta-not-float", "trials-not-int"],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--help"])
        assert exc.value.code == 0


class TestNumericFailureExit:
    def test_sweep_zero_probability_box_is_exit_3(self, capsys):
        null = '{"model":"poisson","rates":[1e300,1]}'
        code, out, err = run_cli(capsys, "sweep", "--null", null)
        assert code == 3
        assert "acceptance box of coordinate 1" in err
        assert out == ""

    def test_risk_zero_probability_box_is_exit_3(self, capsys):
        null = '{"model":"poisson","rates":[1e300,1]}'
        code, out, err = run_cli(capsys, "risk", "--null", null, "--c", "0.5", "--trials", "100")
        assert code == 3
        assert "acceptance box of coordinate 1 " in err
        assert out == ""

    def test_h_inverse_failure_is_exit_3(self, capsys):
        # log(2e)/5e-324 overflows to inf, which no h_inverse output can meet.
        null = '{"model":"poisson","rates":[1,5e-324]}'
        code, out, err = run_cli(capsys, "rate", "--null", null)
        assert code == 3
        assert "h_inverse missed its tolerance" in err
        assert out == ""

    def test_fixed_n_product_past_its_cap_is_exit_3(self, capsys):
        """At n = 1e13 the fixed-n box product needs ~1.5e7 coefficients: exit 3, never a sample."""
        null = '{"model":"multinomial","probs":[0.5,0.5],"n":1e13}'
        code, out, err = run_cli(capsys, "risk", "--null", null, "--alt", "[0.4,0.6]", "--trials", "100")
        assert code == 3
        assert "over the cap" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["risk", "sweep"])
    def test_fixed_n_point_probability_underflow_is_exit_3(self, capsys, command):
        """At n = 1e300 ``P(Poisson(n) = n)`` is 0 in float64: once a
        RuntimeWarning and a config error about error rates."""
        null = '{"model":"multinomial","probs":[0.5,0.3,0.2],"n":1e300}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, "--null", null)
        assert code == 3
        assert "not positive in float64 at n = 1e+300" in err
        assert out == ""

    def test_spike_past_the_quantile_solver_is_exit_3(self, capsys):
        """At c = 1e20 the spiked rate is past ``pdtrik``'s reach: once
        "cannot convert float NaN to integer" with exit 1."""
        null = '{"model":"poisson","rates":[3,2,1]}'
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "flattening", "--null", null, "--c", "1e20")
        assert code == 3
        assert "no Poisson quantile at rate" in err
        assert out == ""

    def test_atom_budget_exceeded_is_exit_3(self, capsys):
        # Eight coordinates with mean 20 need ~40 support points each:
        # far beyond the enumeration budget for the flattening verifier.
        null = json.dumps({"model": "poisson", "rates": [20.0] * 8})
        code, _out, err = run_cli(capsys, "verify", "flattening", "--null", null, "--c", "0.2")
        assert code == 3
        assert "numeric failure" in err


# Values a hand-written null spec can hold where a number is expected.
_ODD_VALUES = st.sampled_from(
    [0, -1, math.nan, math.inf, -math.inf, 5e-324, 1e308, "2", "x", None, True, [], {}]
)
_VALUES = st.integers(0, 3).flatmap(
    lambda i: _ODD_VALUES if i == 0 else st.sampled_from([0.2, 0.5, 1, 3, 50])
)
_VECTORS = st.one_of(
    st.sampled_from([[1, 1, 1], [0.5, 0.3, 0.2], [0.6, 0.4, 0.0], [1.0]]),
    st.lists(_VALUES, max_size=4),
    _ODD_VALUES,
)


_RUNS = st.one_of(
    st.sampled_from([[[3, 1], [1, 2]], [[2, 2.0]], [[1.0, 1e15]]]),
    st.lists(st.lists(_VALUES, min_size=2, max_size=2), max_size=3),
    _VECTORS,
)


@st.composite
def _null_specs(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[1, 2]", "3", "null", '"s"', "{"]))
    model = draw(st.sampled_from(["poisson", "multinomial", "poisson", "multinomial", "gamma", None]))
    spec = {"model": model}
    for key, values in (("rates", _VECTORS), ("probs", _VECTORS), ("n", _VALUES), ("runs", _RUNS)):
        if draw(st.integers(0, 3)):
            spec[key] = draw(values)
    return json.dumps(spec)


@st.composite
def _broken_runs_specs(draw) -> tuple[str, bool]:
    """A Poisson ``runs`` null spec that breaks one rule, and whether the
    break is only a ``p`` past the dense cap."""
    runs = [[3.0, 2], [2.0, 1], [1.0, 3]][: draw(st.integers(1, 3))]
    spec = {"model": "poisson", "runs": runs}
    i = draw(st.integers(0, len(runs) - 1))
    defect = draw(st.sampled_from(["boolean", "count", "increasing", "both", "over-cap"]))
    if defect == "boolean":
        runs[i][draw(st.integers(0, 1))] = draw(st.booleans())
    elif defect == "count":
        runs[i][1] = draw(st.sampled_from([1.5, 0, 0.0, -1, -3.0, 1e-300, 2**53 + 2, 1e300]))
    elif defect == "increasing":
        runs.insert(i + 1, [runs[i][0] + 0.5, 1])
    elif defect == "both":
        spec["rates"] = draw(st.sampled_from([[1, 1, 1], [], None]))
    else:
        runs[i][1] = draw(st.sampled_from([DENSE_RATES_CAP + 1, 1e15]))
    return json.dumps(spec), defect == "over-cap"


def _exit_code(argv) -> int:
    """Exit code of ``main(argv)``, checked against the contract: 0 to 3, no traceback.

    Every warning is raised as an error, so an input that warns on its way
    to an exit code fails the check as well.
    """
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # a malformed command line
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    return code


class TestExitCodeContract:
    """Any input, however malformed, ends in exit 0 to 3 and never in a traceback."""

    def test_fuzzed_null_specs(self, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("1,1,1\n0,2,1\n")

        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        # Inputs that once warned of an overflow or a division by zero before exiting.
        @example("rate", '{"model": "poisson", "rates": [1, 5e-324]}', None)
        @example("test", '{"model": "poisson", "rates": [50, 0.2, 5e-324]}', None)
        @example("rate", '{"model": "multinomial", "probs": [0.5, 0.3, 0.2], "n": 5e-324}', None)
        @example("test", '{"model": "multinomial", "probs": [1e308, 1e308, 1e308], "n": 3}', None)
        @given(
            command=st.sampled_from(["rate", "test", "prior"]),
            spec=_null_specs(),
            c=st.sampled_from([None, "0.5", "-1", "nan", "inf"]),
        )
        def run(command, spec, c):
            argv = [command, "--null", spec]
            if command == "test":
                argv += ["--data", str(data)]
            if command == "prior" and c is not None:
                argv += ["--c", c]
            _exit_code(argv)

        run()

    def test_fuzzed_risk_and_sweep_options(self):
        """``risk`` and ``sweep`` over both models and every option that sets the risk."""

        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        # Grids whose separation overflowed with a RuntimeWarning before exiting.
        @example("sweep", POISSON_NULL, False, None, None, None, "1e308")
        @example("sweep", POISSON_NULL, False, None, None, None, "inf")
        @given(
            command=st.sampled_from(["risk", "sweep"]),
            spec=st.one_of(
                st.sampled_from(
                    [
                        POISSON_NULL,
                        MULT_NULL,
                        '{"model":"poisson","rates":[1e300,1]}',
                        '{"model":"multinomial","probs":[0.4,0.3,0.3],"n":30}',
                        '{"model":"multinomial","probs":[0.25,0.25,0.25,0.25],"n":12.5}',
                        '{"model":"multinomial","probs":[0.6,0.4,0.0],"n":20}',
                    ]
                ),
                _null_specs(),
            ),
            poissonized=st.booleans(),
            alt=st.sampled_from(
                [None, "[6,1,1]", "[0.2,0.3,0.5]", "[1,2]", "[-1,1,1]", "[NaN,1,1]", "[1e308,1,1]",
                 "[[1,1,1]]", '{"rates":[2,1,1]}', '{"probs":{"a":1}}', '["x"]', "{", "[]"]
            ),
            c=st.sampled_from([None, "0.5", "0", "-1", "nan", "inf", "1e308"]),
            trials=st.sampled_from([None, "0", "-3", "50", "100", "150"]),
            xi_grid=st.sampled_from(
                [None, "0.5,1,2", "1", "0", "-1", "nan", "inf", "1e308", "2,1", "1,1", ",", "x", "1e-300"]
            ),
        )
        def run(command, spec, poissonized, alt, c, trials, xi_grid):
            argv = [command, "--null", spec]
            if poissonized:
                argv.append("--poissonized")
            if trials is not None:
                argv += ["--trials", trials]
            if command == "risk":
                argv += [] if alt is None else ["--alt", alt]
                argv += [] if c is None else ["--c", c]
            elif xi_grid is not None:
                argv += ["--xi-grid", xi_grid]
            _exit_code(argv)

        run()

    def test_fuzzed_runs_specs(self, tmp_path):
        """A broken ``runs`` spec exits 1 or 2 from every subcommand; a ``p``
        past the dense cap does too, except from ``rate`` and ``sweep``, which
        need no dense rates and exit 0."""
        data = tmp_path / "counts.csv"
        data.write_text("1,1,1\n")
        options = {
            "test": ["--data", str(data)],
            "prior": ["--c", "0.5"],
            "verify": ["flattening"],
            "risk": ["--c", "0.5"],
        }

        @settings(max_examples=200, derandomize=True, deadline=None, database=None)
        @given(
            command=st.sampled_from(["rate", "test", "prior", "verify", "risk", "sweep"]),
            case=_broken_runs_specs(),
        )
        def run(command, case):
            spec, over_cap = case
            code = _exit_code([command, *options.get(command, []), "--null", spec])
            if over_cap and command in ("rate", "sweep"):
                assert code == 0
            else:
                assert code in (1, 2)

        run()

    def test_fuzzed_verify_options(self):
        """``verify flattening`` over every option that shapes the prior and the split."""

        @settings(max_examples=150, derandomize=True, deadline=None, database=None)
        # An index past the last coordinate once ended in an IndexError traceback.
        @example('{"model":"poisson","rates":[2,1,1,0.5]}', "99", None, None)
        @example('{"model":"poisson","rates":[2,1,1,0.5]}', "-5", None, None)
        @given(
            spec=st.one_of(
                st.sampled_from(['{"model":"poisson","rates":[2,1,1,0.5]}', POISSON_NULL, MULT_NULL]),
                _null_specs(),
            ),
            k=st.sampled_from([None, "1", "2", "4", "0", "-5", "99", "x"]),
            c=st.sampled_from([None, "0.5", "0", "-1", "nan", "inf", "1e308"]),
            big_c=st.sampled_from([None, "3", "1", "nan", "inf", "1e308"]),
        )
        def run(spec, k, c, big_c):
            argv = ["verify", "flattening", "--null", spec]
            for flag, value in (("--k", k), ("--c", c), ("--big-c", big_c)):
                argv += [] if value is None else [flag, value]
            _exit_code(argv)

        run()

    def test_fuzzed_eta_and_alpha_rule(self, tmp_path):
        """``--eta`` on ``test`` and ``risk``, and ``sweep --alpha-rule``."""
        poisson_data = tmp_path / "poisson.csv"
        poisson_data.write_text("1,1,1\n")
        multinomial_data = tmp_path / "multinomial.csv"
        multinomial_data.write_text("25,15,10\n")
        number = st.sampled_from(["0.1", "1", "0", "-1", "nan", "inf", "1e308", "5e-324", "x"])

        @settings(max_examples=150, derandomize=True, deadline=None, database=None)
        # A subnormal eta once ended the multinomial head test in a ZeroDivisionError traceback.
        @example("test", MULT_NULL, "5e-324")
        @given(
            command=st.sampled_from(["test", "risk", "sweep"]),
            spec=st.sampled_from([POISSON_NULL, MULT_NULL, '{"model":"poisson","rates":[1e300,1]}']),
            value=st.one_of(number, st.sampled_from(["log_p", "loglog_p"])),
        )
        def run(command, spec, value):
            argv = [command, "--null", spec]
            if command == "test":
                data = multinomial_data if spec == MULT_NULL else poisson_data
                argv += ["--data", str(data), "--eta", value]
            elif command == "risk":
                argv += ["--c", "0.5", "--trials", "100", "--eta", value]
            else:
                argv += ["--trials", "100", "--alpha-rule", value]
            _exit_code(argv)

        run()

    @pytest.mark.parametrize("model", ["poisson", "multinomial"])
    @pytest.mark.parametrize(
        "text",
        ["nan,1,1\n", "1,1,1\ninf,1,1\n", "1,1,1\n1e400,1,1\n", "1,1,1\n9223372036854775808,1,1\n",
         "1,-1,1\n", "a,b,c\n", "", "1,1,1\n1,1\n", "1,1,1,1\n2,2\n"],
        ids=["nan", "inf", "1e400", "2^63", "negative", "header-only", "empty", "ragged", "ragged-wide"],
    )
    def test_malformed_csv_contents(self, tmp_path, model, text):
        data = tmp_path / "counts.csv"
        data.write_text(text)
        null = POISSON_NULL if model == "poisson" else MULT_NULL
        assert _exit_code(["test", "--null", null, "--data", str(data)]) == 2
