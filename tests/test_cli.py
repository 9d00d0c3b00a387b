"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supgof.cli import main
from supgof.model import RateVector
from supgof.rates import poisson_rate

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
        profile = poisson_rate(RateVector([1.0, 1.0, 1.0]))
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

    def test_null_json_array_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "null.json"
        spec.write_text("[1,2,3]")
        code, _out, err = run_cli(capsys, "rate", "--null", str(spec))
        assert code == 2
        assert "JSON object" in err

    def test_17_digit_floats_round_trip(self, capsys):
        _code, out, _ = run_cli(capsys, "rate", "--null", POISSON_NULL)
        payload = json.loads(out)
        profile = poisson_rate(RateVector([1.0, 1.0, 1.0]))
        assert payload["psi"] == profile.psi  # bit-exact via 17 significant digits


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
        ],
        ids=["n-zero", "n-negative", "n-null", "n-list", "probs-object"],
    )
    def test_bad_null_field_is_config_error(self, tmp_path, capsys, null):
        data = tmp_path / "counts.csv"
        data.write_text("a,b\n5,5\n")
        code, out, err = run_cli(capsys, "test", "--null", null, "--data", str(data))
        assert code == 1
        assert "invalid null spec" in err
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

    def test_bad_alpha_rule_is_config_error(self, capsys):
        code, _o, err = run_cli(
            capsys, "sweep", "--null", POISSON_NULL, "--alpha-rule", "bogus", "--trials", "200"
        )
        assert code == 1

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

    def test_h_inverse_failure_is_exit_3(self, capsys):
        # log(2e)/5e-324 overflows to inf, which no h_inverse output can meet.
        null = '{"model":"poisson","rates":[1,5e-324]}'
        code, out, err = run_cli(capsys, "rate", "--null", null)
        assert code == 3
        assert "h_inverse missed its tolerance" in err
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


@st.composite
def _null_specs(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[1, 2]", "3", "null", '"s"', "{"]))
    model = draw(st.sampled_from(["poisson", "multinomial", "poisson", "multinomial", "gamma", None]))
    spec = {"model": model}
    for key, values in (("rates", _VECTORS), ("probs", _VECTORS), ("n", _VALUES)):
        if draw(st.integers(0, 3)):
            spec[key] = draw(values)
    return json.dumps(spec)


class TestExitCodeContract:
    """Any null spec, however malformed, ends in exit 0 to 3 and never in a traceback.

    The pytest configuration turns a ``RuntimeWarning`` into an error, so a
    spec that warns on its way to an exit code fails here as well.
    """

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
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()

        run()
