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
