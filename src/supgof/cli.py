"""Command-line entry point.

Subcommands: ``rate``, ``test``, ``prior``, ``verify``, ``risk``, ``sweep``.
Exit codes: 1 configuration error (a malformed command line included),
2 data error, 3 numeric failure.  Output files are written atomically (temp
file then rename).  JSON floats are printed as their shortest round-trip
repr, lossless; CSV floats carry 17 significant digits, also lossless.  Each
subcommand imports only the modules it runs: ``rate`` and ``test`` never
load :mod:`supgof.priors` or :mod:`supgof.risk`, and so never load scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .maxtest import (
    MultinomialTestConfig,
    PoissonTestConfig,
    multinomial_combined_test,
    poisson_max_test,
)
from .model import DENSE_RATES_CAP, RateVector, SimplexVector, read_counts_csv, sample_size_value
from .rates import _multinomial_profile, _poisson_profile
from .special import AtomBudgetError, SolverError

CSV_SCHEMA_LINE = "# schema=1"


class ConfigError(Exception):
    """Invalid or incomplete configuration (exit code 1)."""


class DataError(Exception):
    """Unreadable or malformed input data (exit code 2)."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _builtin(obj):
    """``json.dumps`` fallback for numpy integers, floats and arrays.

    A ``float64`` is a ``float`` and never reaches here: json writes every
    float as its shortest round-trip repr.
    """
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(obj) -> str:
    return json.dumps(obj, default=_builtin)


def _atomic_write(path: str, text: str) -> None:
    """Write through a temp file beside ``path`` and a rename.  A path that
    cannot be written (a missing directory, a directory) is a config error,
    and no temp file is left behind either way."""
    target = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text: str, out: str | None, summary: str) -> None:
    if out:
        _atomic_write(out, text)
        print(summary)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _holds_bool(value) -> bool:
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))  # one C-level pass over a long list of numbers
    return bool in kinds or (list in kinds and any(_holds_bool(v) for v in value if type(v) is list))


def _numeric_field(payload: dict, field: str):
    """``payload[field]``; a JSON boolean there, or in its (nested) lists, is
    a ``TypeError``, since Python would read ``true`` as the number 1."""
    value = payload[field]
    if _holds_bool(value):
        raise TypeError(f'field "{field}" holds a boolean, not a number')
    return value


def _null_vector(payload: dict, cls, field: str):
    """The ``field`` values (``rates`` or ``probs``), or the ``[value, count]``
    runs, of a null spec, as ``cls``."""
    if "runs" not in payload:
        return cls(np.asarray(_numeric_field(payload, field), dtype=float))
    if field in payload:
        raise ConfigError(f'a {payload["model"]} null spec gives "{field}" or "runs", not both')
    runs = np.asarray(_numeric_field(payload, "runs"), dtype=float)
    if runs.ndim != 2 or runs.shape[1] != 2:
        raise ValueError('"runs" must be a list of [value, count] pairs')
    return cls.from_runs(runs[:, 0], runs[:, 1])


def _read_spec(spec: str, what: str):
    """The JSON value of a ``what`` spec: inline JSON when ``spec`` starts with
    ``{`` or ``[``, else the path of a UTF-8 JSON file.  A spec that cannot be
    read (missing, a directory, not UTF-8) or parsed is a data error."""
    try:
        return json.loads(spec if spec.lstrip().startswith(("{", "[")) else Path(spec).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"{what} spec not found: {spec}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} spec {spec}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} spec {spec} is not UTF-8 text: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} spec is not valid JSON: {exc}") from exc


def _load_null(spec: str | None):
    """Null spec, read by :func:`_read_spec`.

    Schema: ``{"model": "poisson"|"multinomial", "rates"|"probs": [...],
    "n": number}`` (``n`` for the multinomial model only).  A null may give
    ``"runs": [[value, count], ...]`` in place of ``"rates"`` or ``"probs"``:
    each count an integer (an integral float up to 2^53 included), for nulls
    too large to list; :mod:`supgof.model` caps the dense values built from
    them.  A missing, malformed or boolean field is a config error.
    """
    if not spec:
        raise ConfigError("missing required field: --null")
    payload = _read_spec(spec, "null")
    if not isinstance(payload, dict):
        raise DataError("null spec must be a JSON object")
    model = payload.get("model")
    try:
        if model == "poisson":
            return "poisson", _null_vector(payload, RateVector, "rates"), None
        if model == "multinomial":
            if "n" not in payload:
                raise ConfigError("missing required field: n (multinomial null)")
            return (
                "multinomial",
                _null_vector(payload, SimplexVector, "probs"),
                sample_size_value(float(_numeric_field(payload, "n"))),  # float(): n may be a numeric string
            )
    except KeyError as exc:
        raise ConfigError(f"missing required field in null spec: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid null spec: {exc}") from exc
    raise ConfigError('null spec field "model" must be "poisson" or "multinomial"')


def _cmd_rate(args) -> None:
    model, null, n = _load_null(args.null)
    # Up to the dense cap each cell is a run of its own, so "terms" holds one
    # term per cell; past it, one [value, count, term at its end] per run.
    per_cell = null.p <= DENSE_RATES_CAP
    ones = np.broadcast_to(1, null.p)  # a view: no array of p counts
    values, counts = ((null.rates if model == "poisson" else null.probs), ones) if per_cell else null.runs
    profile = _poisson_profile(values, counts) if model == "poisson" else _multinomial_profile(values, counts, n)
    payload = profile.to_dict()
    if not per_cell:
        first = 0 if model == "poisson" else 1  # the multinomial terms start after the head
        payload["terms"] = [list(run) for run in zip(values[first:].tolist(), counts[first:].tolist(), payload["terms"])]
    _emit(_dump_json(payload) + "\n", args.out, f"rate: epsilon_star={_fmt(profile.epsilon_star)}")


def _cmd_test(args) -> None:
    model, null, n = _load_null(args.null)
    if args.model and args.model != model:
        raise ConfigError(f"--model {args.model} disagrees with the null spec model {model}")
    if not args.data:
        raise ConfigError("missing required field: --data")
    # A runs null past DENSE_RATES_CAP raises its config error here, before the data is read.
    null.rates if model == "poisson" else null.probs
    try:
        table = read_counts_csv(args.data, p_expected=null.p)
    except (OSError, ValueError) as exc:
        raise DataError(f"bad data file {args.data}: {exc}") from exc
    if model == "poisson":
        d = poisson_max_test(table, null, PoissonTestConfig.from_eta(null, args.eta))
    else:
        sums = table.sum(axis=1)
        bad = np.flatnonzero(sums != n)
        if bad.size:
            row = int(bad[0])
            raise DataError(f"bad data file {args.data}: data row {row + 1} sums to {sums[row]}, not n = {_fmt(n)}")
        d = multinomial_combined_test(table, null, n, MultinomialTestConfig.from_eta(null, n, args.eta))
    # One json.dumps per column: each row is the dict json.dumps would write.
    columns = (json.dumps(col.tolist())[1:-1].split(", ") for col in (d.statistic, d.threshold, d.label))
    lines = [f'{{"statistic": {s}, "threshold": {t}, "decision": {c}}}' for s, t, c in zip(*columns)]
    n_reject = int(np.count_nonzero(d.reject))
    _emit("\n".join(lines) + "\n", args.out, f"test: {n_reject}/{len(table)} rejections at eta={args.eta}")


def _lower_bound_prior(model: str, null, n, c: float | None, big_c: float = math.e):
    """The spike prior of scale ``c`` (required) and log constant ``big_c`` on a
    poisson null; the simplex prior of scale ``c`` (certified if None) on a multinomial one."""
    from .priors import MultinomialSimplexPrior, PoissonSpikePrior, certified_simplex_c

    if model == "poisson":
        if c is None:
            raise ConfigError("missing required field: --c (spike scale for a poisson null)")
        return PoissonSpikePrior.build(null, c, big_c)
    return MultinomialSimplexPrior.build(null, n, c if c is not None else certified_simplex_c(null, n))


def _cmd_prior(args) -> None:
    from .priors import draw_multinomial_simplex_prior, draw_poisson_spike

    model, null, n = _load_null(args.null)
    prior = _lower_bound_prior(model, null, n, args.c, args.big_c)
    if model == "poisson":
        field, draws = "rates", draw_poisson_spike(prior, args.seed, trials=args.trials)
        summary = f"prior: {args.trials} spike draws (j_star={prior.j_star}, psi={_fmt(prior.psi)})"
    else:
        field, draws = "probs", draw_multinomial_simplex_prior(prior, args.seed, trials=args.trials)
        summary = f"prior: {args.trials} simplex draws (j_star={prior.j_star}, m={prior.m})"
    _emit("\n".join(_dump_json({field: row.tolist()}) for row in draws) + "\n", args.out, summary)


def _cmd_verify(args) -> None:
    from .priors import verify_flattening

    model, null, n = _load_null(args.null)
    if model != "poisson":
        raise ConfigError("verify flattening needs a poisson null spec")
    prior = _lower_bound_prior(model, null, n, args.c, args.big_c)
    weights, rows = prior.components()
    k = args.k if args.k is not None else prior.j_star
    if not 1 <= k <= null.p:
        raise ConfigError(f"k must lie in [1, {null.p}], got {k!r}")
    underline = float(null.rates[k - 1])
    report = verify_flattening(null, list(zip(weights, rows)), k, underline)
    _emit(
        _dump_json(report.to_dict()) + "\n",
        args.out,
        f"verify flattening: lhs={_fmt(report.lhs.value)} rhs={_fmt(report.rhs_head.value + report.rhs_tail.value)} ok={report.ok}",
    )


def _load_alternative(args, model: str, null, n):
    """The ``--alt`` spec (:func:`_read_spec`): an array, or an object whose ``rates``
    or ``probs`` field holds one, a missing field or a boolean being a config error
    as in a null spec.  With no ``--alt``, the model's :func:`_lower_bound_prior`."""
    if not args.alt:
        return _lower_bound_prior(model, null, n, args.c)
    payload = _read_spec(args.alt, "alternative")
    field = "rates" if model == "poisson" else "probs"
    if not isinstance(payload, dict):  # a bare array stands for the field
        payload = {field: payload}
    try:
        return np.asarray(_numeric_field(payload, field), dtype=float)
    except KeyError as exc:
        raise ConfigError(f"missing required field in alternative spec: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid alternative spec: {exc}") from exc


def _cmd_risk(args) -> None:
    from .risk import estimate_multinomial_risk, estimate_poisson_risk

    model, null, n = _load_null(args.null)
    alternative = _load_alternative(args, model, null, n)
    if model == "poisson":
        est = estimate_poisson_risk(null, alternative, args.eta, args.trials, args.seed)
    else:
        est = estimate_multinomial_risk(
            null, n, alternative, args.eta, args.trials, args.seed, poissonized=args.poissonized
        )
    payload = {
        "type1": est.type1,
        "type2": est.type2,
        "total": est.total,
        "ci": est.ci_halfwidth,
        "trials": args.trials,  # as requested; an exact result (ci 0) draws none
        "seed": est.seed,
    }
    _emit(_dump_json(payload) + "\n", args.out, f"risk: total={_fmt(est.total)} +/- {_fmt(est.ci_halfwidth)}")


def _sweep_csv(result) -> str:
    cols = ["xi", "epsilon", "type1", "type2", "total", "ci", "trials", "seed", "regime"]
    lines = [CSV_SCHEMA_LINE, ",".join(cols)]
    for row in result.rows():
        lines.append(",".join(_fmt(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _cmd_sweep(args) -> None:
    from .risk import sweep_multinomial_sharp_constant, sweep_sharp_constant

    model, null, n = _load_null(args.null)
    try:
        xi_grid = [float(v) for v in args.xi_grid.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --xi-grid: {exc}") from exc
    if not xi_grid:
        raise ConfigError("missing required field: --xi-grid")
    p = null.p
    if args.alpha_rule == "log_p":
        alpha_p = math.log(max(p, 3))
    elif args.alpha_rule == "loglog_p":
        alpha_p = math.log(math.log(max(p, 16)))
    else:
        try:
            alpha_p = float(args.alpha_rule)
        except ValueError as exc:
            raise ConfigError(f"bad --alpha-rule: {args.alpha_rule}") from exc
    if model == "poisson":
        result = sweep_sharp_constant(null, xi_grid, alpha_p, args.trials, args.seed)
    else:
        result = sweep_multinomial_sharp_constant(
            null, n, xi_grid, alpha_p, args.trials, args.seed, poissonized=args.poissonized
        )
    if args.format == "json":
        text = "\n".join(_dump_json(r) for r in result.rows()) + "\n"
    else:
        text = _sweep_csv(result)
    totals = ", ".join(_fmt(r["total"]) for r in result.rows())
    _emit(text, args.out, f"sweep: totals [{totals}] over xi [{args.xi_grid}]")


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="supgof", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    def common(sp, *, seed=False, eta=False):
        sp.add_argument("--null", help="null spec: JSON file path or inline JSON")
        sp.add_argument("--out", help="output path (atomic write); stdout if omitted")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if eta:
            sp.add_argument("--eta", type=float, default=0.1)

    sp = sub.add_parser(
        "rate", help="print the local separation-rate profile, at any p; its terms are one per cell, or past "
        "DENSE_RATES_CAP cells one [value, count, term at the run's end] per run"
    )
    common(sp)

    sp = sub.add_parser("test", help="run the goodness-of-fit test on CSV count rows")
    common(sp, eta=True)
    sp.add_argument("--model", choices=["poisson", "multinomial"])
    sp.add_argument("--data", help="CSV of counts, one row per replicate")

    sp = sub.add_parser("prior", help="emit lower-bound prior draws as JSON lines")
    common(sp, seed=True)
    sp.add_argument(
        "--c", type=float, default=None, help="spike scale (poisson: required; multinomial: defaults to certified)"
    )
    sp.add_argument("--big-c", type=float, default=math.e, help="log constant C >= e")
    sp.add_argument("--trials", type=int, default=10)

    sp = sub.add_parser("verify", help="verify a structural inequality exactly")
    sp.add_argument("target", choices=["flattening"])
    common(sp)
    sp.add_argument("--c", type=float, default=0.2)
    sp.add_argument("--big-c", type=float, default=math.e)
    sp.add_argument("--k", type=int, default=None)

    sp = sub.add_parser(
        "risk", help="risk of the implemented test, computed exactly"
    )
    common(sp, seed=True, eta=True)
    sp.add_argument("--alt", help="alternative: JSON file or inline array")
    sp.add_argument("--c", type=float, default=None, help="prior spike scale when no --alt (poisson: required)")
    sp.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="at least 100; validated and echoed, unused: every risk route is exact",
    )
    sp.add_argument("--poissonized", action="store_true")

    sp = sub.add_parser("sweep", help="sharp-constant risk sweep over xi")
    common(sp, seed=True)
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("--xi-grid", default="0.5,1.0,2.0")
    sp.add_argument("--alpha-rule", default="log_p", help='"log_p", "loglog_p", or a float')
    sp.add_argument(
        "--trials",
        type=int,
        default=10_000,
        help="at least 1; validated, unused: every sweep row is exact",
    )
    sp.add_argument("--poissonized", action="store_true")
    return parser


_HANDLERS = {
    "rate": _cmd_rate,
    "test": _cmd_test,
    "prior": _cmd_prior,
    "verify": _cmd_verify,
    "risk": _cmd_risk,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _HANDLERS[args.mode](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, AtomBudgetError, OverflowError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
