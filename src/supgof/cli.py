"""Command-line entry point.

Subcommands: ``rate``, ``test``, ``prior``, ``verify``, ``risk``, ``sweep``.
Exit codes: 1 configuration error (a malformed command line included),
2 data error, 3 numeric failure.  Output
files are written atomically (temp file then rename) and floats are printed
with 17 significant digits so a round trip is lossless.
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

from .divergence import AtomBudgetError
from .maxtest import (
    MultinomialTestConfig,
    PoissonTestConfig,
    multinomial_combined_test,
    poisson_max_test,
)
from .model import RateVector, SimplexVector, read_counts_csv, sample_size_value
from .priors import (
    MultinomialSimplexPrior,
    PoissonSpikePrior,
    certified_simplex_c,
    draw_multinomial_simplex_prior,
    draw_poisson_spike,
    verify_flattening,
)
from .rates import multinomial_rate, poisson_rate
from .risk import (
    estimate_multinomial_risk,
    estimate_poisson_risk,
    sweep_multinomial_sharp_constant,
    sweep_sharp_constant,
)
from .special import SolverError

CSV_SCHEMA_LINE = "# schema=1"


class ConfigError(Exception):
    """Invalid or incomplete configuration (exit code 1)."""


class DataError(Exception):
    """Unreadable or malformed input data (exit code 2)."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(format(float(obj), ".17g"))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj]
    return obj


def _dump_json(obj) -> str:
    return json.dumps(_jsonify(obj))


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None, summary: str) -> None:
    if out:
        _atomic_write(out, text)
        print(summary)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _load_null(spec: str | None):
    """Null spec: path to, or inline, JSON.

    Schema: ``{"model": "poisson"|"multinomial", "rates"|"probs": [...],
    "n": number}`` (``n`` for the multinomial model only).
    """
    if not spec:
        raise ConfigError("missing required field: --null")
    try:
        if spec.strip().startswith("{"):
            payload = json.loads(spec)
        else:
            payload = json.loads(Path(spec).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"null spec not found: {spec}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"null spec is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise DataError("null spec must be a JSON object")
    model = payload.get("model")
    try:
        if model == "poisson":
            return "poisson", RateVector(np.asarray(payload["rates"], dtype=float)), None
        if model == "multinomial":
            if "n" not in payload:
                raise ConfigError("missing required field: n (multinomial null)")
            return (
                "multinomial",
                SimplexVector(np.asarray(payload["probs"], dtype=float)),
                sample_size_value(float(payload["n"])),  # float(): n may be a numeric string
            )
    except KeyError as exc:
        raise ConfigError(f"missing required field in null spec: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid null spec: {exc}") from exc
    raise ConfigError('null spec field "model" must be "poisson" or "multinomial"')


def _cmd_rate(args) -> None:
    model, null, n = _load_null(args.null)
    profile = poisson_rate(null) if model == "poisson" else multinomial_rate(null, n)
    _emit(_dump_json(profile.to_dict()) + "\n", args.out, f"rate: epsilon_star={_fmt(profile.epsilon_star)}")


def _cmd_test(args) -> None:
    model, null, n = _load_null(args.null)
    if args.model and args.model != model:
        raise ConfigError(f"--model {args.model} disagrees with the null spec model {model}")
    if not args.data:
        raise ConfigError("missing required field: --data")
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
    lines = [
        _dump_json({"statistic": stat, "threshold": thr, "decision": label})
        for stat, thr, label in zip(d.statistic, d.threshold, d.label)
    ]
    n_reject = int(np.count_nonzero(d.reject))
    _emit("\n".join(lines) + "\n", args.out, f"test: {n_reject}/{len(table)} rejections at eta={args.eta}")


def _poisson_spike_c(args) -> float:
    if args.c is None:
        raise ConfigError("missing required field: --c (spike scale for a poisson null)")
    return args.c


def _cmd_prior(args) -> None:
    model, null, n = _load_null(args.null)
    lines = []
    if model == "poisson":
        prior = PoissonSpikePrior.build(null, _poisson_spike_c(args), args.big_c)
        draws = draw_poisson_spike(prior, args.seed, trials=args.trials)
        for row in draws:
            lines.append(_dump_json({"rates": list(row)}))
        summary = f"prior: {args.trials} spike draws (j_star={prior.j_star}, psi={_fmt(prior.psi)})"
    else:
        c = args.c if args.c is not None else certified_simplex_c(null, n)
        prior = MultinomialSimplexPrior.build(null, n, c)
        draws = draw_multinomial_simplex_prior(prior, args.seed, trials=args.trials)
        for row in draws:
            lines.append(_dump_json({"probs": list(row)}))
        summary = f"prior: {args.trials} simplex draws (j_star={prior.j_star}, m={prior.m})"
    _emit("\n".join(lines) + "\n", args.out, summary)


def _cmd_verify(args) -> None:
    if args.target != "flattening":
        raise ConfigError(f"unknown verification target: {args.target}")
    model, null, _n = _load_null(args.null)
    if model != "poisson":
        raise ConfigError("verify flattening needs a poisson null spec")
    prior = PoissonSpikePrior.build(null, args.c, args.big_c)
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
    if args.alt:
        try:
            payload = json.loads(args.alt) if args.alt.strip().startswith(("{", "[")) else json.loads(Path(args.alt).read_text())
        except FileNotFoundError as exc:
            raise DataError(f"alternative spec not found: {args.alt}") from exc
        except json.JSONDecodeError as exc:
            raise DataError(f"alternative spec is not valid JSON: {exc}") from exc
        if isinstance(payload, dict):
            payload = payload.get("rates" if model == "poisson" else "probs")
        try:
            return np.asarray(payload, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid alternative spec: {exc}") from exc
    # Default alternative: the relevant lower-bound prior.
    if model == "poisson":
        return PoissonSpikePrior.build(null, _poisson_spike_c(args))
    return MultinomialSimplexPrior.build(null, n, args.c if args.c is not None else certified_simplex_c(null, n))


def _cmd_risk(args) -> None:
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

    sp = sub.add_parser("rate", help="print the local separation-rate profile")
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
