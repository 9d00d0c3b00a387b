"""The four benchmark workloads: seeded inputs, set-up, and the fixed job.

Inputs are made here from the workload seed alone and written to files, so
the program receives only generated inputs.  Input generation uses numpy and
no supgof code.  ``setup`` and the job functions run in the worker process;
they reach supgof through module attributes (``m.risk.sweep_sharp_constant``)
so that the traced run sees every call.

Why these workloads (each stresses layers the others leave idle):

* ``sweep-poisson``: the phase-transition sweep.  Poisson sampling dominates,
  then ``h_inverse``; the decaying null keeps flat-rate shortcuts honest.
* ``risk-multinomial``: the multinomial sweep.  The sequential-binomial loop
  dominates; fixed-n and Poissonized runs use the same layers differently.
* ``cli-test``: the practitioner path, one process per call.  Import cost,
  CSV parsing, scalar decisions and a 2e5-element ``h_inverse`` via ``rate``.
* ``exact-bounds``: the certified exact routes (spike DP, dense enumeration,
  certificates).  No sampling, no CLI.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

WORKLOADS = ("sweep-poisson", "risk-multinomial", "cli-test", "exact-bounds")
# Seeds below this were used while the benchmark was tuned; seeds at or above
# it are held out, so a claimed gain can be re-checked on data it never saw.
HELD_OUT_SEEDS = 1_000_000

SIZES = {
    False: {
        "sweep-poisson": {"p": 10_000, "trials": 100},
        "risk-multinomial": {"p": 1_000, "n": 100_000.0, "trials": 500},
        "cli-test": {"rows": 500, "cols": 100, "rate_p": 100_000},
        "exact-bounds": {"tv_k": [12, 30, 50, 70], "c_p": [8, 16, 32], "cert_points": 25},
    },
    True: {  # smoke: every layer still runs, in about a second per job
        "sweep-poisson": {"p": 300, "trials": 100},
        "risk-multinomial": {"p": 100, "n": 10_000.0, "trials": 100},
        "cli-test": {"rows": 40, "cols": 100, "rate_p": 2_000},
        "exact-bounds": {"tv_k": [12, 30], "c_p": [8], "cert_points": 5},
    },
}

XI_GRID = [0.5, 1.0, 2.0]
FLATTEN_C = 0.25
CERT_ETA = 0.5
CLI_ETA = 0.1
# A CLI call that does no work: the fixed cost every invocation pays.
NOOP_NULL = '{"model": "poisson", "rates": [3.0, 2.0, 1.0]}'
MODULES = {
    "sweep-poisson": ("model", "risk"),
    "risk-multinomial": ("model", "risk"),
    "cli-test": (),
    "exact-bounds": ("model", "rates", "special", "divergence", "priors"),
}


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload))


def _record(path: Path, rows: int, cols: int) -> dict:
    return {"file": path.name, "rows": rows, "cols": cols, "bytes": path.stat().st_size}


def make_inputs(workload: str, seed: int, smoke: bool, workdir: Path) -> tuple[dict, list[dict]]:
    """Write the workload's inputs under ``workdir``; return (params, input records)."""
    size = SIZES[smoke][workload]
    rng = np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))
    params: dict = {"workload": workload, "seed": seed, "size": size, "xi": XI_GRID}
    records = []
    if workload == "sweep-poisson":
        p = size["p"]
        j = np.arange(1, p + 1, dtype=float)
        nulls = {
            "flat-1": np.ones(p).tolist(),
            "flat-log2": np.full(p, (1.0 + math.log(p)) ** 2).tolist(),
            "decay": (1.0 + 100.0 / np.sqrt(j)).tolist(),
        }
        path = workdir / "nulls.json"
        _write_json(path, nulls)
        records.append(_record(path, len(nulls), p))
        params.update(nulls=str(path), alpha=math.log(p), sweep_seed=seed)
    elif workload == "risk-multinomial":
        p = size["p"]
        het = np.arange(1, p + 1, dtype=float) ** -0.5
        nulls = {"flat": np.full(p, 1.0 / p).tolist(), "het": (het / het.sum()).tolist()}
        path = workdir / "nulls.json"
        _write_json(path, nulls)
        records.append(_record(path, len(nulls), p))
        params.update(
            nulls=str(path),
            alpha=math.log(p),
            sweep_seed=seed,
            runs=[["flat", False], ["flat", True], ["het", False]],
        )
    elif workload == "cli-test":
        rows, cols = size["rows"], size["cols"]
        planted = rng.random(rows) < 0.1
        mu = np.sort(np.exp(rng.uniform(math.log(2.0), math.log(60.0), cols)))[::-1]
        x = rng.poisson(mu, size=(rows, cols))
        x[planted, rng.integers(0, cols, size=int(planted.sum()))] += 80
        q = np.sort(rng.uniform(0.5, 1.5, cols))[::-1]
        q /= q.sum()
        n = 10_000
        y = rng.multinomial(n, q, size=rows)
        shift = np.zeros_like(y)
        shift[planted, rng.integers(1, cols, size=int(planted.sum()))] = 100
        y = y + shift
        y[:, 0] -= shift.sum(axis=1)  # rows still sum to n
        rates = np.sort(np.exp(rng.uniform(0.0, math.log(1e4), size["rate_p"])))[::-1]
        rates[0], rates[-1] = 1e4, 1.0
        files = {
            "poisson_null": ({"model": "poisson", "rates": mu.tolist()}, 1, cols),
            "multinomial_null": ({"model": "multinomial", "probs": q.tolist(), "n": n}, 1, cols),
            "rate_null": ({"model": "poisson", "rates": rates.tolist()}, 1, size["rate_p"]),
        }
        for name, (payload, r, c) in files.items():
            path = workdir / f"{name}.json"
            _write_json(path, payload)
            records.append(_record(path, r, c))
            params[name] = str(path)
        for name, table in (("poisson_data", x), ("multinomial_data", y)):
            path = workdir / f"{name}.csv"
            header = ",".join(f"c{i + 1}" for i in range(cols))
            np.savetxt(path, table, fmt="%d", delimiter=",", header=header, comments="")
            records.append(_record(path, rows, cols))
            params[name] = str(path)
        params["eta"] = CLI_ETA
    elif workload == "exact-bounds":
        jitter = lambda base: np.sort(np.asarray(base) * (1.0 + 0.02 * rng.uniform(-1, 1, len(base))))[::-1]
        grid = np.unique(np.logspace(2, 8, size["cert_points"]).astype(np.int64))
        designs = {
            # The 5-coordinate null is fixed: its ~1e6 dense atoms, and so the
            # run's time and peak memory, must not depend on the seed.
            "flatten": [jitter([3.0, 1.5, 1.0]).tolist(), [3.0, 2.2, 1.6, 1.2, 1.0]],
            "tv_k": size["tv_k"],
            "c_p": size["c_p"],
            "cert_p": grid.tolist(),
        }
        path = workdir / "designs.json"
        _write_json(path, designs)
        records.append(_record(path, 4, max(len(v) for v in designs.values())))
        params.update(designs=str(path), flatten_c=FLATTEN_C, cert_eta=CERT_ETA)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return params, records


def import_modules(workload: str) -> SimpleNamespace:
    return SimpleNamespace(
        **{name: importlib.import_module(f"supgof.{name}") for name in MODULES[workload]}
    )


def setup(params: dict) -> tuple[SimpleNamespace, dict]:
    """Import the supgof modules the workload uses and build its nulls and priors."""
    workload = params["workload"]
    m = import_modules(workload)
    state: dict = {}
    if workload == "sweep-poisson":
        nulls = json.loads(Path(params["nulls"]).read_text())
        state["nulls"] = {k: m.model.RateVector(np.asarray(v)) for k, v in nulls.items()}
    elif workload == "risk-multinomial":
        nulls = json.loads(Path(params["nulls"]).read_text())
        state["nulls"] = {k: m.model.SimplexVector(np.asarray(v)) for k, v in nulls.items()}
    elif workload == "exact-bounds":
        d = json.loads(Path(params["designs"]).read_text())
        state["tv_nulls"] = {k: m.model.RateVector(np.ones(k)) for k in d["tv_k"]}
        state["c_nulls"] = {p: m.model.RateVector(np.ones(p)) for p in d["c_p"]}
        flatten = []
        for rates in d["flatten"]:
            mu = m.model.RateVector(np.asarray(rates))
            flatten.append((mu, m.priors.PoissonSpikePrior.build(mu, params["flatten_c"])))
        state["flatten"] = flatten
        state["cert_p"] = d["cert_p"]
    return m, state


def _op(name: str, fn) -> dict:
    """One operation; an exception is recorded, never raised."""
    try:
        return {"op": name, "error": None, "out": fn()}
    except Exception as exc:  # the benchmark keeps going and counts the failure
        return {"op": name, "error": f"{type(exc).__name__}: {exc}", "out": None}


def job_sweep_poisson(m, state: dict, params: dict) -> list[dict]:
    ops = []
    for label, mu in state["nulls"].items():
        def run(mu=mu):
            res = m.risk.sweep_sharp_constant(
                mu, params["xi"], params["alpha"], params["size"]["trials"], params["sweep_seed"]
            )
            return {"rows": res.rows()}
        ops.append(_op(f"sweep:{label}", run))
    return ops


def job_risk_multinomial(m, state: dict, params: dict) -> list[dict]:
    ops = []
    n, trials = params["size"]["n"], params["size"]["trials"]
    for label, poissonized in params["runs"]:
        def run(q0=state["nulls"][label], poissonized=poissonized):
            res = m.risk.sweep_multinomial_sharp_constant(
                q0, n, params["xi"], params["alpha"], trials, params["sweep_seed"],
                poissonized=poissonized,
            )
            return {"rows": res.rows()}
        ops.append(_op(f"sweep:{label}:{'poissonized' if poissonized else 'fixed-n'}", run))
    return ops


def job_exact_bounds(m, state: dict, params: dict) -> list[dict]:
    ops = []
    for k, mu in state["tv_nulls"].items():
        def tv(mu=mu, k=k):
            eps, j_star = m.rates.sharp_constant_epsilon(mu, math.log(k), 0.5)
            res = m.divergence.tv_poisson_uniform_spike(1.0, eps, j_star)
            return {"nu": 1.0, "eps": eps, "k": j_star, "tv": res.value, "error_bar": res.error_bar}
        ops.append(_op(f"tv_spike:p={k}", tv))
    for p, mu in state["c_nulls"].items():
        def cert_c(mu=mu, p=p):
            c, risk = m.priors.certified_poisson_spike_c(mu, params["cert_eta"])
            return {"p": p, "c": c, "risk": risk}
        ops.append(_op(f"certified_c:p={p}", cert_c))
    for mu, prior in state["flatten"]:
        def flat(mu=mu, prior=prior):
            weights, rows = prior.components()
            k = prior.j_star
            report = m.priors.verify_flattening(mu, list(zip(weights, rows)), k, float(mu.rates[k - 1]))
            return {"rates": mu.rates.tolist(), "k": k, "spike": prior.spike, **report.to_dict()}
        ops.append(_op(f"flattening:p={mu.p}", flat))
    for p in state["cert_p"]:
        def cert(p=p):
            mu_val = (1.0 + math.log(p)) ** 2
            arg = 1.0 + math.log(p) + math.log(math.log(p)) + 2.0 * math.log1p(math.log(p))
            eps = 0.5 * mu_val * m.special.h_inverse(arg / mu_val)
            c = m.divergence.certified_spike_risk_bound(mu_val, eps, mu_val + 2.0 * eps, p)
            return {"p": p, "nu": mu_val, "eps": eps, "cap": mu_val + 2.0 * eps,
                    "risk_lower_bound": c.risk_lower_bound, "tv_upper_bound": c.tv_upper_bound,
                    "conditional_chisq": c.conditional_chisq}
        ops.append(_op(f"certificate:p={p}", cert))
    return ops


def cli_calls(params: dict) -> list[tuple[str, list[str]]]:
    """The three CLI invocations of one ``cli-test`` job."""
    eta = str(params["eta"])
    return [
        ("test:poisson", ["test", "--null", params["poisson_null"], "--data", params["poisson_data"], "--eta", eta]),
        ("test:multinomial", ["test", "--null", params["multinomial_null"], "--data", params["multinomial_data"], "--eta", eta]),
        ("rate:heterogeneous", ["rate", "--null", params["rate_null"]]),
    ]


def child_env() -> dict:
    """Environment of every benchmark child: single-threaded math, supgof from src/."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


JOBS = {
    "sweep-poisson": job_sweep_poisson,
    "risk-multinomial": job_risk_multinomial,
    "exact-bounds": job_exact_bounds,
}
