"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py          (or: python3 -m pytest -q bench/selftest.py)

* every workload runs in smoke mode, traced and untraced, and prints every
  metric named in BENCHMARK.json with its unit;
* every oracle accepts the program's real outputs and rejects a perturbed copy;
* self-time arithmetic on a synthetic span tree;
* outside a checkout the benchmark exits non-zero without a result.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from worker import CliJob  # noqa: E402


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_smoke_every_workload_prints_every_metric():
    cfg = _config()
    assert [w["name"] for w in cfg["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines = _run(workload, trace)
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[0]
            want = {m["name"]: m["unit"] for m in cfg[key]}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == want
            for name, unit in want.items():
                assert any(l.startswith(f"{name} = ") and l.endswith(f" {unit}") for l in lines), name
            assert any(l.startswith("fail_rate = ") and "ops = " in l for l in lines)


def _outputs(workload: str, workdir: Path) -> tuple[dict, list[dict]]:
    params, _ = workloads.make_inputs(workload, 5, True, workdir)
    if workload == "cli-test":
        ops, _ = CliJob(params, workdir)()
    else:
        m, state = workloads.setup(params)
        ops = workloads.JOBS[workload](m, state, params)
    return params, ops


def _flip(p: float) -> float:
    return p + 0.45 if p < 0.5 else p - 0.45


def _rewrite(out: dict, edit) -> None:
    path = Path(out["stdout_file"])
    path.write_text(edit(path.read_text()))


def _flip_first_decision(text: str) -> str:
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec["decision"] = "accept" if rec["decision"] == "reject" else "reject"
    return "\n".join([json.dumps(rec)] + lines[1:]) + "\n"


def _scale_term(text: str) -> str:
    prof = json.loads(text)
    prof["terms"][5] *= 1.001
    return json.dumps(prof)


# (workload, op prefix, perturbation of that op's output); one per oracle.
PERTURBATIONS = [
    ("sweep-poisson", "sweep:decay", lambda o: o["rows"][1].update(type2=_flip(o["rows"][1]["type2"]))),
    ("sweep-poisson", "sweep:flat-1", lambda o: o["rows"][0].update(epsilon=o["rows"][0]["epsilon"] * 1.001)),
    ("risk-multinomial", "sweep:het:fixed-n", lambda o: o["rows"][0].update(type1=_flip(o["rows"][0]["type1"]))),
    ("risk-multinomial", "sweep:flat:poissonized", lambda o: o["rows"][1].update(type2=_flip(o["rows"][1]["type2"]))),
    ("cli-test", "test:poisson", lambda o: _rewrite(o, _flip_first_decision)),
    ("cli-test", "test:multinomial", lambda o: _rewrite(o, _flip_first_decision)),
    ("cli-test", "rate:heterogeneous", lambda o: _rewrite(o, _scale_term)),
    ("exact-bounds", "tv_spike:p=12", lambda o: o.update(tv=o["tv"] + 0.01)),
    ("exact-bounds", "certified_c:p=8", lambda o: o.update(risk=o["risk"] + 0.01)),
    ("exact-bounds", "flattening:p=5", lambda o: o.update(lhs_tv=o["lhs_tv"] + 1e-3)),
    ("exact-bounds", "certificate:p=100", lambda o: o.update(risk_lower_bound=o["risk_lower_bound"] + 1e-6)),
]


def test_oracles_accept_real_outputs_and_reject_perturbed_ones():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            params, ops = _outputs(workload, workdir)
            rng = np.random.default_rng(11)
            fails = run.check_outputs(params, ops, rng)
            assert not any(fails.values()), fails
            for w, prefix, perturb in PERTURBATIONS:
                if w != workload:
                    continue
                op = copy.deepcopy(next(o for o in ops if o["op"].startswith(prefix)))
                perturb(op["out"])
                assert run.check_outputs(params, [op], rng)[op["op"]], (workload, prefix)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def test_spike_tv_monte_carlo_oracle():
    from supgof.divergence import tv_poisson_uniform_spike
    from supgof.model import RateVector
    from supgof.rates import sharp_constant_epsilon

    eps, k = sharp_constant_epsilon(RateVector(np.ones(50)), math.log(50), 0.5)
    tv = tv_poisson_uniform_spike(1.0, eps, k)
    out = {"nu": 1.0, "eps": eps, "k": k, "tv": tv.value, "error_bar": tv.error_bar}
    rng = np.random.default_rng(2)
    assert oracles.check_tv_spike(out, 50, rng) == []
    assert oracles.check_tv_spike(dict(out, tv=tv.value + 0.05), 50, rng)


def test_enumerated_tv_matches_brute_force():
    nu, eps, k = 1.0, 1.3, 3
    x = np.arange(40)
    pmf = oracles.poisson_pmf(x, nu)
    grid = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    weight = pmf[grid].prod(axis=1)
    big_l = np.exp(grid * math.log1p(eps / nu) - eps).mean(axis=1)
    brute = float((weight * np.maximum(0.0, 1.0 - big_l)).sum())
    assert abs(oracles.tv_spike_enumerated(nu, eps, k) - brute) < 1e-12


def test_self_time_arithmetic_on_synthetic_tree():
    def span(name, layer, start, end, parent):
        return {"name": name, "layer": layer, "start": start, "end": end,
                "parent": parent, "run": 0, "counts": {}}

    tree = [
        span("job", spans.HARNESS, 0, 1000, -1),
        span("risk.sweep_sharp_constant", "risk", 100, 700, 0),
        span("special.h_inverse", "special", 150, 250, 1),
        span("model.poisson", "model", 300, 600, 1),
        span("cli.process", spans.HARNESS, 700, 950, 0),
        # Children from another process may overlap: covered time counts once.
        span("cli.import", spans.IMPORT, 710, 800, 4),
        span("cli.main", "cli", 790, 900, 4),
    ]
    tree[1]["counts"] = {"points": 3, "trials": 600}
    tree[2]["counts"] = {"elements": 50}
    tree[3]["counts"] = {"draws": 1200}
    assert spans.self_times_ns(tree) == [150, 200, 100, 300, 60, 90, 110]
    m = spans.layer_metrics(tree)
    assert math.isclose(m["risk.self_s"], 200e-9)
    assert math.isclose(m["special.h_inverse.ns_per_element"], 2.0)
    assert math.isclose(m["model.poisson.ns_per_draw"], 0.25)
    assert m["risk.points"] == 3 and m["risk.trials"] == 600
    assert math.isclose(m["trace.unattributed_s"], 210e-9)
    # The overlap double-counts 10 ns of child time, which the gap exposes.
    assert math.isclose(spans.accounting_gap_s(tree, m), -10e-9, abs_tol=1e-15)
    tree[5]["end"] = 790
    assert abs(spans.accounting_gap_s(tree, spans.layer_metrics(tree))) < 1e-15


def test_outside_a_checkout_exits_nonzero_without_result():
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        cmd = _config()["command"] + ["--workload", "sweep-poisson", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
