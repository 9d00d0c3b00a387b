"""supgof benchmark: one seeded workload per call, checked against independent oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The workload runs in a single-threaded child
process (``worker.py``) for about S seconds, repeating its fixed job; the
oracles in ``oracles.py`` then check the outputs in this process.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced job with ``--trace 1``.  Lines before it list
every metric with its unit, the environment, the inputs and ``fail_rate``.
``--smoke`` runs the same code at toy size.  Exit code 2 means the supgof
sources are missing from the working directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles
import spans
import workloads

BENCH = Path(__file__).resolve().parent
END_TO_END_UNITS = {"setup_s": "s", "wall_norm": "ref", "peak_rss_mb": "MB"}
HARD_LIMIT_S = 170  # the whole run, oracles included, ends well within 180 s
ORACLE_STREAM = 0x0AC1E  # oracle Monte Carlo uses SeedSequence([seed, ORACLE_STREAM])


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "cpu_model": "unknown",
        "l3_cache": "unknown",
        "git_commit": "unknown",
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
        env["l3_cache"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    head = Path(".git/HEAD")
    if head.is_file():
        ref = head.read_text().strip()
        target = Path(".git") / ref[5:] if ref.startswith("ref: ") else None
        env["git_commit"] = target.read_text().strip() if target and target.is_file() else ref
    return env


def check_outputs(params: dict, ops: list[dict], rng: np.random.Generator) -> dict[str, list[str]]:
    """Oracle failures per operation of the first job (empty list: passed)."""
    workload = params["workload"]
    out: dict[str, list[str]] = {}
    nulls = json.loads(Path(params["nulls"]).read_text()) if "nulls" in params else {}
    for op in ops:
        name = op["op"]
        if op["error"]:
            out[name] = [op["error"]]
            continue
        res = op["out"]
        if workload == "sweep-poisson":
            fails = oracles.check_sweep_poisson(res, np.asarray(nulls[name.split(":")[1]]), params["alpha"])
        elif workload == "risk-multinomial":
            _, label, mode = name.split(":")
            fails = oracles.check_sweep_multinomial(
                res, np.asarray(nulls[label]), params["size"]["n"], params["alpha"],
                mode == "poissonized", rng,
            )
        elif workload == "cli-test":
            text = Path(res["stdout_file"]).read_text()
            if name == "test:poisson":
                fails = oracles.check_cli_poisson(text, params["poisson_null"], params["poisson_data"], params["eta"])
            elif name == "test:multinomial":
                fails = oracles.check_cli_multinomial(text, params["multinomial_null"], params["multinomial_data"], params["eta"])
            else:
                fails = oracles.check_cli_rate(text, params["rate_null"])
        else:
            kind = name.split(":")[0]
            if kind == "tv_spike":
                fails = oracles.check_tv_spike(res, int(name.split("=")[1]), rng)
            elif kind == "certified_c":
                fails = oracles.check_certified_c(res, params["cert_eta"])
            elif kind == "flattening":
                fails = oracles.check_flattening(res, params["flatten_c"])
            else:
                fails = oracles.check_certificate(res)
        out[name] = fails
    return out


def wall_norm(walls: list[float], refs: list[float]) -> float:
    """Median over jobs of the job's time divided by the mean of the reference
    kernels timed just before and just after it.  ``refs[0]`` follows the
    first job, which has no kernel before it and is left out."""
    return statistics.median(w / ((a + b) / 2) for w, a, b in zip(walls[1:], refs, refs[1:]))


def run_worker(spec_path: Path, result_path: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "run", str(spec_path), str(result_path)]
    proc = subprocess.Popen(cmd, env=workloads.child_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the time limit")
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="toy sizes, for the self-tests")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not Path("src/supgof/cli.py").is_file():
        print("error: run from the repository root; src/supgof is missing", file=sys.stderr)
        return 2
    compileall.compile_dir("src", quiet=1)  # set-up is timed with the bytecode cache warm
    # Each CPU of a shared machine slows and speeds up on its own; keep the
    # worker, its children and the reference kernel on one.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    workroot = Path(".bench_work")
    workdir = workroot / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    outdir = Path(".bench_out")
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        params, inputs = workloads.make_inputs(args.workload, args.seed, args.smoke, workdir)
        spec = {
            "params": params,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workdir": str(workdir),
            "spans_out": str(outdir / f"spans-{args.workload}-seed{args.seed}.jsonl"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = run_worker(spec_path, workdir / "result.json", started + HARD_LIMIT_S - 15)

        t_oracle = time.perf_counter()
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, ORACLE_STREAM]))
        failures = check_outputs(params, result["ops"], rng)
        oracle_s = time.perf_counter() - t_oracle
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workroot.is_dir() and not any(workroot.iterdir()):
            workroot.rmdir()

    per_job = len(result["ops"])
    bad_ops = sum(1 for f in failures.values() if f)
    attempted = per_job * result["jobs"]
    failed = min(attempted, bad_ops * result["jobs"] + per_job * result["mismatched_jobs"])
    correct = failed == 0
    if args.trace:
        traced = result["traced"]
        metrics = traced["metrics"]
        units = spans.PER_LAYER_UNITS
        if abs(traced["accounting_gap_s"]) > 1e-6:
            correct = False
            print(f"trace accounting gap {traced['accounting_gap_s']!r} s", file=sys.stderr)
    else:
        metrics = {
            "setup_s": statistics.median(result["setup_s"]),
            "wall_norm": wall_norm(result["wall_s"], result["reference_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_set": "tuning" if args.seed < workloads.HELD_OUT_SEEDS else "held-out",
        "smoke": args.smoke,
        "environment": environment(),
        "inputs": inputs,
        "jobs": result["jobs"],
        "wall_s_samples": result["wall_s"],
        "setup_s_samples": result["setup_s"],
        "reference_s_samples": result["reference_s"],
        "cpu": cpu,
        "ops": per_job,
        "fail_rate": failed / attempted,
        "outputs_repeat_exactly": result["mismatched_jobs"] == 0,
        "oracle_s": oracle_s,
        "failures": {k: v[:3] for k, v in failures.items() if v},
    }
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    if not args.trace:
        print(f"wall_s = {statistics.median(result['wall_s'])!r} s (median of {len(result['wall_s'])} jobs)")
    print(f"fail_rate = {failed / attempted!r} ratio (ops = {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
