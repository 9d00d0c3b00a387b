"""Benchmark worker: runs one workload in its own single-threaded process.

    python3 bench/worker.py run SPEC RESULT   # set-up samples, then jobs until the time is up
    python3 bench/worker.py setup SPEC        # one fresh set-up; prints its seconds

``run.py`` writes SPEC and reads RESULT; the worker never checks results
(the oracles in ``oracles.py`` do, in the parent process).  With ``trace``
set, untraced and traced jobs alternate at the same seed, and the traced
outputs must equal the untraced ones.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up samples start here, before numpy and supgof load

import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
import workloads

SETUP_SAMPLES = 4
SHIM = str(Path(__file__).with_name("cli_shim.py"))


def reference_kernel() -> float:
    """Seconds for a fixed mix of numpy sampling, a Python loop and JSON.

    Identical work runs up to a third slower in phases lasting seconds to
    minutes on a shared machine.  Timed before and after each untraced job,
    on the same CPU, this kernel measures the speed the job got;
    ``wall_norm`` divides by it.  Its 16 MB array makes it feel memory
    contention as the sampling jobs do.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    rng.poisson(np.ones(10_000), size=(200, 10_000))
    rng.binomial(np.full(100_000, 1_000), 0.3)
    acc: dict[int, float] = {}
    for k in range(300_000):
        acc[k % 977] = acc.get(k % 977, 0.0) + k * 0.5
    json.loads(json.dumps([float(x) for x in range(60_000)]))
    return time.perf_counter() - start


def _setup_probe(spec_path: str) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "setup", spec_path],
        capture_output=True, text=True, env=workloads.child_env(), check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _cli(argv: list[str], trace_path: str | None = None) -> tuple[int, bytes, str]:
    if trace_path is None:
        cmd = [sys.executable, "-m", "supgof.cli", *argv]
    else:
        cmd = [sys.executable, SHIM, trace_path, *argv]
    proc = subprocess.run(cmd, capture_output=True, env=workloads.child_env())
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")[-500:]


class CliJob:
    """One ``cli-test`` job: three CLI processes, one after another."""

    def __init__(self, params: dict, workdir: Path):
        self.calls = workloads.cli_calls(params)
        self.workdir = workdir
        self.saved = False

    def __call__(self, rec: spans.Recorder | None = None) -> tuple[list[dict], dict]:
        ops, stats = [], {"cli.invocations": 0, "cli.output_bytes": 0, "cli.exit_nonzero": 0}
        root = rec.begin("job", spans.HARNESS) if rec is not None else None
        for i, (name, argv) in enumerate(self.calls):
            trace_path = None
            if rec is not None:
                trace_path = str(self.workdir / f"shim-{i}.json")
                idx = rec.begin("cli.process", spans.HARNESS)
            code, out, err = _cli(argv, trace_path)
            if rec is not None:
                rec.end(idx)
                rec.adopt(json.loads(Path(trace_path).read_text()), idx, run=rec.run * 10 + i)
            stats["cli.invocations"] += 1
            stats["cli.output_bytes"] += len(out)
            stats["cli.exit_nonzero"] += code != 0
            result = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
            if not self.saved:
                path = self.workdir / f"{name.replace(':', '-')}.out"
                path.write_bytes(out)
                result["stdout_file"] = str(path)
            ops.append({"op": name, "error": None if code == 0 else f"exit {code}: {err}", "out": result})
        if rec is not None:
            rec.end(root)
        self.saved = True
        return ops, stats


def _strip(ops: list[dict]) -> str:
    """Canonical form for comparing one job's outputs with another's."""
    return json.dumps([{k: v for k, v in op.items() if k != "out"} | {
        "out": {k: v for k, v in (op["out"] or {}).items() if k != "stdout_file"}} for op in ops],
        sort_keys=True)


def run(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    params, workload = spec["params"], spec["params"]["workload"]
    workdir = Path(spec["workdir"])
    deadline = _T0 + spec["seconds"]
    setup_s: list[float] = []
    if workload == "cli-test":
        job = CliJob(params, workdir)
        for _ in range(0 if spec["trace"] else SETUP_SAMPLES):
            start = time.perf_counter()
            code, _out, err = _cli(["rate", "--null", workloads.NOOP_NULL])
            setup_s.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"no-op CLI call failed: {err}")
    else:
        m, state = workloads.setup(params)
        setup_s.append(time.perf_counter() - _T0)
        if not spec["trace"]:
            setup_s += [_setup_probe(spec_path) for _ in range(SETUP_SAMPLES - 1)]
        fn = workloads.JOBS[workload]

        def job(rec=None):
            if rec is None:
                return fn(m, state, params), {}
            with spans.Tracer(rec):  # patching happens before the root span opens
                idx = rec.begin("job", spans.HARNESS)
                try:
                    return fn(m, state, params), {}
                finally:
                    rec.end(idx)

    first_ops, first_key = None, None
    walls, traced_walls, traced, mismatches, jobs = [], [], [], 0, 0
    all_spans: list[dict] = []
    refs: list[float] = []
    while True:
        round_start = time.perf_counter()
        for is_traced in ((False, True) if spec["trace"] else (False,)):
            rec = spans.Recorder(run=len(traced)) if is_traced else None
            start = time.perf_counter()
            ops, stats = job(rec)
            wall = time.perf_counter() - start
            jobs += 1
            key = _strip(ops)
            if first_ops is None:
                first_ops, first_key = ops, key
                # Peak memory of set-up plus one job: later repeats only add
                # allocator high-water noise, which the seed does not set.
                who = resource.RUSAGE_CHILDREN if workload == "cli-test" else resource.RUSAGE_SELF
                peak_kb = resource.getrusage(who).ru_maxrss
            elif key != first_key:
                mismatches += 1
            if is_traced:
                wall = (rec.spans[0]["end"] - rec.spans[0]["start"]) / 1e9
                traced_walls.append(wall)
                metrics = spans.layer_metrics(rec.spans, stats)
                traced.append({"wall_s": wall, "metrics": metrics,
                               "accounting_gap_s": spans.accounting_gap_s(rec.spans, metrics)})
                all_spans += rec.spans
            else:
                walls.append(wall)
                if not spec["trace"]:
                    if len(walls) == 1:  # after the peak is read; the first call warms up
                        reference_kernel()
                    refs.append(reference_kernel())
        now = time.perf_counter()
        if len(walls) >= (1 if spec["trace"] else 2) and now + (now - round_start) > deadline:
            break
    if traced:
        Path(spec["spans_out"]).write_text("\n".join(json.dumps(s) for s in all_spans) + "\n")
        median_job = sorted(traced, key=lambda t: t["wall_s"])[(len(traced) - 1) // 2]
        median_job["metrics"]["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls)
        )
    result = {
        "setup_s": setup_s,
        "wall_s": walls,
        "reference_s": refs,
        "peak_rss_mb": peak_kb / 1024.0,
        "jobs": jobs,
        "mismatched_jobs": mismatches,
        "ops": first_ops,
        "traced": median_job if traced else None,
    }
    Path(result_path).write_text(json.dumps(result))


def setup_only(spec_path: str) -> None:
    workloads.setup(json.loads(Path(spec_path).read_text())["params"])
    print(repr(time.perf_counter() - _T0))


if __name__ == "__main__":
    if sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "setup":
        setup_only(sys.argv[2])
    else:
        sys.exit(f"unknown worker mode {sys.argv[1]!r}")
