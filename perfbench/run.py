"""Benchmark of gaussvox: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload splat-paper --seed 1 --seconds 10 --trace 0

Inputs are generated from the seed into perfbench/out/<workload>-<seed>/.
Set-up time comes from fresh interpreters that import gaussvox and read the
inputs; the operations run in one more such interpreter, which reads its
own peak resident memory after an untimed first operation.  Outputs are
checked against a float64 reference that shares no code with the program.
With ``--trace 1`` every second timed operation runs with spans installed
and a separate pass takes each span's tracemalloc peak; the run then prints
the per-layer metrics instead of the end-to-end ones.

Progress and faults go to stderr; the last stdout line is the result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170


def spawn(job: dict) -> tuple[float, dict]:
    """Run a worker; return seconds from its start to ``ready`` and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker {job['role']} failed with exit code {proc.returncode}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        gv = workloads.load_program()
    except ImportError as e:
        log(f"cannot import the program: {e}")
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = workloads.OUT / f"{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload.generate(gv, np.random.default_rng([args.seed, 0]), workdir)
    check_rng = np.random.default_rng([args.seed, 1])
    job = {"workload": workload.name, "workdir": str(workdir), "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    faults = []

    if isinstance(workload, workloads.FitWorkload):
        rel, ok, base_s = workload.gradient_check(gv, workdir, check_rng)
        log(f"gradient check: relative error {rel:.3g}, h = {workload.h}")
        if not ok:
            faults.append(f"gradient check failed: relative error {rel:.3g}")
        job["timed_per_scene"] = workload.timed_per_scene(args.seconds, base_s)

    setup_s = []
    if not args.trace:
        setup_s = [spawn(dict(job, role="setup"))[0] for _ in range(SETUP_PROBES)]
    ready_s, result = spawn(dict(job, role="run"))
    setup_s.append(ready_s)
    failed, check_faults = workload.check(gv, workdir, result, check_rng)
    faults += check_faults
    for fault in faults:
        log(f"FAULT: {fault}")

    untraced = [t for t, traced in zip(result["op_s"], result["traced"]) if not traced]
    traced = [t for t, on in zip(result["op_s"], result["traced"]) if on]
    log(f"op seconds: {['%.3f' % t for t in result['op_s']]} traced: {result['traced']}")
    if args.trace:
        _, memory = spawn(dict(job, role="memory"))
        layers = spans.layer_metrics(result["span_ops"], memory["peaks_mb"], traced, untraced)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {
            "op_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_mb": {"value": result["peak_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        }
    shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps({"correct": not faults, "attempted": len(failed),
                       "failed": sum(failed), "metrics": metrics})
    result_path = workloads.OUT / f"result-{workload.name}-{args.seed}-trace{args.trace}.json"
    result_path.write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
