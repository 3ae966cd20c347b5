"""A fresh interpreter that sets up one workload, says ``ready``, then works.

Roles, given in the JSON job on the command line:

- ``setup``: set up and exit; the parent times the interpreter from start to
  ``ready``.
- ``run``: set up, run the first operation untimed and read its peak
  resident memory, then run the timed operations.  In a traced run every
  second timed operation runs with spans installed.
- ``memory``: set up, then run one operation under tracemalloc with spans
  installed, for the traced peak of each span.

The result is one JSON line on stdout after ``ready``.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import spans
import workloads


def _status_kb(field: str) -> int:
    """A ``VmRSS``/``VmHWM`` figure of this process from /proc, in kB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def main(job: dict) -> dict:
    gv = workloads.load_program()
    workload = workloads.WORKLOADS[job["workload"]]
    workdir = Path(job["workdir"])
    state = workload.load(gv, workdir)
    print("ready", flush=True)
    if job["role"] == "setup":
        return {}

    if job["role"] == "memory":
        tracer = spans.Tracer(memory=True)
        tracemalloc.start()
        tracer.install()
        try:
            workload.one_op(gv, state, job)
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        return {"peaks_mb": spans.peaks_mb(tracer.spans)}

    tracer = spans.Tracer()
    timer = workloads.Timer(tracer, bool(job["trace"]))
    memory = {"rss_kb": _status_kb("VmRSS")}

    def after_first():
        memory["hwm_kb"] = _status_kb("VmHWM")

    result = workload.run(gv, state, job, timer, after_first)
    result["peak_mb"] = (memory["hwm_kb"] - memory["rss_kb"]) * 1024 / 1e6
    result["op_s"] = [end - start for start, end, _ in timer.ops]
    result["traced"] = [traced for _, _, traced in timer.ops]
    if timer.trace:
        windows = [(start, end) for start, end, traced in timer.ops if traced]
        result["span_ops"] = spans.per_operation(tracer.spans, windows)
        tracer.write(workloads.OUT / f"spans-{job['workload']}-{job['seed']}.json")
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
