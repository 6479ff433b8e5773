"""One pass of a workload in a fresh interpreter.

Usage (started by run.py, one process per pass):

    python3 perfbench/worker.py WORKLOAD SPAWNED_AT TRACE ORDER

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before the spawn
(the clock is system-wide), ``TRACE`` is 0 or 1, ``ORDER`` the operation ids
joined by commas, or ``-`` to stop after set-up.  A fresh process per pass
matters: ``graphs._class_census`` is cached for the life of the process, and
every CLI invocation pays the scan again.

Prints one JSON object on stdout: set-up seconds, per-operation seconds and
failures, the pass's wall seconds, peak resident memory and, when traced,
the spans.  Set-up, each operation and the pass are also given in
reference seconds (speed.py).
"""

import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import starendo as se  # noqa: E402
import starendo.cli  # noqa: E402,F401  (binds se.cli)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_LOOPS = 5  # reference loops timed right after set-up, to convert it


def main(argv: list[str]) -> int:
    workload, spawned_at, trace, order = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    if not se.__file__.startswith(os.path.join(ROOT, "src")):
        raise ImportError(f"imported starendo from {se.__file__}, not from {ROOT}/src")
    by_id = {op.id: op for op in workloads.operations(workload)}
    ops = [by_id[i] for i in order.split(",")] if order != "-" else []
    inputs = workloads.build_inputs(se, workload)
    probe = speed.SpeedProbe()
    tracer = tracing.Tracer(clock=probe.clock)
    if trace:
        tracing.install(tracer, se)
    setup_s = time.monotonic() - spawned_at
    setup_loops = [speed.reference_loop() for _ in range(SETUP_LOOPS)]

    results = []
    with probe:
        start = probe.clock()
        for op in ops:
            tracer.op = op.id
            t0 = probe.clock()
            try:
                if trace:
                    error = tracer.call("bench.op", workloads.execute, (se, op, inputs))
                else:
                    error = workloads.execute(se, op, inputs)
            except Exception:  # an exception is a failed operation, not a failed pass
                error = traceback.format_exc(limit=-3).replace("\n", " | ")
            results.append({"id": op.id, "t0": t0, "t1": probe.clock(), "error": error})
        end = probe.clock()

    pass_loops = probe.loops(start, end) or setup_loops
    for op in results:
        lo, hi = op.pop("t0"), op.pop("t1")
        op["s"] = hi - lo
        # An operation shorter than the probe interval takes the pass's speed.
        op["ref_s"] = speed.reference_seconds(op["s"], probe.loops(lo, hi) or pass_loops)
    doc = {
        "setup_s": setup_s,
        "setup_ref_s": speed.reference_seconds(setup_s, setup_loops),
        "wall_s": end - start,
        "wall_ref_s": sum(op["ref_s"] for op in results),
        "ops": results,
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        doc["layers"] = tracing.layer_metrics(tracer.spans, start, end)
        doc["spans"] = tracer.spans
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
