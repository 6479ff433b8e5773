"""Benchmark of the starendo package: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # table of every metric

Runs from the root of a source checkout and imports the package from
``src/``.  Each pass of a workload runs in a fresh single-threaded
interpreter (worker.py), one operation after another in a closed loop;
passes repeat, one at a time, while another pass still fits in
``--seconds``.  Every answer is checked against the references in
workloads.py.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics, each the median over the run's passes: ``wall_s`` (one
pass), ``slowest_op_s`` (the longest single operation of a pass),
``peak_rss_mib`` (peak resident memory of the pass's process) and
``setup_s`` (from spawn until the package is imported and the inputs are
built, also sampled by set-up-only processes).  The three times are in
reference seconds, which cancel the host's changing speed (speed.py); the
table on stderr gives their plain-seconds twins (``plain.*``), the sample
count of each metric, and ``fail_frac``.

With ``--trace 1`` traced passes alternate with untraced ones; the JSON
carries the per-layer metrics in plain seconds and counts (medians over
traced passes, see tracing.py), ``trace.wall_s``, the traced pass in plain
seconds, and ``trace.overhead_s``, the traced minus the untraced median
pass time in reference seconds.  The spans of a traced run are written to
``.perfbench/``.

Exit status: 0 when every answer is right, 1 when some answer is wrong
(the JSON line is still printed), 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SPAN_DIR = os.path.join(ROOT, ".perfbench")
PASS_TIMEOUT_S = 150.0
SETUP_PROBES = 5  # set-up-only processes per run, on top of each pass's own set-up
UNACCOUNTED_TOLERANCE_S = 1e-6


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def spawn(workload: str, ops: list | None, trace: bool) -> dict:
    """Run one worker process to completion and return its report."""
    order = ",".join(op.id for op in ops) if ops else "-"
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, workload, repr(time.monotonic()),
             "1" if trace else "0", order],
            cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} pass exceeded {PASS_TIMEOUT_S:.0f} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise HarnessError(f"worker exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one run, plus the set-up-only processes."""
    deadline = time.monotonic() + seconds
    probes = [spawn(workload, None, False) for _ in range(SETUP_PROBES)]
    orders = workloads.pass_orders(workload, seed)
    # A traced run alternates untraced and traced passes, so the overhead is
    # taken between passes made at nearly the same time.
    modes = [False, True] if trace else [False]
    passes, longest = [], 0.0
    while len(passes) < len(modes) or time.monotonic() + longest <= deadline:
        traced = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        report = spawn(workload, next(orders), traced)
        longest = max(longest, time.monotonic() - t0)
        report["traced"] = traced
        passes.append(report)
    return {"passes": passes, "setups": probes + passes}


def summarize(workload: str, seed: int, run: dict, trace: bool) -> tuple[dict, list]:
    """The result object the contract asks for, and the rows of the printed table.

    The table adds, with their sample counts, the plain-seconds twins of the
    reference-second metrics and ``fail_frac``.
    """
    passes = run["passes"]
    failures = [(op["id"], op["error"]) for p in passes for op in p["ops"] if op["error"]]
    attempted = sum(len(p["ops"]) for p in passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    metrics, table = {}, []

    def put(name, unit, values, report=True):
        value = statistics.median(values)
        if report:
            metrics[name] = {"value": value, "unit": unit}
        table.append((name, value, unit, len(values)))

    if trace:
        for name, (unit, _) in tracing.LAYER_METRICS.items():
            put(name, unit, [p["layers"][name] for p in traced])
        for name in tracing.SPAN_NAMES:
            put(f"calls.{name}", "count", [p["layers"][f"calls.{name}"] for p in traced])
        put("trace.wall_s", "s", [p["wall_s"] for p in traced])
        overhead = statistics.median(p["wall_ref_s"] for p in traced) - statistics.median(
            p["wall_ref_s"] for p in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        table.append(("trace.overhead_s", overhead, "s", len(passes)))
        worst = max(abs(p["layers"]["trace.unaccounted_s"]) for p in traced)
        if worst > UNACCOUNTED_TOLERANCE_S:
            failures.append(("trace", f"self times miss the traced wall time by {worst:.3g} s"))
        os.makedirs(SPAN_DIR, exist_ok=True)
        with open(os.path.join(SPAN_DIR, f"spans-{workload}-seed{seed}.json"), "w") as fh:
            json.dump([{"fields": ["name", "start", "end", "parent", "op", "extra"],
                        "spans": p["spans"]} for p in traced], fh)
    else:
        put("wall_s", "s", [p["wall_ref_s"] for p in plain])
        put("slowest_op_s", "s", [max(op["ref_s"] for op in p["ops"]) for p in plain])
        put("peak_rss_mib", "MiB", [p["max_rss_kib"] / 1024 for p in plain])
        put("setup_s", "s", [p["setup_ref_s"] for p in run["setups"]])
        put("plain.wall_s", "s", [p["wall_s"] for p in plain], report=False)
        put("plain.slowest_op_s", "s", [max(op["s"] for op in p["ops"]) for p in plain],
            report=False)
        put("plain.setup_s", "s", [p["setup_s"] for p in run["setups"]], report=False)
    table.append(("fail_frac", len(failures) / attempted, "ratio", attempted))
    for op_id, error in failures:
        print(f"FAILED {workload} {op_id}: {error}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, table


def print_table(rows: list[tuple[str, dict, list]], file=sys.stdout) -> None:
    print(f"{'workload':<10} {'metric':<36} {'median':>14} {'unit':<6} samples", file=file)
    for workload, _, table in rows:
        for name, value, unit, count in table:
            print(f"{workload:<10} {name:<36} {value:>14.6g} {unit:<6} {count}", file=file)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "starendo")):
        print(f"no starendo package under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    rows = []
    try:
        for name in names:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
            rows.append((name, *summarize(name, args.seed, run, bool(args.trace))))
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print_table(rows)
    else:
        print_table(rows, file=sys.stderr)
        print(json.dumps(rows[0][1]))
    return 0 if all(r["correct"] for _, r, _ in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
