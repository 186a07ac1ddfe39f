"""One group of one pass: set up, run every op once, check the answers.

run.py starts each group of each pass in a fresh interpreter, because the
package's memo tables (`_d_rec`, `_chain_adjugate`) would otherwise carry
over and later passes would do less work than the first:

    python3 -I perfbench/one_pass.py ROOT GROUP SEED TRACE [TRACE_FILE]

It prints one JSON object: the op latencies and outcomes, the reference
timings, the wrong answers, the peak RSS and, with TRACE=1, the tracer's
totals and counters.

The reference is a fixed piece of pure-Python work that does not touch
lenslab.  It runs before the ops at REF_SLOTS fixed positions of the op
list, outside every op's time, so that run.py can tell how fast the host was
during the run and take that out of the latencies.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

REF_SLOTS = 16
REF_ITERATIONS = 80_000


def reference_work(iterations: int = REF_ITERATIONS) -> int:
    """Integer arithmetic and dict updates, about 20 ms on a 2 GHz core."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 2654435761) % 4093
        acc = (acc + table.get(key, i) * 31 + i) % 1_000_003
        table[key] = acc
    return acc


def run_group(group: str, seed: int, tiny: bool = False, tracer=None) -> dict:
    """Set up and time one group's ops in this process."""
    import workloads

    ops = workloads.build_ops(group, seed, tiny)
    results: dict[str, object] = {}
    failures: dict[str, str] = {}
    latencies = []
    slots = {len(ops) * j // REF_SLOTS for j in range(REF_SLOTS)}
    ref_ns = []
    first_op_ns = time.monotonic_ns()
    phase_start = time.perf_counter_ns()
    for index, op in enumerate(ops):
        if index in slots:
            start = time.perf_counter_ns()
            reference_work()
            ref_ns.append(time.perf_counter_ns() - start)
        start = time.perf_counter_ns()
        try:
            value = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception as exc:  # a failed op is counted, never fatal
            failures[op.label] = type(exc).__name__
        else:
            results[op.label] = value
        latencies.append(time.perf_counter_ns() - start)
    ops_ns = time.perf_counter_ns() - phase_start - sum(ref_ns)

    wrong = workloads.wrong_ops(group, ops, results)
    known = [
        op.label for op in ops
        if op.known_defect is not None
        and failures.get(op.label) == op.known_defect.__name__
    ]
    return {
        "labels": [op.label for op in ops],
        "lat_ns": latencies,
        "ok": [op.label in results and op.label not in wrong for op in ops],
        "first_op_ns": first_op_ns,
        "ops_ns": ops_ns,
        "ref_ns": ref_ns,
        "failures": failures,
        "known_defects": known,
        "wrong": wrong,
    }


def main(argv: list[str]) -> int:
    root, group, seed, trace = Path(argv[0]), argv[1], int(argv[2]), argv[3] == "1"
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import lenslab

    if Path(lenslab.__file__).resolve().parent != (root / "src" / "lenslab").resolve():
        print(f"one_pass: lenslab imported from {lenslab.__file__}, not {root}/src",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracing
        import workloads

        tracer = tracing.Tracer()
        tracing.install(tracer, workloads)
    result = run_group(group, seed, tracer=tracer)
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace_totals"] = tracing.raw_totals(tracer)
        if len(argv) > 4:
            tracer.dump(argv[4])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
