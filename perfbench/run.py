"""lenslab benchmark: two library workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scan_tables --seed 1 --seconds 45 --trace 0

Each workload is a closed loop of ops driven by one process with no threads.
A workload is two op groups.  A run runs each group a fixed number of times
(see GROUP_RUNS), each time in a fresh interpreter (see one_pass.py) and
with the same seeded inputs.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced runs of each group and reports the
per-layer metrics and the tracing overhead.  --workload all runs every
workload in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it holds the provenance and the failed ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, layer_metrics, merge_raw  # noqa: E402

# Each workload's op groups (see workloads.py).
WORKLOADS = {"scan_tables": ("scan", "tables"), "certs_fuzz": ("certs", "fuzz")}
# How many times a run of RUN_S seconds runs each group, each time in a fresh
# interpreter.  On a 2 GHz 2-vCPU VM such a run takes 0.8 to 1.7 RUN_S,
# depending on how busy its host is.  The counts scale with --seconds and
# depend on nothing else, so that every commit gets the same estimator.
# Groups whose tail ops are few and long (`tables`, `certs`) run more often.
GROUP_RUNS = {"scan": 2, "tables": 4, "certs": 5, "fuzz": 3}
RUN_S = 45
# The reference work's time (see one_pass.py) on a fast spell of that VM.
# Times are reported at this reference speed.
REF_NOMINAL_NS = 20_000_000
TAIL_BEYOND = 10  # op_tail_ms keeps at least this many samples beyond it
GROUP_TIMEOUT_S = 150
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_rate": "ratio",
    "peak_rss_mib": "MiB",
}


class GroupError(RuntimeError):
    pass


def _spawn(group: str, seed: int, traced: bool) -> dict:
    """Run one op group in a fresh interpreter and time its set-up."""
    env = {k: v for k, v in os.environ.items() if k != "LENSLAB_CACHE"}
    cmd = [sys.executable, "-I", str(HERE / "one_pass.py"), str(ROOT), group,
           str(seed), "1" if traced else "0"]
    if traced:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cmd.append(str(out_dir / f"trace-{group}-{seed}.json"))
    started = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=GROUP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise GroupError(f"{group} exceeded {GROUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise GroupError(f"{group} exited {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = (result["first_op_ns"] - started) / 1e9
    result["traced"] = traced
    return result


def group_runs(group: str, seconds: float, trace: bool) -> int:
    """Runs of a group; a traced run needs an untraced and a traced one."""
    return max(2 if trace else 1, round(GROUP_RUNS[group] * seconds / RUN_S))


def schedule(workload: str, seconds: float, trace: bool) -> list[str]:
    """The order of the group runs: each group's runs spread evenly in time."""
    counts = {group: group_runs(group, seconds, trace) for group in WORKLOADS[workload]}
    return [group for _, group in sorted(
        ((j + 0.5) / k, group) for group, k in counts.items() for j in range(k))]


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict[str, list[dict]]:
    """Every group's runs, with the same seeded inputs; in a traced run every
    second run of a group is traced."""
    runs: dict[str, list[dict]] = {group: [] for group in WORKLOADS[workload]}
    for group in schedule(workload, seconds, trace):
        runs[group].append(_spawn(group, seed, traced=trace and len(runs[group]) % 2 == 1))
    return runs


def _ranked_ms(lat_ns: list[int], ok: list[bool]) -> list[float]:
    """Sorted latencies in ms; a failed op ranks above every success."""
    slowest_ok = max((t for t, good in zip(lat_ns, ok) if good), default=0)
    return sorted((t if good else max(t, slowest_ok)) / 1e6 for t, good in zip(lat_ns, ok))


def tail_rank(n: int) -> int:
    """1-based rank of the highest sample with TAIL_BEYOND samples beyond it."""
    return max(1, n - TAIL_BEYOND)


def _fastest(results: list[dict], key: str) -> list[int]:
    return [min(column) for column in zip(*(r[key] for r in results))]


def slowness(results: list[dict]) -> float:
    """How much slower than nominal the host ran a group's runs: each
    reference slot (see one_pass.py) is treated like an op, its fastest time
    over the runs, and their mean is divided by the nominal time."""
    return statistics.fmean(_fastest(results, "ref_ns")) / REF_NOMINAL_NS


def end_to_end(runs: dict[str, list[dict]], scaled: bool = True) -> dict[str, float]:
    """Every run of a group executes the same ops on the same inputs.  Each
    op's latency is its fastest over the group's runs, which filters out the
    slow-downs a shared host imposes on some of them; an op that failed in any
    run is failed.  Scaled times are divided by the group's slowness, which
    takes out slow spells that cover every run of the group."""
    best: list[float] = []
    ok: list[bool] = []
    setup_s = 0.0
    for results in runs.values():
        factor = slowness(results) if scaled else 1.0
        best += [t / factor for t in _fastest(results, "lat_ns")]
        ok += [all(column) for column in zip(*(r["ok"] for r in results))]
        setup_s += statistics.median(r["setup_s"] for r in results) / factor
    ranked = _ranked_ms(best, ok)
    every = [r for results in runs.values() for r in results]
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ok) / (sum(best) / 1e9),
        "op_p50_ms": statistics.median(ranked),
        "op_tail_ms": ranked[tail_rank(len(ranked)) - 1],
        "ok_rate": sum(sum(r["ok"]) for r in every) / sum(len(r["ok"]) for r in every),
        "peak_rss_mib": max(statistics.median(r["rss_kib"] for r in results)
                            for results in runs.values()) / 1024,
    }


def per_layer(runs: dict[str, list[dict]]) -> dict[str, float]:
    """The i-th traced runs of the groups together give the i-th values."""
    traced = [[r for r in results if r["traced"]] for results in runs.values()]
    plain = [[r for r in results if not r["traced"]] for results in runs.values()]
    layers = [layer_metrics(merge_raw([r["trace_totals"] for r in together]))
              for together in zip(*traced)]
    out = {name: statistics.median(m[name] for m in layers) for name, _, _ in PER_LAYER}
    out["trace_overhead"] = (
        sum(statistics.median(r["ops_ns"] for r in results) for results in traced)
        / sum(statistics.median(r["ops_ns"] for r in results) for results in plain))
    return out


def _git_revision() -> str | None:
    # The ceiling keeps git from finding a repository above the checkout.
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def summarise(workload: str, seed: int, trace: bool, runs: dict[str, list[dict]]) -> dict:
    every = [r for results in runs.values() for r in results]
    n_ops = sum(len(results[0]["labels"]) for results in runs.values())
    failed_ops = {}
    for r in every:
        failed_ops.update(r["failures"])
        failed_ops.update({label: f"wrong: {why}" for label, why in r["wrong"].items()})
    unexpected = {
        label for r in every
        for label in set(r["failures"]) - set(r["known_defects"]) | set(r["wrong"])
    }
    attempted = sum(len(r["labels"]) for r in every)
    failed = sum(len(r["failures"]) + len(r["wrong"]) for r in every)
    if trace:
        metrics = per_layer(runs)
        units = {name: unit for name, unit, _ in PER_LAYER} | {"trace_overhead": "ratio"}
    else:
        metrics, units = end_to_end(runs), E2E_UNITS
    return {
        "detail": {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "group_runs": {group: len(results) for group, results in runs.items()},
            "traced_group_runs": sum(r["traced"] for r in every),
            "host_slowness": {group: slowness(results) for group, results in runs.items()},
            "unscaled": {} if trace else end_to_end(runs, scaled=False),
            "ops": n_ops,
            "op_tail": {"rank": tail_rank(n_ops), "samples": n_ops,
                        "percentile": round(100 * tail_rank(n_ops) / n_ops, 3)},
            "error_rate": failed / attempted,
            "failed_ops": failed_ops,
            "unexpected_failures": sorted(unexpected),
        },
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lenslab" / "__init__.py").is_file():
        print(f"perfbench: no lenslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        try:
            runs = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except GroupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        reports[name] = summarise(name, args.seed, bool(args.trace), runs)

    provenance = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "seed": args.seed,
        "seconds": args.seconds,
    }
    for name, report in reports.items():
        for metric, entry in report["metrics"].items():
            print(f"{name:11s} {metric:45s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"provenance": provenance,
                      "workloads": {name: r["detail"] for name, r in reports.items()}}))
    prefix = len(reports) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): entry
            for name, r in reports.items() for metric, entry in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
