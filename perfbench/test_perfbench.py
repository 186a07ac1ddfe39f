"""Tests of the benchmark itself: every workload at a tiny size, each oracle
against a planted wrong answer, the tracer's accounting, and the refusal to
run without the package sources.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

KNOWN_DEFECTS = {"ladder:3000", "farey:1001/1000"}


@pytest.mark.parametrize("group", workloads.GROUPS)
def test_tiny_pass_passes_its_oracle(group):
    result = one_pass.run_group(group, seed=3, tiny=True)
    assert result["wrong"] == {}
    expected_failures = KNOWN_DEFECTS if group == "certs" else set()
    assert set(result["failures"]) == expected_failures
    assert set(result["known_defects"]) == expected_failures
    assert all(ok != (label in expected_failures)
               for label, ok in zip(result["labels"], result["ok"]))


def test_seed_fixes_the_inputs():
    labels = [op.label for op in workloads.build_ops("certs", 5)]
    assert labels == [op.label for op in workloads.build_ops("certs", 5)]
    assert labels != [op.label for op in workloads.build_ops("certs", 6)]


def _planted_pass(monkeypatch, group, name, planted):
    monkeypatch.setattr(workloads, name, planted(getattr(workloads, name)))
    return one_pass.run_group(group, seed=3, tiny=True)


def test_scan_oracle_names_missing_and_spurious_polynomials(monkeypatch):
    def planted(real):
        def candidate_polynomials(space):
            if (space.p, space.q) in ((9, 7), (9, 4)):  # one homeomorphism class
                return []
            found = real(space)
            if (space.p, space.q) == (5, 1):
                found.append(SimpleNamespace(poly=SimpleNamespace(coeffs=workloads.TORUS_2_5)))
            return found
        return candidate_polynomials

    result = _planted_pass(monkeypatch, "scan", "candidate_polynomials", planted)
    assert set(result["wrong"]) == {"L(9,7)", "L(9,4)", "L(5,1)"}
    assert "genus-2" in result["wrong"]["L(9,4)"]


def test_tables_oracle_names_a_false_check_and_a_bad_table(monkeypatch):
    def planted_check(real):
        def lattice_vs_recursion_check(p, q):
            report = real(p, q)
            if (p, q) == (7, 3):
                return SimpleNamespace(equal=False)
            return report
        return lattice_vs_recursion_check

    def planted_table(real):
        def d_table(space):
            table = real(space)
            return SimpleNamespace(values=table.values[1:] + table.values[:1] * 2)
        return d_table

    monkeypatch.setattr(workloads, "d_table", planted_table(workloads.d_table))
    result = _planted_pass(monkeypatch, "tables", "lattice_vs_recursion_check", planted_check)
    assert "check(7,3)" in result["wrong"]
    assert [label for label in result["wrong"] if label.startswith("d_table")]
    assert len(result["wrong"]) == 2


def test_certs_oracle_names_a_wrong_order(monkeypatch):
    def planted(real):
        return lambda base, target: real(base, target + 1)

    result = _planted_pass(monkeypatch, "certs", "propagate_slope", planted)
    assert "fib:89/55" in result["wrong"]
    assert [label for label in result["wrong"]
            if label.startswith("ladder:") and label not in KNOWN_DEFECTS]


def test_fuzz_oracle_names_a_rejected_instance(monkeypatch):
    result = _planted_pass(monkeypatch, "fuzz", "cone_exactness",
                           lambda real: lambda triple: False)
    assert {label for label in result["wrong"]} == {f"cone#{i}" for i in range(5)}


@pytest.mark.parametrize("group", workloads.GROUPS)
def test_traced_pass_accounts_for_the_op_time(group):
    tracer = tracing.Tracer()
    tracing.install(tracer, workloads)
    try:
        result = one_pass.run_group(group, seed=3, tiny=True, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["wrong"] == {}
    totals = tracer.op_totals
    # harness self time plus every wrapped self time is exactly the op time
    assert sum(t[2] for t in totals.values()) == totals[tracing.OP_SPAN][1]
    raw = tracing.raw_totals(tracer)
    metrics = tracing.layer_metrics(tracing.merge_raw([raw, raw]))
    assert [name for name, *_ in tracing.PER_LAYER] == list(metrics)
    assert metrics["harness.op.ms"] == pytest.approx(2 * totals[tracing.OP_SPAN][1] / 1e6)
    assert all(span is not None for span in tracer.spans)
    assert workloads.candidate_polynomials.__module__ == "lenslab.alexobstruct"


def test_certificate_shape_counts_shared_nodes_once():
    from fractions import Fraction

    from lenslab.lspacecert import propagate_slope, surgery_lspace_axiom

    cert = propagate_slope(surgery_lspace_axiom("K", Fraction(1)), Fraction(8, 5))
    nodes, distinct, depth = tracing.certificate_shape(cert)
    assert nodes == cert.size()
    assert distinct < nodes
    assert depth == 1 + max(tracing.certificate_shape(p)[2] for p in cert.premises)


def test_failed_ops_rank_above_every_success():
    ranked = run._ranked_ms([5_000_000, 1_000_000, 2_000_000], [True, False, True])
    assert ranked == [2.0, 5.0, 5.0]
    assert run.tail_rank(881) == 871
    assert run.tail_rank(5) == 1


def test_group_runs_depend_only_on_the_arguments():
    assert run.schedule("scan_tables", run.RUN_S, trace=False) == [
        "tables", "scan", "tables", "tables", "scan", "tables"]
    assert run.schedule("certs_fuzz", run.RUN_S, trace=False).count("fuzz") == 3
    assert run.schedule("certs_fuzz", 2 * run.RUN_S, trace=False).count("certs") == 10
    assert run.schedule("scan_tables", 1, trace=False) == ["scan", "tables"]
    assert run.schedule("scan_tables", 1, trace=True).count("scan") == 2


def test_reference_runs_at_fixed_positions():
    result = one_pass.run_group("fuzz", seed=3, tiny=True)
    n = len(result["labels"])
    assert len(result["ref_ns"]) == len({n * j // one_pass.REF_SLOTS
                                         for j in range(one_pass.REF_SLOTS)})


def test_times_are_divided_by_the_host_slowness_of_their_group():
    nominal = run.REF_NOMINAL_NS

    def fake_run(lat_ns, ref_ns, setup_s):
        return {"lat_ns": lat_ns, "ref_ns": ref_ns, "ok": [True, True, False],
                "setup_s": setup_s, "rss_kib": 1024}

    runs = {"g": [fake_run([4_000_000, 9_000_000, 8_000_000], [nominal, 4 * nominal], 1.0),
                  fake_run([6_000_000, 3_000_000, 7_000_000], [3 * nominal, 2 * nominal], 2.0)],
            "h": [fake_run([1_000_000, 1_000_000, 1_000_000], [nominal, nominal], 1.0)]}
    assert run.slowness(runs["g"]) == 1.5  # fastest per slot: 1 and 2 x nominal
    fast = run.end_to_end(runs, scaled=False)
    assert fast["ops_per_s"] == 4 / 0.017  # fastest per op: 4, 3, 7 (failed), 1, 1, 1 (failed)
    assert fast["op_p50_ms"] == 3.5  # failed ops rank as 7 and 4
    assert fast["setup_s"] == 2.5
    assert fast["ok_rate"] == 6 / 9
    scaled = run.end_to_end(runs)
    assert scaled["ops_per_s"] == pytest.approx(4e3 / (14 / 1.5 + 3))  # g's ms divided by 1.5
    assert scaled["setup_s"] == 2.0


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.RUN_S
    groups = [g for pair in run.WORKLOADS.values() for g in pair]
    assert sorted(groups) == sorted(workloads.GROUPS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layers = {name: unit for name, unit, _ in tracing.PER_LAYER}
    layers["trace_overhead"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
