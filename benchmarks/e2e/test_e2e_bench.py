"""Tests of the benchmark itself (not part of tier-1):

    python -m pytest benchmarks/e2e
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = run.load_spec()
RUN = [sys.executable, os.path.join(HERE, "run.py")]

#: counts that must not vary between two runs with one seed
EXACT = (
    ("tune_search", "end_to_end", "tuned_cost"),
    ("tune_search", "per_layer", "autotuner.evaluations"),
    ("dispatch_small", "per_layer", "compiler.rule_applications"),
    ("serve_run", "per_layer", "serve.request_bytes"),
    ("serve_batch", "per_layer", "batch.buckets"),
)


@pytest.fixture(scope="module")
def check_runs(tmp_path_factory):
    """Two traced ``--check`` runs with one seed."""
    results = []
    for index in range(2):
        path = tmp_path_factory.mktemp("e2e") / f"check{index}.json"
        done = subprocess.run(
            RUN + ["--check", "--trace", "--seed", "5", "--json", str(path)],
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        with open(path) as handle:
            results.append(json.load(handle))
    return results


def test_spec_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(SPEC["workloads"]) == 6
    assert len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_named_metric_is_emitted_and_nothing_else(check_runs):
    result = check_runs[0]
    assert set(result["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    assert set(result["machine"]) >= {"nproc", "cpu", "python", "numpy"}
    shared = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = set()
    for name, record in result["workloads"].items():
        assert record["failed"] == 0, name
        emitted = set(record["end_to_end"])
        assert shared <= emitted, (name, shared - emitted)
        assert emitted - shared <= set(run.WORKLOAD_METRICS), name
        for section in ("end_to_end", "per_layer"):
            for entry in record[section].values():
                assert entry["unit"]
        per_layer |= set(record["per_layer"])
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}


def test_layer_self_times_add_up_to_the_traced_op(check_runs):
    for name, record in check_runs[0]["workloads"].items():
        layers = sum(
            entry["value"] for metric, entry in record["per_layer"].items()
            if metric.startswith("self_ms."))
        op = record["per_layer"]["bench.traced_op_ms"]["value"]
        assert abs(layers - op) <= 0.10 * op, name


def test_exact_counts_repeat(check_runs):
    first, second = check_runs
    for workload, section, metric in EXACT:
        values = [
            result["workloads"][workload][section][metric]["value"]
            for result in (first, second)
        ]
        assert values[0] == values[1] and values[0] > 0, (metric, values)


def test_span_self_time_arithmetic():
    def span(name, layer, start, end, parent, op_id=0):
        made = spans.Span(name, layer, start, parent, op_id)
        made.end = end
        return made

    tree = [
        span("op.x", "bench", 0.0, 10.0, -1),
        span("serve.request", "serve", 1.0, 9.0, 0),
        span("compiler.run", "compiler", 2.0, 5.0, 1),
        # overlaps its sibling (another thread): the union is 2..7
        span("serve.encode", "serve", 4.0, 7.0, 1),
        span("engine_fast.step", "engine_fast", 2.5, 4.5, 2),
        span("setup", "serve", 20.0, 21.0, -1, op_id=-1),
    ]
    assert spans.self_times(tree) == [2.0, 3.0, 1.0, 3.0, 2.0, 1.0]
    by_name, by_layer = spans.summarize(tree)
    assert "setup" not in by_name
    assert by_layer == {
        "bench": 2.0, "serve": 6.0, "compiler": 1.0, "engine_fast": 2.0}
    everything, _ = spans.summarize(tree, ops_only=False)
    assert everything["setup"]["count"] == 1


def test_tracer_wraps_and_restores():
    class Box:
        @staticmethod
        def double(x):
            return 2 * x

    tracer = spans.Tracer()
    tracer.wrap(Box, "double", "box.double", "box",
                hook=lambda result: tracer.add("sum", result))
    assert Box.double(2) == 4 and not tracer.spans  # disabled: no span
    tracer.enabled = True
    assert Box.double(3) == 6
    assert [s.name for s in tracer.spans] == ["box.double"]
    assert tracer.counts["sum"] == 6
    tracer.unwrap_all()
    assert Box.double(1) == 2 and len(tracer.spans) == 1


def test_corrupted_reference_counts_as_failure(tmp_path):
    import workloads

    good = workloads.DispatchSmall(1, tiny=True, workdir=str(tmp_path))
    good.setup()
    rnd = workloads.Round()
    good.round(rnd)
    assert rnd.failed == 0 and rnd.attempted == 6

    bad = workloads.DispatchSmall(1, tiny=True, workdir=str(tmp_path))
    reference = bad.references["blur"]
    bad.references["blur"] = lambda a: reference(a) + 1e-9
    bad.setup()
    rnd = workloads.Round()
    bad.round(rnd)
    assert rnd.failed == 2  # both Blur cases, nothing else


def _result(op_p50_ms, failed_share=0.0, rounds=()):
    return {"workloads": {"serve_run": {"end_to_end": {
        "op_p50_ms": {"value": op_p50_ms, "unit": "ms",
                      "rounds": list(rounds)},
        "failed_share": {"value": failed_share, "unit": "ratio"},
    }}}}


def test_compare_verdicts():
    out = io.StringIO()
    assert compare.compare(_result(10.0), _result(10.5), out) == 0
    assert compare.compare(_result(10.0), _result(14.0), out) == 1
    assert compare.compare(_result(10.0), _result(6.0), out) == 0
    assert compare.compare(_result(10.0), _result(10.0, 0.01), out) == 1
    noisy = _result(10.0, rounds=(6.0, 9.0, 10.0, 11.0, 15.0))
    assert compare.compare(noisy, _result(10.5), out) == 0
    # beyond the bound, but the noisy run's values reach past B's
    overlapping = _result(14.0, rounds=(13.0, 14.0, 14.5, 15.0))
    assert compare.compare(noisy, overlapping, out) == 0
    distinct = _result(20.0, rounds=(19.0, 20.0, 20.5, 21.0))
    assert compare.compare(noisy, distinct, out) == 1
    verdicts = [line.split()[-1] for line in out.getvalue().splitlines()]
    assert verdicts == [
        "same", "same", "worse", "same", "better", "same", "same", "worse",
        "unresolved", "same", "unresolved", "same", "worse", "same"]
    assert compare.compare(_result(1.0), {"workloads": {}}, out) == 2


def test_driver_contract_output():
    shared = {m["name"] for m in SPEC["end_to_end"]}
    layered = {m["name"] for m in SPEC["per_layer"]}
    for trace, wanted in ((0, shared), (1, layered)):
        done = subprocess.run(
            RUN + ["--workload", "dispatch_small", "--seed", "2",
                   "--seconds", "2", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, cwd="/")
        assert done.returncode == 0, done.stderr[-2000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        assert set(last["metrics"]) == wanted
        for entry in last["metrics"].values():
            assert set(entry) == {"value", "unit"}
        if not trace:
            assert all(e["value"] > 0 for e in last["metrics"].values())
    assert not os.path.exists(os.path.join(HERE, ".work")) or not os.listdir(
        os.path.join(HERE, ".work"))


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "compile_cold", "--seed", "1", "--seconds", "2", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
