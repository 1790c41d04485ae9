"""The CI gate table (``benchmarks/gates.json``) and its checker.

Every row must name a metric the benchmark declares, pass on the good
side of its bound and fail when that one value crosses it: so a gate
that fails today keeps failing after the table is edited.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TABLE = json.loads((ROOT / "benchmarks" / "gates.json").read_text())
GATES = TABLE["gates"]

_loader = importlib.util.spec_from_file_location(
    "check_gates", ROOT / "benchmarks" / "check_gates.py")
check_gates = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(check_gates)


def _sides(op, edge):
    """A value on the passing side of ``op edge`` and one just across."""
    nudge = max(abs(edge) * 1e-3, 1e-3)
    return {
        "==": (edge, edge + 1),
        "<=": (edge, edge + nudge),
        ">=": (edge, edge - nudge),
        ">": (edge + nudge, edge),
    }[op]


def _referenced(bound):
    return [bound.split(" * ")[1]] if isinstance(bound, str) else []


def _passing():
    """Synthetic results, one dict per run, that pass every row."""
    results = {run: {} for run in TABLE["runs"]}
    for run, metric, op, bound, _owner in GATES:
        for name in _referenced(bound):
            results[run][name] = 1.0
    for run, metric, op, bound, _owner in GATES:
        edge = check_gates.limit(bound, results[run])
        results[run].setdefault(metric, _sides(op, edge)[0])
    return results


def test_every_metric_is_declared_by_the_benchmark():
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for run, metric, op, bound, owner in GATES:
        assert run in TABLE["runs"] and op in check_gates.OPS
        assert metric in declared | {"correct"}, metric
        assert set(_referenced(bound)) <= declared, bound
        assert (ROOT / "src" / "repro" / owner).exists() or (ROOT / owner).exists()
    for run in TABLE["runs"].values():
        argv = run["argv"]
        assert ("--check" in argv) == (run.get("workload") in workloads)
        if "--workload" in argv:
            assert argv[argv.index("--workload") + 1] in workloads


def test_the_synthetic_results_pass(capsys):
    assert check_gates.check(GATES, _passing()) == []
    assert capsys.readouterr().out.count("ok  ") == len(GATES)


@pytest.mark.parametrize("index", range(len(GATES)), ids=lambda i: "{}-{}-{}".format(
    *GATES[i][:2], {"==": "eq", "<=": "le", ">=": "ge", ">": "gt"}[GATES[i][2]]))
def test_each_row_fails_when_its_value_crosses_the_bound(index, capsys):
    run, metric, op, bound, _owner = GATES[index]
    results = _passing()
    edge = check_gates.limit(bound, results[run])
    good, bad = _sides(op, edge)
    results[run][metric] = good
    assert check_gates.check(GATES, results) == []
    results[run][metric] = bad
    failing = check_gates.check(GATES, results)
    assert len(failing) == 1 and failing[0].startswith(f"{run}: {metric} = ")
    assert f"FAIL {failing[0]}" in capsys.readouterr().out


def test_main_exits_1_and_names_every_failing_row(monkeypatch, capsys):
    results = _passing()
    monkeypatch.setattr(check_gates, "measure", lambda run: results[next(
        name for name, spec in TABLE["runs"].items() if spec == run)])
    assert check_gates.main() == 0
    results["kernel_large"]["peak_rss_mb"] = 175.5
    results["dispatch_small"]["compiler.tasks"] = 3888
    del results["serve_run"]["serve.app_run_ms"]
    assert check_gates.main() == 1
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith("FAIL: 3 of")
    for name in ("peak_rss_mb", "compiler.tasks", "serve.http_overhead_ms"):
        assert name in summary
