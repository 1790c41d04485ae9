"""Seeded stress test for the batch execution engine.

Pushes 10³+ heterogeneous requests (two programs, many shapes, several
configurations) through one submit/gather cycle and checks the
engine-level invariants:

* gather() returns exactly one result per request, **in submission
  order**, even though buckets complete in scrambled (hash) order;
* the bucket count equals the number of distinct (transform, shapes,
  ``config.key()``) combinations actually submitted — a bucket is a
  run plan;
* every stackable request is served stacked, every non-stackable one
  falls back, and the counters account for all of them;
* results are correct (checked against closed-form expectations — the
  differential suite covers byte-parity against the serial engine);
* ``MAX_STACK`` chunking and repeat gathers behave.
"""

import numpy as np
import pytest

import repro.batch.engine as batch_engine
from repro.batch import BatchEngine
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.observe import TraceSink
from repro.runtime.batchqueue import BucketQueue, scramble
from tests.strategies import STAGES

SCALE = """
transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0 + 1.0; }
}
"""

ROLLINGSUM = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) { b = a + leftSum; }
}
"""

SEED = 20090615


def _configs():
    """Three distinct-content configurations for the Scale transform."""
    configs = []
    for leaf in (0, 1, 2):
        config = ChoiceConfig()
        config.set_tunable("Scale.__leaf_path__", leaf)
        configs.append(config)
    return configs


@pytest.fixture(scope="module")
def stress_run():
    """One 1000+-request submit/gather cycle, shared by the invariant
    tests below (the engine is deterministic, so sharing is safe)."""
    program = compile_program(SCALE + ROLLINGSUM)
    scale = program.transform("Scale")
    rolling = program.transform("RollingSum")
    rolling_config = ChoiceConfig()
    rolling_config.set_choice("RollingSum.B.0", Selector.static(0))
    rolling_config.set_choice("RollingSum.B.1", Selector.static(1))

    rng = np.random.default_rng(SEED)
    shapes = [(2, 2), (2, 3), (3, 2), (4, 4), (1, 5)]
    configs = _configs()
    sink = TraceSink(capture_events=False)
    engine = BatchEngine(sink=sink)

    requests = []  # (kind, inputs, expected array)
    for index in range(1100):
        if index % 5 == 4:  # every 5th request: the fallback transform
            n = int(rng.integers(1, 8))
            a = rng.uniform(-1.0, 1.0, n)
            engine.submit(rolling, {"A": a}, rolling_config)
            requests.append(("rolling", a, np.cumsum(a)))
        else:
            shape = shapes[int(rng.integers(0, len(shapes)))]
            config = configs[int(rng.integers(0, len(configs)))]
            a = rng.uniform(-4.0, 4.0, shape)
            engine.submit(scale, {"A": a}, config)
            requests.append(("scale", (a, config), a * 2.0 + 1.0))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batch_engine, "MAX_STACK", 64)
        results = engine.gather()
    return engine, sink, requests, results


def test_submission_order_and_identity(stress_run):
    _, _, requests, results = stress_run
    assert len(results) == len(requests) >= 1000
    for position, result in enumerate(results):
        assert result.request_id == position
        assert result.ok, result.error


def test_results_are_correct(stress_run):
    _, _, requests, results = stress_run
    for (kind, _, expected), result in zip(requests, results):
        np.testing.assert_array_equal(result.output(), expected)
        assert result.stacked is (kind == "scale")


def test_bucket_count_matches_distinct_work(stress_run):
    _, sink, requests, _ = stress_run
    scale_buckets = {
        (inputs[0].shape, inputs[1].key())
        for kind, inputs, _ in requests
        if kind == "scale"
    }
    rolling_buckets = {
        a.shape for kind, a, _ in requests if kind == "rolling"
    }
    expected = len(scale_buckets) + len(rolling_buckets)
    assert sink.counter("batch.buckets") == expected


def test_counters_account_for_every_request(stress_run):
    _, sink, requests, _ = stress_run
    n_scale = sum(1 for kind, _, _ in requests if kind == "scale")
    n_rolling = len(requests) - n_scale
    assert sink.counter("batch.requests") == len(requests)
    assert sink.counter("batch.stacked_requests") == n_scale
    assert sink.counter("batch.fallbacks") == n_rolling
    assert sink.counter("batch.stacked_steps") > 0
    hist = sink.histograms.get("batch.requests_per_sec")
    assert hist is not None and hist.count == 1


def test_repeat_gather_is_empty(stress_run):
    engine, _, _, _ = stress_run
    assert engine.gather() == []


def test_max_stack_chunking_is_invisible(monkeypatch):
    """Chunked stacked sweeps (``MAX_STACK`` smaller than the bucket)
    give byte-identical results to one whole-bucket sweep."""
    program = compile_program(SCALE)
    scale = program.transform("Scale")
    rng = np.random.default_rng(SEED)
    arrays = [rng.uniform(-4.0, 4.0, (3, 3)) for _ in range(50)]

    outcomes = []
    for max_stack in (7, 1024):
        monkeypatch.setattr(batch_engine, "MAX_STACK", max_stack)
        engine = BatchEngine()
        for a in arrays:
            engine.submit(scale, {"A": a})
        outcomes.append(
            [r.output().tobytes() for r in engine.gather()]
        )
    assert outcomes[0] == outcomes[1]


# -- config freezing and engine-lifetime memory -----------------------------


def test_mutated_config_lands_in_a_new_bucket():
    """Regression: a config mutated between two submits must bucket the
    second request under the *new* content (the old id-keyed digest memo
    silently reused the stale digest)."""
    program = compile_program(SCALE)
    scale = program.transform("Scale")
    sink = TraceSink(capture_events=False)
    engine = BatchEngine(sink=sink)
    a = np.ones((2, 2))

    config = ChoiceConfig()
    config.set_tunable("Scale.__leaf_path__", 1)
    engine.submit(scale, {"A": a}, config)
    config.set_tunable("Scale.__leaf_path__", 2)  # mutate after submit
    engine.submit(scale, {"A": a}, config)

    results = engine.gather()
    assert all(result.ok for result in results)
    assert sink.counter("batch.buckets") == 2


def test_submit_freezes_config_content():
    """Execution uses the config as submitted: mutating it afterwards
    (here: forcing an out-of-range leaf path would break nothing, so we
    flip a choice selector that changes nothing numerically but would
    change the digest) does not leak into the already-queued request."""
    program = compile_program(SCALE)
    scale = program.transform("Scale")
    engine = BatchEngine()
    a = np.arange(4.0).reshape(2, 2)
    config = ChoiceConfig()
    config.set_tunable("Scale.__leaf_path__", 1)
    engine.submit(scale, {"A": a}, config)
    config.tunables.clear()  # caller reuses the object for something else
    (result,) = engine.gather()
    np.testing.assert_array_equal(result.output(), a * 2.0 + 1.0)


def test_soak_digest_path_is_bounded():
    """10k requests with 10k distinct config objects against ONE engine:
    no config object may stay pinned after its gather, and the one plan
    cache — the transform's — stays within its bound while more distinct
    configs pass through than it holds: the serve-daemon lifetime
    invariant."""
    import gc
    import weakref

    program = compile_program(SCALE)
    scale = program.transform("Scale")
    engine = BatchEngine()
    a = np.ones((2, 2))

    refs = []
    for round_number in range(100):
        for index in range(100):
            config = ChoiceConfig()
            # 397 distinct contents: more than the plan cache holds
            config.set_tunable("Scale.__seq_cutoff__", index + 3 * round_number)
            refs.append(weakref.ref(config))
            engine.submit(scale, {"A": a}, config)
            del config
        results = engine.gather()
        assert all(result.ok for result in results)
        del results

    gc.collect()
    assert all(ref() is None for ref in refs), "engine pinned configs"
    assert 0 < len(scale._plan_cache) <= scale._plan_cache.limit < 397
    assert scale._plan_cache.evictions > 0
    assert not hasattr(engine, "_plans")
    assert not hasattr(engine, "_digests")


def test_none_and_empty_config_share_one_bucket():
    """``None`` is planned as ``ChoiceConfig()`` (as ``run`` does), and
    distinct config objects with equal content share ``config.key()``:
    all three are one run plan and one bucket."""
    program = compile_program(SCALE)
    scale = program.transform("Scale")
    sink = TraceSink(capture_events=False)
    engine = BatchEngine(sink=sink)
    a = np.ones((2, 2))
    for config in (None, ChoiceConfig(), ChoiceConfig()):
        engine.submit(scale, {"A": a}, config)
    results = engine.gather()
    assert all(result.stacked for result in results)
    assert sink.counter("batch.buckets") == 1


# -- BucketQueue: deterministic out-of-order completion ---------------------


def test_bucket_queue_scrambles_deterministically():
    keys = [f"bucket{i}" for i in range(12)]
    first = BucketQueue()
    second = BucketQueue()
    for position, key in enumerate(keys):
        first.add(key, position)
        second.add(key, position)
    drained_first = [key for key, _ in first.drain()]
    drained_second = [key for key, _ in second.drain()]
    assert drained_first == drained_second  # deterministic
    assert drained_first != keys  # and genuinely out of insertion order
    assert sorted(drained_first) == sorted(keys)
    assert drained_first == sorted(keys, key=scramble)
    assert len(first) == 0  # drained


def test_bucket_queue_preserves_order_within_buckets():
    queue = BucketQueue()
    for item in range(30):
        queue.add(f"k{item % 3}", item)
    assert len(queue) == 30
    drained = list(queue.drain())
    assert len(drained) == 3
    for key, items in drained:
        assert items == sorted(items)


def test_gather_order_survives_scrambled_buckets():
    """The engine's submission-order guarantee is exercised for real:
    the bucket drain order differs from submission order, yet results
    come back position-aligned."""
    program = compile_program(SCALE)
    scale = program.transform("Scale")
    rng = np.random.default_rng(1)
    shapes = [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]

    sink = TraceSink(capture_events=False)
    engine = BatchEngine(sink=sink)
    expected = []
    for index in range(40):
        shape = shapes[index % len(shapes)]
        a = rng.uniform(-1, 1, shape)
        engine.submit(scale, {"A": a})
        expected.append(a * 2.0 + 1.0)
    results = engine.gather()
    assert sink.counter("batch.buckets") == len(shapes)
    for index, result in enumerate(results):
        assert result.request_id == index
        np.testing.assert_array_equal(result.output(), expected[index])




@pytest.mark.parametrize("shape", [(1, 4), (3, 2), (5, 6)])
def test_stacked_plan_walks_the_serial_schedule(shape):
    """The batch planner and the serial engine consume one schedule
    walk: the plan's (segment, rule) steps are exactly the vector-leaf
    tasks a serial run records, in the same order."""
    from repro.batch.stacked import plan_stacked

    stages = compile_program(STAGES).transform("Stages")
    config = ChoiceConfig()
    config.set_tunable("Stages.__leaf_path__", 2)
    config.set_tunable("Stages.__vectorize_cutoff__", 0)
    config.set_tunable("Stages.__seq_cutoff__", 0)  # record every task
    plan, reason = plan_stacked(stages, [shape], config)
    assert plan is not None, reason

    sink = TraceSink()
    stages.run({"A": np.ones(shape)}, config, sink=sink)
    serial = []
    segment = None
    for event in sink.events_of("task_recorded"):
        label = event["label"]
        if label.startswith("Stages."):
            segment = label[len("Stages."):]
        elif label.endswith("[vec]"):
            step = (segment, label[: -len("[vec]")])
            if not serial or serial[-1] != step:  # one per chain step
                serial.append(step)
    assert serial, "the serial run took no vector leaf"
    assert sink.counter("exec.vector_fallbacks") == 0
    assert [
        (s.site.segment.key, s.site.rule.label) for s in plan.steps
    ] == serial


def test_serial_and_stacked_runs_share_one_plan_per_site(monkeypatch):
    """One generated vector kernel per site: the serial vector leaf (at
    batch 1) and a stacked bucket run the *same* cached plan objects,
    and a lowered rule body has a single maker."""
    import dataclasses

    import repro.batch.engine as batch_engine
    from repro.compiler import leaves
    from repro.engine_fast import RuleKernel

    serial_plans = []
    vector_leaf = leaves._vector_leaf

    def spy_vector_leaf(state, plan, step, *args):
        serial_plans.append(step.plan)
        return vector_leaf(state, plan, step, *args)

    stacked_plans = []
    run_stacked = batch_engine.run_stacked

    def spy_run_stacked(plan, *args, **kwargs):
        stacked_plans.extend(step.plan for step in plan.steps)
        return run_stacked(plan, *args, **kwargs)

    monkeypatch.setattr(leaves, "_vector_leaf", spy_vector_leaf)
    monkeypatch.setattr(batch_engine, "run_stacked", spy_run_stacked)

    stages = compile_program(STAGES).transform("Stages")
    config = ChoiceConfig()
    config.set_tunable("Stages.__leaf_path__", 2)
    a = np.arange(12.0).reshape(3, 4)
    serial = stages.run({"A": a}, config)
    engine = BatchEngine()
    for _ in range(3):
        engine.submit(stages, {"A": a}, config)
    results = engine.gather()
    assert all(result.stacked for result in results)
    assert results[0].output().tobytes() == serial.output().tobytes()

    assert len(serial_plans) == 3  # T, B row 0, B chain
    assert len(stacked_plans) == len(serial_plans)
    assert all(s is b for s, b in zip(serial_plans, stacked_plans))
    # One plan object per site, stored on the site: no batch twin.
    assert len(stages.sites) == len(serial_plans)
    assert {id(site.vector[0]) for site in stages.sites.values()} == {
        id(plan) for plan in serial_plans
    }
    makers = [
        field.name
        for field in dataclasses.fields(RuleKernel)
        if "maker" in field.name
    ]
    assert makers == ["maker"]
