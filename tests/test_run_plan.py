"""Run plans: a replayed (cached) plan is indistinguishable from the one
just built, and both from the engine before plans existed.

A first ``run`` of a (config, shapes) point builds the frame's
:class:`RunPlan` and replays it; a second one only replays.  Everything
observable must agree between the two — output bytes, write sets, the
recorded task graph, rule-application counts, errors, counters — over
the programs of the one generator (``tests/strategies.py``), every leaf
path, fusion on/off and the tile knobs.  The ladder Sort's numbers were
captured on the commit before plans.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import sort
from repro.autotuner.consistency import observe
from repro.compiler import ChoiceConfig, RuleIR, Selector, compile_program
from repro.compiler.codegen import _PLAN_CACHE_LIMIT, CompiledTransform, Site, specialize
from repro.compiler.config import FUSE
from repro.compiler.plan import PlanStep, RunPlan
from repro.engine_fast import Geometry, RuleKernel, VectorPlan
from repro.language.errors import PetaBricksError
from repro.observe import TraceSink
from repro.runtime.matrix import Matrix, MatrixView
from repro.symbolic import Affine
from repro.symbolic.interval import Box
from tests.strategies import (
    BLUR,
    HEAT,
    KINDS,
    ROLLINGSUM,
    chain_source,
    drop_fallbacks,
    planned,
    programs,
)


def task_list(graph):
    return [
        (t.tid, t.work, t.deps, t.parent, t.label, t.spawns)
        for t in graph.tasks
    ]


def ladder_config():
    config = ChoiceConfig()
    config.set_choice(
        sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 2)))
    )
    return config


# -- (i) the ladder Sort against the pre-plan engine ----------------------


def test_ladder_sort_matches_the_pre_plan_golden():
    """534 tasks / 175 applications / work / span and the digest of the
    full task list were captured on the parent commit; a first run
    (plan miss), a second (hit) and a specialized run all reproduce it."""
    program = sort.build_program()
    transform = program.transform("Sort")
    keys = np.random.default_rng(7).uniform(0, 1, 4096)
    miss = transform.run([keys], ladder_config())
    hit = transform.run([keys], ladder_config())
    static = specialize(program, ladder_config()).transform("Sort").run([keys])
    for result in (miss, hit, static):
        assert len(result.graph) == 534
        assert result.rule_applications == 175
        assert result.graph.total_work() == 81499.2
        assert result.graph.critical_path() == 1552.0
        np.testing.assert_array_equal(result.output(), np.sort(keys))
    assert task_list(hit.graph) == task_list(miss.graph)
    assert task_list(static.graph) == task_list(miss.graph)
    digest = hashlib.sha256(repr(task_list(miss.graph)).encode()).hexdigest()
    assert digest == (
        "47acde5456b3c85d2c64dcf39aa46385dcc6b2335d0771e6dcea2a74f4aa53a5"
    )


#: ``TraceSink(capture_events=False).counters`` of the ladder Sort (a
#: fresh transform's first run, a second, a specialized program's
#: first) and of the same ladder below a 1024-cell sequential cutoff,
#: captured before frames kept a per-run plan table and opened task
#: scopes directly: they count every plan lookup and recorded task
LADDER_WORK = 81499.19999999992
LADDER_COUNTERS = {
    "miss": {"exec.plan_hits": 169, "exec.plan_misses": 6,
             "recorder.tasks": 534, "recorder.work_charged": LADDER_WORK},
    "hit": {"exec.plan_hits": 175,
            "recorder.tasks": 534, "recorder.work_charged": LADDER_WORK},
    "static": {"exec.plan_hits": 169, "exec.plan_misses": 6,
               "recorder.tasks": 534, "recorder.work_charged": LADDER_WORK},
    "cutoff_miss": {"exec.plan_hits": 169, "exec.plan_misses": 6,
                    "recorder.inlined": 448, "recorder.tasks": 86,
                    "recorder.work_charged": LADDER_WORK},
    "cutoff_hit": {"exec.plan_hits": 175, "recorder.inlined": 448,
                   "recorder.tasks": 86, "recorder.work_charged": LADDER_WORK},
}


def counted(run):
    sink = TraceSink(capture_events=False)
    run(sink)
    return dict(sink.counters)


def test_ladder_sort_counts_what_it_did_before():
    program = sort.build_program()
    transform = program.transform("Sort")
    keys = np.random.default_rng(7).uniform(0, 1, 4096)
    cutoff = ladder_config()
    cutoff.set_tunable("Sort.__seq_cutoff__", 1024)
    fresh = sort.build_program().transform("Sort")
    static = specialize(program, ladder_config()).transform("Sort")
    assert {
        "miss": counted(lambda sink: transform.run([keys], ladder_config(), sink=sink)),
        "hit": counted(lambda sink: transform.run([keys], ladder_config(), sink=sink)),
        "static": counted(lambda sink: static.run([keys], sink=sink)),
        "cutoff_miss": counted(lambda sink: fresh.run([keys], cutoff, sink=sink)),
        "cutoff_hit": counted(lambda sink: fresh.run([keys], cutoff, sink=sink)),
    } == LADDER_COUNTERS


def test_heat_counts_what_it_did_before():
    transform, config, inputs, sizes = dispatch_cases()["heat41"]
    common = {"exec.closure_calls": 492, "recorder.tasks": 40,
              "recorder.work_charged": 2052.0}
    assert counted(
        lambda sink: transform.run(inputs, config, sizes=sizes, sink=sink)
    ) == {**common, "exec.geom_cache_misses": 7, "exec.plan_misses": 1}
    assert counted(
        lambda sink: transform.run(inputs, config, sizes=sizes, sink=sink)
    ) == {**common, "exec.geom_cache_hits": 7, "exec.plan_hits": 1}


def test_a_run_that_fails_in_a_deep_frame_leaves_nothing_behind():
    """A ladder whose lowest band picks an option Sort does not have
    raises from a frame far below the top, with task scopes open and
    frames planned; a golden run on the same transform afterwards
    records and counts exactly what a fresh transform's first run does.
    (Every frame of the failing ladder decides differently from the
    golden one's, so no plan is shared between them.)"""
    transform = sort.build_program().transform("Sort")
    keys = np.random.default_rng(7).uniform(0, 1, 4096)
    failing = ChoiceConfig()
    failing.set_choice(sort.SORT_SITE, Selector(((128, 9), (None, 1))))
    for _ in range(2):
        with pytest.raises(PetaBricksError, match="picks option 9"):
            transform.run([keys], failing)
    sink = TraceSink(capture_events=False)
    result = transform.run([keys], ladder_config(), sink=sink)
    assert dict(sink.counters) == LADDER_COUNTERS["miss"]
    digest = hashlib.sha256(repr(task_list(result.graph)).encode()).hexdigest()
    assert digest == (
        "47acde5456b3c85d2c64dcf39aa46385dcc6b2335d0771e6dcea2a74f4aa53a5"
    )
    np.testing.assert_array_equal(result.output(), np.sort(keys))


#: sha256 of ``task_list`` and (tasks, applications, total work) on the
#: commit before storage folding, for programs that do not fold
UNFOLDED_GOLDEN = {
    "rollingsum_r1": (
        "9b70fe4604482d1732b5bab7598b2db120072e895d32138306aa4dddf4c1bc4b",
        (99, 96, 192.0),
    ),
}


def graph_golden(result):
    digest = hashlib.sha256(repr(task_list(result.graph)).encode()).hexdigest()
    return digest, (
        len(result.graph), result.rule_applications, result.graph.total_work()
    )


@pytest.mark.parametrize("name", sorted(UNFOLDED_GOLDEN))
def test_a_program_that_does_not_fold_records_the_parents_graph(name):
    """RollingSum declares no ``through`` matrix: it replays the task
    graph the engine recorded before it could fold anything."""
    transform, config, inputs, sizes = dispatch_cases()[name]
    result = transform.run(inputs, config, sizes=sizes)
    assert graph_golden(result) == UNFOLDED_GOLDEN[name]
    assert transform._storage_folds == {}


def test_heat_records_its_lockstep_graph():
    """``heat41`` folds ``U``: its three band-sharing segment tasks are
    one group task (42 → 40 tasks), with the same 492 applications and
    2052.0 work, on a plan miss, a hit and a specialized program — and
    the interpreter records the closure's graph, task for task."""
    transform, config, inputs, sizes = dispatch_cases()["heat41"]
    assert transform._storage_folds == {"U": (0, 2)}
    golden = (
        "ea3350eab03aefc719f77e812c42aeedc5e7a42df9aebd072b0b8b4353543279",
        (40, 492, 2052.0),
    )
    miss = transform.run(inputs, config, sizes=sizes)
    hit = transform.run(inputs, config, sizes=sizes)
    static = specialize(transform.program, config).transform("Heat")
    interp = config.copy()
    interp.set_tunable("Heat.__leaf_path__", 0)
    for result in (miss, hit, static.run(inputs, sizes=sizes),
                   transform.run(inputs, interp, sizes=sizes)):
        assert graph_golden(result) == golden
        assert result.output().tobytes() == miss.output().tobytes()
    labels = [task[4] for task in task_list(miss.graph)]
    assert "Heat.U.3+U.5+U.4" in labels and "Heat.U.4" not in labels


# -- (ii) hit ≡ miss over the generated programs ---------------------------


def assert_replay_invisible(transform, inputs, config, sizes=None):
    """Run twice (miss, then hit), then under an equal-content copy of
    the config; all three observations must be equal.  Returns one."""
    name = transform.name
    config.set_tunable(f"{name}.__seq_cutoff__", 0)  # record every task
    first = observe(transform, inputs, config, sizes)
    assert observe(transform, inputs, config, sizes) == first
    assert observe(transform, inputs, config.copy(), sizes) == first
    return first


def knobs(name, **values):
    config = ChoiceConfig()
    for knob, value in values.items():
        config.set_tunable(f"{name}.__{knob}__", value)
    return config


LEAVES = st.sampled_from([0, 1, 2])


@settings(max_examples=40, deadline=None)
@given(
    source=programs("stencil").map(lambda case: case.source),
    leaf=LEAVES,
    option=st.integers(0, 1),
    drop=st.booleans(),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_replay_is_invisible_on_elementwise_programs(
    source, leaf, option, drop, n, m, seed
):
    """Single rules and meta-rules (option 1 of a ``where`` program;
    without its fallback the first rejected instance aborts the run, on
    a hit exactly as on a miss); on a single-option program option 1 is
    a bad index, which fails the plan build both times."""
    transform = compile_program(source).transform("Stencil")
    if drop:
        drop_fallbacks(transform)
    config = knobs("Stencil", leaf_path=leaf)
    config.set_choice("Stencil.B.0", Selector.static(option))
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 2, m + 2))}
    assert_replay_invisible(transform, inputs, config)


@settings(max_examples=25, deadline=None)
@given(
    source=programs("chain").map(lambda case: case.source),
    leaf=LEAVES,
    fuse=st.integers(0, 1),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_replay_is_invisible_with_and_without_fusion(
    source, leaf, fuse, n, m, seed
):
    transform = compile_program(source).transform("Chain")
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 4, m + 4))}
    unfused = assert_replay_invisible(
        transform, inputs, knobs("Chain", leaf_path=leaf)
    )
    fused = assert_replay_invisible(
        transform, inputs, knobs("Chain", leaf_path=leaf, fuse=1)
    )
    assert fused.outputs == unfused.outputs
    assert fused.rule_applications < unfused.rule_applications  # the redirect ran fewer


@settings(max_examples=25, deadline=None)
@given(
    dx=st.integers(-1, 1),
    dy=st.integers(-1, 1),
    leaf=LEAVES,
    tile=st.sampled_from([(2, 0, 0), (0, 2, 1), (2, 3, 1), (1, 1, 0)]),
    n=st.integers(2, 5),
    m=st.integers(2, 5),
    steps=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_replay_is_invisible_under_the_tile_knobs(
    dx, dy, leaf, tile, n, m, steps, seed
):
    transform = compile_program(chain_source(dx, dy, 0.75)).transform("RChain")
    config = knobs(
        "RChain", leaf_path=leaf, tile_i=tile[0], tile_j=tile[1],
        interchange=tile[2],
    )
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-2.0, 2.0, (n + 2, m + 2))}
    observed = assert_replay_invisible(
        transform, inputs, config, {"t_end": steps}
    )
    if leaf == 2 and dx <= 0 and dy <= 0 and n > 2 and tile[0] == 2:
        assert observed.counters["exec.tiled_blocks"] > 0  # tiling did engage


GUARDED = """
transform Guarded
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) where (x + y) % 3 != 2 { b = a; }
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = 0 - a; }
}
"""


@pytest.mark.parametrize("leaf", [0, 1, 2])
def test_a_replayed_plan_raises_what_the_built_one_did(leaf):
    transform = compile_program(GUARDED).transform("Guarded")
    drop_fallbacks(transform)
    config = knobs("Guarded", leaf_path=leaf)
    config.set_choice("Guarded.B.0", Selector.static(1))
    observed = assert_replay_invisible(
        transform, {"A": np.ones((3, 3))}, config
    )
    assert observed.error == (
        "ExecutionError: Guarded rule0: where-clause fails at "
        "{'x': 0, 'y': 2} and no fallback exists"
    )
    assert len(planned(transform)) == 1  # the *plan* was fine


# -- (iii) the key is the config's content --------------------------------


def fingerprint(result):
    return (
        result.output().tobytes(),
        result.rule_applications,
        task_list(result.graph),
    )


#: mutation -> (source, transform, input shape, the change)
MUTATIONS = {
    "set_choice": (
        ROLLINGSUM, "RollingSum", (40,),
        lambda c: c.set_choice("RollingSum.B.1", Selector.static(1)),
    ),
    "set_tunable": (
        ROLLINGSUM, "RollingSum", (40,),
        lambda c: c.set_tunable("RollingSum.__block_size__", 5),
    ),
    "set_leveled_tunable": (
        BLUR, "Blur", (8, 9),
        lambda c: c.set_leveled_tunable(
            "Blur.__leaf_path__", Selector(((8, 0), (None, 2)))
        ),
    ),
    "direct": (
        BLUR, "Blur", (8, 9),
        lambda c: c.tunables.__setitem__("Blur.__seq_cutoff__", 1000),
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutating_a_config_between_runs_misses(mutation):
    """The same config *object*, changed between two runs, behaves like
    a fresh config of the new content (no stale plan)."""
    source, name, shape, change = MUTATIONS[mutation]
    transform = compile_program(source).transform(name)
    inputs = [np.random.default_rng(3).uniform(-1, 1, shape)]
    config = ChoiceConfig()
    config.set_choice("RollingSum.B.1", Selector.static(0))
    config.set_tunable(f"{name}.__seq_cutoff__", 0)
    before = fingerprint(transform.run(inputs, config))
    change(config)
    after = fingerprint(transform.run(inputs, config))
    fresh = compile_program(source).transform(name)
    same_content = ChoiceConfig.from_json(config.to_json())
    assert after == fingerprint(fresh.run(inputs, same_content))
    assert after[2] != before[2]  # the mutation is visible in the graph


def test_equal_content_shares_one_plan_whatever_the_insertion_order():
    transform = compile_program(ROLLINGSUM).transform("RollingSum")
    one, two = ChoiceConfig(), ChoiceConfig()
    one.set_tunable("RollingSum.__block_size__", 4)
    one.set_tunable("RollingSum.__leaf_path__", 1)
    one.set_choice("RollingSum.B.1", Selector.static(1))
    two.set_choice("RollingSum.B.1", Selector.static(1))
    two.set_tunable("RollingSum.__leaf_path__", 1)
    two.set_tunable("RollingSum.__block_size__", 4)
    assert list(one.tunables) != list(two.tunables)
    assert one.key() == two.key()
    assert transform.plan(one, [(12,)]) is transform.plan(two, [(12,)])
    assert len(planned(transform)) == 1
    two.set_tunable("RollingSum.__block_size__", 5)
    assert transform.plan(two, [(12,)]) is not transform.plan(one, [(12,)])


# -- (iv) failures are not cached -----------------------------------------


def test_a_failing_plan_is_rebuilt_and_never_cached():
    transform = compile_program(HEAT).transform("Heat")
    expected = (
        "Heat: sizes {'k': 3, 'n': 1} violate the assumed region ordering "
        "-2 +n >= 0 (input too small for this program's choice grid)"
    )
    for _ in range(2):
        with pytest.raises(PetaBricksError) as info:
            transform.run([np.zeros(1)], ChoiceConfig(), sizes={"k": 3})
        assert str(info.value) == expected
        assert type(info.value).__name__ == "ExecutionError"
        assert len(transform._plan_cache) == 0
    # malformed sizes fail before anything is looked up, both times too
    for _ in range(2):
        with pytest.raises(PetaBricksError, match="non-negative integer"):
            transform.run([np.zeros(5)], ChoiceConfig(), sizes={"k": 2.5})
    assert len(transform._plan_cache) == 0
    transform.run([np.zeros(5)], ChoiceConfig(), sizes={"k": 3})
    assert len(planned(transform)) == 1


def test_a_frames_size_facts_are_computed_once_per_shapes(monkeypatch):
    """Two configs that differ in one selector miss each other's plan,
    but their frame's binding, order guards and declared shapes are
    computed once; a failing guard is checked (and raises) every call."""
    guards = []

    def counting(transform):
        failed_order_guard = transform.grid.failed_order_guard

        def counted(env):
            guards.append(dict(env))
            return failed_order_guard(env)

        monkeypatch.setattr(transform.grid, "failed_order_guard", counted)
        return transform

    rolling = counting(compile_program(ROLLINGSUM).transform("RollingSum"))
    one, two = ChoiceConfig(), ChoiceConfig()
    one.set_choice("RollingSum.B.1", Selector.static(0))
    two.set_choice("RollingSum.B.1", Selector.static(1))
    plans = [rolling.plan(config, [(12,)]) for config in (one, two)]
    assert plans[0] is not plans[1]
    assert guards == [{"n": 12}]
    assert rolling.bind_sizes_from_shapes([(12,)]) == {"n": 12}
    assert len(guards) == 1
    heat = counting(compile_program(HEAT).transform("Heat"))
    for _ in range(2):
        with pytest.raises(PetaBricksError, match="region ordering"):
            heat.plan(one, [(1,)], {"k": 3})
    assert len(guards) == 3


# -- (v) a hit does no symbolic work --------------------------------------


def dispatch_cases():
    """The six ``dispatch_small`` cases of ``benchmarks/e2e``."""
    rng = np.random.default_rng(1)
    blur = compile_program(BLUR).transform("Blur")
    rolling = compile_program(ROLLINGSUM).transform("RollingSum")
    heat = compile_program(HEAT).transform("Heat")
    vector = ChoiceConfig()
    vector.set_tunable("Blur.__leaf_path__", 2)
    image = [rng.uniform(-4.0, 4.0, (34, 34))]
    series = [rng.uniform(-1.0, 1.0, 96)]
    cases = {
        "blur32_closure": (blur, ChoiceConfig(), image, None),
        "blur32_vector": (blur, vector, image, None),
        "heat41": (heat, ChoiceConfig(), [rng.uniform(-1, 1, 41)], {"k": 10}),
        "sort4096": (
            sort.build_program().transform("Sort"),
            ladder_config(),
            [rng.uniform(0.0, 1.0, 4096)],
            None,
        ),
    }
    for rule in (0, 1):
        config = ChoiceConfig()
        config.set_choice("RollingSum.B.1", Selector.static(rule))
        cases[f"rollingsum_r{rule}"] = (rolling, config, series, None)
    return cases


@pytest.mark.parametrize("name", sorted(dispatch_cases()))
def test_a_warm_run_does_no_symbolic_work(name, monkeypatch):
    transform, config, inputs, sizes = dispatch_cases()[name]
    transform.run(inputs, config, sizes=sizes)
    calls = []
    for owner, method in (
        (Affine, "eval_floor"),
        (Affine, "eval_ceil"),
        (Box, "concrete"),
    ):
        original = getattr(owner, method)

        def counted(self, *args, _original=original, _method=method):
            calls.append(_method)
            return _original(self, *args)

        monkeypatch.setattr(owner, method, counted)
    sink = TraceSink(capture_events=False)
    transform.run(inputs, config, sizes=sizes, sink=sink)
    assert calls == []
    assert sink.counter("exec.plan_misses") == 0
    assert sink.counter("exec.plan_hits") >= 1
    assert sink.counter("exec.geom_cache_misses") == 0


# -- (vi) bounded, and free of matrix data ---------------------------------


def test_the_plan_cache_is_bounded():
    transform = sort.build_program().transform("Sort")
    config = ChoiceConfig()
    for n in range(1, 10 * _PLAN_CACHE_LIMIT + 1):
        transform.plan(config, [(n,)])
    assert len(transform._plan_cache) == _PLAN_CACHE_LIMIT
    # each plan went in twice: under its config key and its decisions key
    assert transform._plan_cache.evictions == 19 * _PLAN_CACHE_LIMIT


def held_values(value, seen):
    """Everything a plan holds: its own slots and the containers in
    them, plus the shared geometry — stopping at the program objects it
    only points to (rules, kernels, vector plans, the transform)."""
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if isinstance(value, (RunPlan, PlanStep)):
        children = [getattr(value, slot) for slot in value.__slots__]
    elif isinstance(value, Geometry):
        children = list(vars(value).values())
    elif isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (tuple, list)):
        children = value
    else:
        return
    for child in children:
        yield from held_values(child, seen)


@pytest.mark.parametrize("name", sorted(dispatch_cases()))
def test_plans_hold_no_matrix_data(name):
    transform, config, inputs, sizes = dispatch_cases()[name]
    transform.run(inputs, config, sizes=sizes)
    plans = list(transform._plan_cache._data.values())
    assert plans
    for plan in plans:
        held = list(held_values(plan, set()))
        assert not [
            v for v in held if isinstance(v, (np.ndarray, Matrix, MatrixView))
        ]
        with pytest.raises(AttributeError):  # frozen
            plan.steps = ()
        assert not hasattr(plan, "__dict__")


# -- (vii) a plan is shared by equal decisions ----------------------------


def comparable(value):
    """``value`` with the program objects a plan points into replaced by
    what names them, so plans of two compilations compare field by
    field."""
    if isinstance(value, (RunPlan, PlanStep)):
        return tuple(
            (slot, comparable(getattr(value, slot))) for slot in value.__slots__
        )
    if isinstance(value, CompiledTransform):
        return ("transform", value.name)
    if isinstance(value, Site):
        return ("site", value.segment.key, value.rule.rule_id)
    if isinstance(value, RuleIR):
        return ("rule", value.rule_id)
    if isinstance(value, Geometry):
        held = dict(vars(value))
        held.pop("free_products", None)  # built on first per-cell use
        return ("geometry", comparable(held))
    if isinstance(value, (RuleKernel, VectorPlan)):
        return (type(value).__name__, value.source)
    if isinstance(value, dict):
        return ("dict", tuple((k, comparable(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(comparable(v) for v in value)
    return value


def leveled_or_flat(draw, values):
    """A knob's entry: absent, flat, or size-leveled over ``values``."""
    kind = draw(st.sampled_from(["absent", "flat", "leveled"]))
    if kind == "absent":
        return None
    if kind == "flat":
        return draw(values)
    return Selector(((draw(st.integers(1, 64)), draw(values)), (None, draw(values))))


def drawn_config(draw, transform):
    """A random config over every knob a plan reads: choices (static or
    two levels), leaf and vectorize cutoff (flat or leveled), block,
    tiles, interchange, the cutoff and fusion."""
    name = transform.name
    config = ChoiceConfig()
    for key, segment in transform.choice_sites():
        options = st.integers(0, len(segment.options) - 1)
        if draw(st.booleans()):
            config.set_choice(key, Selector.static(draw(options)))
        else:
            config.set_choice(key, Selector(
                ((draw(st.integers(1, 64)), draw(options)), (None, draw(options)))
            ))
    for knob, values in (
        ("__leaf_path__", st.integers(0, 2)),
        ("__vectorize_cutoff__", st.integers(1, 16)),
    ):
        entry = leveled_or_flat(draw, values)
        if isinstance(entry, Selector):
            config.set_leveled_tunable(f"{name}.{knob}", entry)
        elif entry is not None:
            config.set_tunable(f"{name}.{knob}", entry)
    for knob, values in (
        ("__block_size__", st.integers(1, 8)),
        ("__tile_i__", st.integers(0, 4)),
        ("__tile_j__", st.integers(0, 4)),
        ("__interchange__", st.integers(0, 1)),
        ("__seq_cutoff__", st.integers(0, 64)),
        ("__fuse__", st.integers(0, 1)),
    ):
        value = draw(st.none() | values)
        if value is not None:
            config.set_tunable(f"{name}.{knob}", value)
    return config


def beside(config, transform, problem_size, salt):
    """``config`` changed only where a frame of ``problem_size`` does not
    look: another transform's tunable, and each selector's pick replaced
    above that size."""
    other = config.copy()
    other.set_tunable("Elsewhere.unused", salt)
    for key, segment in transform.choice_sites():
        selector = config.choice_for(key)
        if selector is not None:
            here = selector.pick(problem_size)
            above = (here + 1) % len(segment.options)
            other.set_choice(key, Selector(((problem_size + 1, here), (None, above))))
    return other


def one_entry_changed(config, other, draw):
    """``config`` with one of its or ``other``'s entries (a choice, a
    tunable or a leveled tunable) set as in ``other``."""
    changed = config.copy()
    entries = sorted(
        (section, key)
        for section in ("choices", "tunables", "leveled_tunables")
        for key in {**getattr(config, section), **getattr(other, section)}
    )
    if entries:
        section, key = draw(st.sampled_from(entries))
        value = getattr(other, section).get(key)
        getattr(changed, section).pop(key, None)
        if value is not None:
            getattr(changed, section)[key] = value
    return changed


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(sorted(KINDS)).flatmap(programs),
    salt=st.integers(0, 9),
    data=st.data(),
)
def test_a_plan_reused_for_equal_decisions_equals_one_built_fresh(case, salt, data):
    """Plan ``config``, then a config one entry away from it: whether it
    is served by the first plan or built, it equals, field by field, the
    plan a new compilation builds for it — or both raise alike.  Then
    ``beside`` that config misses its key and is served by its plan, and
    the config with ``__fuse__`` flipped plans the same ``problem_size``
    and ``inline``: fusion moves no selector or cutoff."""
    transform = compile_program(case.source).transform(case.name)
    fresh = compile_program(case.source).transform(case.name)
    first = drawn_config(data.draw, transform)
    config = one_entry_changed(first, drawn_config(data.draw, transform), data.draw)
    shapes = [view.shape for view in transform.bind_inputs(case.lanes[0]).values()]
    try:
        transform.plan(first, shapes, case.sizes)
    except PetaBricksError:
        pass
    try:
        plan = transform.plan(config, shapes, case.sizes)
    except PetaBricksError as error:
        with pytest.raises(PetaBricksError) as again:
            fresh.plan(config, shapes, case.sizes)
        assert str(again.value) == str(error)
        return
    assert comparable(fresh.plan(config, shapes, case.sizes)) == comparable(plan)
    other = beside(config, transform, plan.problem_size, salt)
    assert other.key() != config.key()
    assert transform.plan(other, shapes, case.sizes) is plan
    flipped = config.copy()
    flipped.set_tunable(f"{case.name}.__fuse__", not config.knob(case.name, FUSE))
    try:
        other_plan = transform.plan(flipped, shapes, case.sizes)
    except PetaBricksError:
        return
    assert (other_plan.problem_size, other_plan.inline) == (plan.problem_size, plan.inline)


def test_ladder_configs_that_differ_above_a_frame_share_its_plan():
    """Ladders that differ only above a frame's size share its plan: one
    that differs above the top frame (8192 cells) runs on the first
    ladder's plans alone, and exactly as on a fresh compilation; one that
    differs from 2048 cells up shares the 512-key frame but not the top."""
    transform = sort.build_program().transform("Sort")
    keys = np.random.default_rng(5).uniform(0, 1, 4096)
    first = ladder_config()
    transform.run([keys], first)
    above = ChoiceConfig()
    above.set_choice(
        sort.SORT_SITE, Selector(((128, 0), (2048, 3), (16384, 2), (None, 1)))
    )
    assert above.key() != first.key()
    sink = TraceSink(capture_events=False)
    reused = transform.run([keys], above, sink=sink)
    assert sink.counter("exec.plan_misses") == 0
    assert sink.counter("exec.plan_hits") > 1
    built = sort.build_program().transform("Sort").run([keys], above)
    assert task_list(reused.graph) == task_list(built.graph)
    np.testing.assert_array_equal(reused.output(), built.output())
    top = ChoiceConfig()
    top.set_choice(sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 1))))
    assert transform.plan(top, [(512,)]) is transform.plan(first, [(512,)])
    assert transform.plan(top, [(4096,)]) is not transform.plan(first, [(4096,)])
