"""Tests for the lowered rule-execution paths (repro.engine_fast).

The contract under test: the closure path is bit-for-bit identical to
the interpreter — outputs, rule application counts, task structure, and
work accounting — and the vector path is bit-identical in outputs and
application counts while charging its own (cheaper) work model.
"""

import time

import numpy as np
import pytest

from repro.analysis import check_source
from repro.autotuner.consistency import observe
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.codegen import Site, specialize
from repro.engine_fast import (
    LEAF_CLOSURE,
    LEAF_INTERP,
    LEAF_VECTOR,
    lower_rule,
)
from repro.language.errors import PetaBricksError
from repro.observe import TraceSink
from tests.strategies import drop_fallbacks, planned

ELEMENTWISE = """
transform Elementwise
from A[n+1, m+1]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a, A.cell(x+1, y+1) d) {
    b = a * 0.5 + d * 0.25 + 1.0;
  }
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

CHECKER = """
transform Checker
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i % 2 == 0 { b = a * 2; }
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""


def _leaf_config(transform, leaf, **tunables):
    config = ChoiceConfig()
    config.set_tunable(f"{transform}.__leaf_path__", leaf)
    for name, value in tunables.items():
        config.set_tunable(f"{transform}.{name}", value)
    return config


def _run_all_paths(transform, inputs, base_config=None):
    results = {}
    for leaf in (LEAF_INTERP, LEAF_CLOSURE, LEAF_VECTOR):
        config = ChoiceConfig(
            choices=dict(base_config.choices) if base_config else {},
            tunables=dict(base_config.tunables) if base_config else {},
        )
        config.set_tunable(f"{transform.name}.__leaf_path__", leaf)
        results[leaf] = transform.run(inputs, config)
    return results


class TestClosureLowering:
    def test_dsl_rules_get_kernels(self):
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        # every rule is the primary of some site
        assert {s.rule.label for s in t.sites.values()} == {
            rule.label for rule in t.ir.rules
        }
        for site in t.sites.values():
            kernel = site.kernel
            assert kernel is not None
            assert "def _maker" in kernel.source

    def test_three_paths_bitwise_equal(self):
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        a = np.random.default_rng(0).uniform(-1, 1, 40)
        for option in (0, 1):
            base = ChoiceConfig()
            base.set_choice("RollingSum.B.0", Selector.static(0))
            base.set_choice("RollingSum.B.1", Selector.static(option))
            results = _run_all_paths(t, {"A": a}, base)
            reference = results[LEAF_INTERP]
            for leaf in (LEAF_CLOSURE, LEAF_VECTOR):
                result = results[leaf]
                assert (
                    result.output().tobytes()
                    == reference.output().tobytes()
                )
                assert (
                    result.rule_applications
                    == reference.rule_applications
                )

    def test_closure_matches_interp_work_and_tasks(self):
        """The closure path must be observationally identical to the
        interpreter: same task labels/deps and the same total work."""
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        a = np.arange(24.0)
        results = _run_all_paths(t, {"A": a})
        interp, closure = results[LEAF_INTERP], results[LEAF_CLOSURE]
        assert closure.graph.total_work() == interp.graph.total_work()
        assert len(closure.graph) == len(interp.graph)
        label_deps = lambda g: [
            (task.label, tuple(task.deps)) for task in g.tasks
        ]
        assert label_deps(closure.graph) == label_deps(interp.graph)

    def test_closure_is_at_least_twice_as_fast_as_interp(self):
        """The closure leaf's reason to exist, as wall time: about 60x on
        this 40 x 40 stencil (interp about 30 ms), so 2x leaves room for
        a noisy box.  Each path is timed as the fastest of 3 runs."""
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        inputs = {"A": np.random.default_rng(7).uniform(-4, 4, (41, 41))}
        fastest = {}
        for leaf in (LEAF_INTERP, LEAF_CLOSURE):
            config = _leaf_config("Elementwise", leaf)
            times = []
            for _ in range(3):
                start = time.perf_counter()
                t.run(inputs, config)
                times.append(time.perf_counter() - start)
            fastest[leaf] = min(times)
        assert 2 * fastest[LEAF_CLOSURE] <= fastest[LEAF_INTERP], fastest

    def test_closure_counter(self):
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        sink = TraceSink()
        t.run({"A": np.arange(8.0)}, _leaf_config("RollingSum", 1), sink=sink)
        assert sink.counter("exec.closure_calls") == 8

    def test_division_by_zero_matches_interp(self):
        source = """
        transform Div
        from A[n]
        to B[n]
        {
          to (B.cell(i) b) from (A.cell(i) a) { b = 1.0 / a; }
        }
        """
        t = compile_program(source).transform("Div")
        a = np.array([1.0, 0.0, 2.0])
        for leaf in (LEAF_INTERP, LEAF_CLOSURE, LEAF_VECTOR):
            with pytest.raises(PetaBricksError, match="division by zero"):
                t.run({"A": a}, _leaf_config("Div", leaf))

    def test_compound_assign_parity(self):
        source = """
        transform Acc
        from A[n]
        to B[n]
        {
          to (B.cell(i) b) from (A.cell(i) a) { b = a; b += 2 * a; b *= 0.5; }
        }
        """
        t = compile_program(source).transform("Acc")
        a = np.random.default_rng(1).uniform(-3, 3, 17)
        results = _run_all_paths(t, {"A": a})
        blobs = {
            leaf: r.output().tobytes() for leaf, r in results.items()
        }
        assert blobs[LEAF_CLOSURE] == blobs[LEAF_INTERP]
        assert blobs[LEAF_VECTOR] == blobs[LEAF_INTERP]

    def test_meta_rule_residual_parity(self):
        """Where-clause meta-rules run their predicate through the
        lowered residual and fall back per instance, exactly like the
        interpreter."""
        t = compile_program(CHECKER).transform("Checker")
        a = np.arange(10.0)
        base = ChoiceConfig()
        # Select the meta-rule option (restricted rule0 + fallback rule1)
        (segment,) = t.grid.segments["B"]
        meta = [
            i
            for i, opt in enumerate(segment.options)
            if opt.fallback is not None
        ][0]
        base.set_choice("Checker.B.0", Selector.static(meta))
        results = _run_all_paths(t, {"A": a}, base)
        expected = np.where(np.arange(10) % 2 == 0, a * 2, a)
        for leaf, result in results.items():
            assert np.array_equal(result.output(), expected), leaf
            assert (
                result.rule_applications
                == results[LEAF_INTERP].rule_applications
            )

    def test_whole_rule_not_lowered(self):
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        whole = [r for r in t.ir.rules if not r.is_instance_rule]
        for rule in whole:
            assert lower_rule(rule, t.ir) is None


#: One program, three iteration orders.  ``rule_vars`` are (i, j, k)
#: everywhere (first appearance in the to-coordinates), but: rule1 in
#: the k = 1 slab reads only the k = 0 slab — no self-dependency, all
#: three variables free, iterated (i, j, k); rule1 for k >= 2 chains on
#: k, iterated (k; i, j); rule2 reads both i - 1 and i + 1 of the
#: previous plane, so dimension 0 cannot lead the lexicographic order
#: and the depgraph priority (1, 2, 0) iterates it (k; j, i).  Every
#: body uses the variable *values*, so a swapped argument shows in the
#: output bytes.
WAVE = """
transform Wave
from A[n, m]
to S[n, m, p]
{
  to (S.cell(i, j, 0) s) from (A.cell(i, j) a) { s = a; }
  to (S.cell(i, j, k) s) from (S.cell(i, j, k - 1) c) {
    s = c + i * 100 + j * 10 + k;
  }
  primary to (S.cell(i, j, k) s)
  from (S.cell(i - 1, j, k - 1) l, S.cell(i + 1, j, k - 1) r,
        S.cell(i, j, k - 2) o) %s{
    s = (l + r) / 2 + o + i * 100 + j * 10 + k;
  }
}
"""
WAVE_PLAIN = WAVE % ""
#: rule2 as a meta-rule: rejected instances fall back to rule1, which
#: must be handed an env naming i, j and k correctly
WAVE_WHERE = WAVE % "where (i + j * 2 + k) % 3 != 0 "


class TestClosureParameterOrder:
    """The closure's parameters follow each site's iteration order
    (chain variables, then free), not the rule's declaration order."""

    INPUT = np.arange(20.0).reshape(5, 4)

    def observe(self, transform, leaf):
        config = _leaf_config("Wave", leaf, __seq_cutoff__=0)
        return observe(transform, {"A": self.INPUT}, config, {"p": 5})

    def test_iteration_orders_differ_from_declaration_order(self):
        t = compile_program(WAVE_PLAIN).transform("Wave")
        self.observe(t, LEAF_CLOSURE)
        orders = {}
        for site in t.sites.values():
            kernel, params = site.kernel, sum(site.split, ())
            assert kernel is not None and kernel.params == params
            orders.setdefault(site.rule.label, set()).add(params)
        assert orders == {
            "rule0": {("i", "j")},
            # one rule, two sites, two orders: two kernels
            "rule1": {("i", "j", "k"), ("k", "i", "j")},
            "rule2": {("k", "j", "i")},
        }
        for rule in t.ir.rules:
            assert tuple(rule.rule_vars) == ("i", "j", "k")[: len(rule.rule_vars)]

    @pytest.mark.parametrize("source", [WAVE_PLAIN, WAVE_WHERE])
    def test_three_paths_agree(self, source):
        t = compile_program(source).transform("Wave")
        interp = self.observe(t, LEAF_INTERP)
        closure = self.observe(t, LEAF_CLOSURE)
        vector = self.observe(t, LEAF_VECTOR)
        assert (closure.outputs, closure.rule_applications, closure.graph) == (
            interp.outputs, interp.rule_applications, interp.graph
        )
        assert (vector.outputs, vector.rule_applications) == (
            interp.outputs, interp.rule_applications
        )
        # the reference, computed directly from the recurrences
        a, p = self.INPUT, 5
        n, m = a.shape
        s = np.zeros((n, m, p))
        s[:, :, 0] = a
        for k in range(1, p):
            for i in range(n):
                for j in range(m):
                    tag = i * 100 + j * 10 + k
                    interior = k >= 2 and 0 < i < n - 1
                    if interior and (
                        source is WAVE_PLAIN or (i + j * 2 + k) % 3 != 0
                    ):
                        s[i, j, k] = (
                            (s[i - 1, j, k - 1] + s[i + 1, j, k - 1]) / 2
                            + s[i, j, k - 2]
                            + tag
                        )
                    else:
                        s[i, j, k] = s[i, j, k - 1] + tag
        assert interp.outputs["S"] == s.tobytes()

    def test_where_failure_names_the_instance_on_every_path(self):
        t = compile_program(WAVE_WHERE).transform("Wave")
        drop_fallbacks(t)
        expected = (
            "ExecutionError: Wave rule2: where-clause fails at "
            "{'k': 2, 'j': 0, 'i': 1} and no fallback exists"
        )
        for leaf in (LEAF_INTERP, LEAF_CLOSURE, LEAF_VECTOR):
            assert self.observe(t, leaf).error == expected


SHIFT = """
transform Shift
from A[n + 1]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i + 1) a) { b = a * 2; }
}
"""

#: a read coupling both variables: the compiler guards it with an
#: implicit residual clause (``x + y < n + 2``), so the cells it rejects
#: would bind ``g`` outside ``A``
GUARDED = """
transform Guarded
from A[n + 2, m + 2]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x + y, y) g) { b = g * 2; }
  to (B.cell(x, y) b) from (A.cell(x, y) r) { b = r - 0.5; }
}
"""


class TestHoistedChecks:
    """Where the closure kernel evaluates a binding's bounds check: at
    the extremes of the step's box, ahead of the loop, unless a
    where-clause decides which cells bind at all."""

    def run_shift(self, leaf, lo, hi):
        """Shift on five cells with the range of ``i`` moved to ``[lo,
        hi)`` once the program is compiled: the schedule walk never
        leaves a view, so the geometry is made to.  Returns the error,
        which cells were written and the step's blocks."""
        t = compile_program(SHIFT).transform("Shift")
        config = _leaf_config("Shift", leaf, __block_size__=2)
        ranges = Site.ranges
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                Site, "ranges",
                lambda site, env, bounds: {
                    **ranges(site, env, bounds), "i": (lo, hi)
                },
            )
            seen = observe(t, {"A": np.arange(6.0)}, config)
            (step,) = t.plan(config, [(6,)]).steps
        (written,) = seen.writes.values()
        return seen.error, np.frombuffer(written, bool).tolist(), step.blocks

    def test_source_has_its_checks_ahead_of_the_loop(self):
        t = compile_program(SHIFT).transform("Shift")
        (site,) = t.sites.values()
        head, loop = site.kernel.source.split("for (_s_i, ) in _instances:")
        assert head.count("raise IndexError") == 2  # b and a
        assert "_first_i" in head and "_last_i" in head
        assert "if" not in loop and "raise" not in loop

    def test_an_out_of_view_step_aborts_before_its_first_cell(self):
        """One cell too many: the interpreter writes the five good cells
        and stops at the sixth; the closure's hoisted check — the same
        ``IndexError``, the text its per-cell check always had — stops
        the step in its first block, nothing written."""
        error, written, _ = self.run_shift(LEAF_INTERP, 0, 6)
        assert error.startswith("IndexError: ") and written == [True] * 5
        error, written, _ = self.run_shift(LEAF_CLOSURE, 0, 6)
        assert error == "IndexError: Shift.rule0: cell binding b outside view"
        assert written == [False] * 5

    def test_an_empty_box_evaluates_no_check(self):
        """A zero-extent range far outside the view: no block, so no
        call, so no check."""
        for leaf in (LEAF_INTERP, LEAF_CLOSURE):
            error, written, blocks = self.run_shift(leaf, 12, 12)
            assert error is None and written == [False] * 5
            assert blocks == ()

    def test_rejected_cells_may_bind_outside_the_view(self):
        """A where-restricted rule keeps every check in the loop, behind
        the clause: the cells it rejects never bind, so they never
        raise."""
        t = compile_program(GUARDED).transform("Guarded")
        base = ChoiceConfig()
        base.set_choice("Guarded.B.0", Selector.static(1))
        a = np.arange(64.0).reshape(8, 8)
        results = _run_all_paths(t, {"A": a}, base)
        x, y = np.indices((6, 6))
        inside = x + y < 8
        expected = np.where(
            inside, a[np.minimum(x + y, 7), y] * 2, a[:6, :6] - 0.5
        )
        assert not inside.all()
        for leaf, result in results.items():
            assert np.array_equal(result.output(), expected), leaf
        site = t.sites["B.0", 0]
        head, loop = site.kernel.source.split("for (_s_x, _s_y, ) in _instances:")
        assert "raise" not in head
        assert loop.index("_reject(_s_x, _s_y)") < loop.index("raise IndexError")


class TestWorkCharged:
    """``recorder.work_charged`` counts each charge itself (it used to
    count ``int(charge)``, dropping every fractional part), so it sums
    to the recorded graph's total work."""

    def charged(self, transform, inputs, config):
        sink = TraceSink(capture_events=False)
        result = transform.run(inputs, config, sink=sink)
        return sink.counter("recorder.work_charged"), result.graph.total_work()

    @pytest.mark.parametrize("leaf", [LEAF_INTERP, LEAF_CLOSURE, LEAF_VECTOR])
    def test_blur_and_rollingsum(self, leaf):
        rng = np.random.default_rng(3)
        blur = compile_program(BLUR).transform("Blur")
        config = _leaf_config("Blur", leaf, __seq_cutoff__=0)
        counted, total = self.charged(blur, [rng.uniform(-4, 4, (34, 34))], config)
        assert counted == total > 0
        rolling = compile_program(ROLLINGSUM).transform("RollingSum")
        for option in (0, 1):
            config = _leaf_config("RollingSum", leaf, __seq_cutoff__=0)
            config.set_choice("RollingSum.B.1", Selector.static(option))
            counted, total = self.charged(rolling, [rng.uniform(-1, 1, 96)], config)
            assert counted == total > 0

    def test_sort_charges_fractions(self):
        from repro.apps import sort

        config = ChoiceConfig()
        config.set_choice(
            sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 2)))
        )
        transform = sort.build_program().transform("Sort")
        keys = np.random.default_rng(3).uniform(0.0, 1.0, 4096)
        counted, total = self.charged(transform, [keys], config)
        assert total != int(total)  # the truncating counter read 81 456
        # one running sum against a sum of per-task sums: equal up to
        # the association of the additions
        assert counted == pytest.approx(total, rel=1e-12)


class TestVectorLeaf:
    def test_vector_bitwise_equal_and_counters(self):
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        a = np.random.default_rng(2).uniform(-4, 4, (13, 15))
        results = _run_all_paths(t, {"A": a})
        assert (
            results[LEAF_VECTOR].output().tobytes()
            == results[LEAF_INTERP].output().tobytes()
        )
        sink = TraceSink()
        t.run({"A": a}, _leaf_config("Elementwise", 2), sink=sink)
        assert sink.counter("exec.vectorized_blocks") >= 1
        assert sink.counter("exec.vectorized_cells") == 12 * 14
        assert sink.counter("exec.vector_fallbacks") == 0

    def test_vector_task_graph_is_smaller(self):
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        a = np.zeros((40, 40))
        results = _run_all_paths(t, {"A": a})
        assert len(results[LEAF_VECTOR].graph) < len(
            results[LEAF_INTERP].graph
        )
        assert (
            results[LEAF_VECTOR].graph.total_work()
            < results[LEAF_INTERP].graph.total_work()
        )

    def test_cutoff_demotes_to_closure(self):
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        a = np.zeros((9, 9))
        config = _leaf_config(
            "Elementwise", 2, __vectorize_cutoff__=10_000
        )
        sink = TraceSink()
        result = t.run({"A": a}, config, sink=sink)
        assert sink.counter("exec.vectorized_blocks") == 0
        assert sink.counter("exec.vector_fallbacks") >= 1
        assert sink.counter("exec.closure_calls") == 8 * 8
        assert np.allclose(
            result.output(), a[:-1, :-1] * 0.5 + a[1:, 1:] * 0.25 + 1.0
        )

    def test_region_reduction_rejected(self):
        t = compile_program(ROLLINGSUM).transform("RollingSum")
        segment = t.grid.segments["B"][1]
        plan, reason = t.site(segment, t.ir.rules[0]).vector
        assert plan is None and "region" in reason
        plan, reason = t.site(segment, t.ir.rules[1]).vector
        assert plan is None and "sequential chain" in reason

    def test_negative_direction_chain_with_vector_free_vars(self):
        """A rule with one sequential axis and one parallel axis
        vectorizes the parallel axis only, per chain step."""
        source = """
        transform Sweep
        from A[n, m]
        to B[n, m]
        {
          to (B.cell(x, y) b) from (A.cell(x, y) a, B.cell(x, y-1) p) {
            b = a + p;
          }
          to (B.cell(x, 0) b) from (A.cell(x, 0) a) { b = a; }
        }
        """
        t = compile_program(source).transform("Sweep")
        a = np.random.default_rng(3).uniform(-1, 1, (6, 7))
        results = _run_all_paths(t, {"A": a})
        assert (
            results[LEAF_VECTOR].output().tobytes()
            == results[LEAF_INTERP].output().tobytes()
        )

    def test_geometry_cache_hits_across_runs(self):
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        a = np.zeros((10, 10))
        sink1 = TraceSink()
        t.run({"A": a}, sink=sink1)
        misses = sink1.counter("exec.geom_cache_misses")
        assert misses >= 1
        sink2 = TraceSink()
        t.run({"A": a}, sink=sink2)
        assert sink2.counter("exec.geom_cache_misses") == 0
        assert sink2.counter("exec.geom_cache_hits") == misses


BLUR = """
transform Blur
from A[n+2, m+2]
to B[n, m]
{
  to (B.cell(x, y) b)
  from (A.cell(x, y) nw, A.cell(x+1, y+1) c, A.cell(x+2, y+2) se) {
    b = c * 0.5 + nw * 0.25 + se * 0.25;
  }
}
"""

PIPELINE = """
transform Pipeline
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(x, y) t) from (A.cell(x, y) a) { t = a * 2.0 + 1.0; }
  to (B.cell(x, y) b) from (T.cell(x, y) t) { b = t * 1.5 - 0.5; }
}
"""


class TestAllocationDiscipline:
    """A warm vector-leaf run allocates its output and a few strip-sized
    scratch buffers — never a full-extent temporary per sub-expression.
    Measured with tracemalloc (NumPy reports its buffers), not timed."""

    #: most scratch buffers either body holds at once
    SLOTS = 2
    #: task graph, views, result object
    SLACK = 128 * 1024

    @pytest.mark.parametrize(
        "source, name, side, knobs",
        [
            pytest.param(BLUR, "Blur", 514, {}, id="blur"),
            pytest.param(
                PIPELINE, "Pipeline", 512, {"__fuse__": 1}, id="fused-pipeline"
            ),
        ],
    )
    def test_peak_is_output_plus_strip_scratch(self, source, name, side, knobs):
        import tracemalloc

        from repro.engine_fast.vectorize import STRIP_BYTES

        t = compile_program(source).transform(name)
        config = _leaf_config(name, LEAF_VECTOR, **knobs)
        inputs = [np.random.default_rng(7).uniform(-4.0, 4.0, (side, side))]
        t.run(inputs, config)  # warm: plans, geometry, fused variant
        tracemalloc.start()
        try:
            result = t.run(inputs, config)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output_bytes = sum(m.data.nbytes for m in result.outputs.values())
        assert output_bytes == 512 * 512 * 8
        assert peak <= output_bytes + self.SLOTS * STRIP_BYTES + self.SLACK

    def test_a_vector_site_retains_nothing_sized_by_its_cells(self):
        """``plan()`` + a first run of vector Blur at 1024 x 1024 leave
        under 1 MiB behind once the result is dropped: ranges, one value
        list per variable, the plan and the compiled step.  (The
        instance product — one tuple per cell, ~70 MiB here — used to
        be built with the geometry and pinned by the geometry cache,
        though only the per-cell driver ever read it.)"""
        import gc
        import tracemalloc

        t = compile_program(BLUR).transform("Blur")
        config = _leaf_config("Blur", LEAF_VECTOR)
        image = np.random.default_rng(7).uniform(-4.0, 4.0, (1026, 1026))
        tracemalloc.start()
        try:
            t.plan(config, [image.shape])
            result = t.run([image], config)
            assert result.rule_applications == 1024 * 1024
            del result
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1024 * 1024

    def test_instance_products_are_built_once_by_the_first_per_cell_run(self):
        """The product lives on the shared ``Geometry``: a vector run
        never creates it, the first closure run does, and every later
        run — under any config's plan — reads that same tuple."""
        t = compile_program(BLUR).transform("Blur")
        image = np.random.default_rng(7).uniform(-4.0, 4.0, (66, 66))
        t.run([image], _leaf_config("Blur", LEAF_VECTOR))
        (geometry,) = t._geom_cache._data.values()
        assert geometry.step_volume == 64 * 64
        assert "free_products" not in vars(geometry)
        products = []
        for config in (
            _leaf_config("Blur", LEAF_CLOSURE),
            _leaf_config("Blur", LEAF_CLOSURE, __block_size__=7),
            _leaf_config("Blur", LEAF_INTERP),
        ):
            sink = TraceSink(capture_events=False)
            result = t.run([image], config, sink=sink)
            assert result.rule_applications == 64 * 64
            if config.tunables["Blur.__leaf_path__"] == LEAF_CLOSURE:
                assert sink.counter("exec.closure_calls") == 64 * 64
            products.append(vars(geometry)["free_products"])
        assert len(t._geom_cache) == 1 and len(planned(t)) == 4
        assert all(p is products[0] for p in products)
        assert products[0][:2] == ((0, 0), (0, 1)) and len(products[0]) == 4096


class TestChoiceIntegration:
    def test_leveled_leaf_path_switches_by_size(self):
        """The leaf path is a per-size algorithmic choice: a leveled
        tunable can pick vector for large runs, interp for small."""
        t = compile_program(ELEMENTWISE).transform("Elementwise")
        config = ChoiceConfig()
        config.set_leveled_tunable(
            "Elementwise.__leaf_path__", Selector(((64, 0), (None, 2)))
        )
        small, large = np.zeros((5, 5)), np.zeros((30, 30))
        sink = TraceSink()
        t.run({"A": small}, config, sink=sink)
        assert sink.counter("exec.vectorized_blocks") == 0
        sink = TraceSink()
        t.run({"A": large}, config, sink=sink)
        assert sink.counter("exec.vectorized_blocks") >= 1

    def test_specialized_program_uses_kernels(self):
        program = compile_program(ELEMENTWISE)
        config = _leaf_config("Elementwise", 2)
        static = specialize(program, config)
        a = np.random.default_rng(4).uniform(-1, 1, (8, 9))
        sink = TraceSink()
        result = static.transform("Elementwise").run({"A": a}, sink=sink)
        reference = program.transform("Elementwise").run(
            {"A": a}, _leaf_config("Elementwise", 0)
        )
        assert result.output().tobytes() == reference.output().tobytes()
        # Tracing a specialized transform records like the dynamic run.
        dynamic = TraceSink()
        program.transform("Elementwise").run({"A": a}, config, sink=dynamic)
        assert sink.counter("exec.vectorized_cells") > 0
        assert sink.counter("exec.vectorized_cells") == dynamic.counter(
            "exec.vectorized_cells"
        )

    def test_check_reports_leaf_path_diagnostics(self):
        report = check_source(ELEMENTWISE)
        codes = {d.code for d in report}
        assert "PB501" in codes
        assert report.clean  # INFOs don't dirty the report
        report = check_source(ROLLINGSUM)
        info = {d.code for d in report}
        assert "PB502" in info

    def test_tuner_searches_leaf_path(self):
        from repro.autotuner import Evaluator, GeneticTuner
        from repro.runtime import MACHINES

        program = compile_program(ROLLINGSUM)

        def gen(size, rng):
            return [np.array([rng.uniform(-1, 1) for _ in range(size)])]

        evaluator = Evaluator(program, "RollingSum", gen, MACHINES["xeon8"])
        tuner = GeneticTuner(
            evaluator,
            min_size=8,
            max_size=32,
            population_size=2,
            parents=1,
            tunable_rounds=1,
            refine_passes=0,
        )
        config = tuner.tune().config
        keys = set(config.tunables) | set(config.leveled_tunables)
        assert "RollingSum.__leaf_path__" in keys
        assert "RollingSum.__vectorize_cutoff__" in keys
