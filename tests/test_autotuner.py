"""Tests for the autotuner: n-ary search, candidates, the genetic tuner,
consistency checking, and accuracy utilities.

The genetic-tuner tests use a toy recursive TreeSum transform built with
the Python builder API in ``tests/strategies.py`` (also exercising
builder + native bodies end to end): a sequential direct rule versus a
parallel recursive split.  The tuner must discover the paper's signature
result — a hybrid composition with an architecture-dependent cutoff —
from scratch.
"""

import random

import numpy as np
import pytest

from repro.autotuner import (
    Candidate,
    CandidateFailure,
    ConsistencyError,
    Evaluator,
    GeneticTuner,
    add_level,
    check_consistency,
    fastest_per_bin,
    nary_search,
    pareto_front,
    seed_population,
)
from repro.autotuner.accuracy import Scored, accuracy_ratio
from repro.autotuner.candidates import dedupe, set_tunable
from repro.autotuner.evaluation import config_signature
from repro.autotuner.tuner import tune_limits
from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.config import site_key
from repro.runtime import MACHINES
from tests.strategies import build_treesum, treesum_inputs


SITE = site_key("TreeSum", "S", 0)


@pytest.fixture(scope="module")
def treesum():
    return build_treesum()


def each(cost):
    """The n-ary objective that scores every probe value with ``cost``."""
    return lambda values: [cost(v) for v in values]


class TestNarySearch:
    def test_convex(self):
        best, cost = nary_search(each(lambda v: (v - 37) ** 2), 1, 1000)
        assert best == 37 and cost == 0

    def test_arity_one_degrades_to_endpoints(self):
        # Regression: arity == 1 with hi > lo used to divide by zero.
        from repro.autotuner.nary import _probe_points

        assert _probe_points(2, 100, 1) == [2, 100]
        best, cost = nary_search(each(lambda v: (v - 90) ** 2), 2, 100, arity=1)
        assert (best, cost) == (100, 100)

    def test_zero_based_range(self):
        # Regression: binary knobs like __fuse__ span [0, 1]; zero used
        # to be rejected outright (it breaks geometric spacing).
        from repro.autotuner.nary import _probe_points

        assert _probe_points(0, 1, 4) == [0, 1]
        assert _probe_points(0, 100, 4)[0] == 0
        assert nary_search(each(lambda v: (v - 0) ** 2), 0, 1)[0] == 0
        assert nary_search(each(lambda v: (v - 1) ** 2), 0, 1)[0] == 1
        assert nary_search(each(lambda v: (v - 37) ** 2), 0, 1000)[0] == 37

    def test_probe_points_equal_bounds(self):
        from repro.autotuner.nary import _probe_points

        assert _probe_points(7, 7, 4) == [7]
        assert _probe_points(7, 7, 1) == [7]

    def test_probe_points_inverted_bounds(self):
        from repro.autotuner.nary import _probe_points

        assert _probe_points(9, 3, 4) == [9]

    def test_probe_points_tiny_range(self):
        from repro.autotuner.nary import _probe_points

        assert _probe_points(1, 2, 4) == [1, 2]
        assert _probe_points(3, 4, 2) == [3, 4]

    def test_probe_points_rejects_negative(self):
        from repro.autotuner.nary import _probe_points

        with pytest.raises(ValueError):
            _probe_points(-1, 10, 4)

    def test_objective_scores_one_batch_per_round(self):
        batches = []

        def objective(values):
            batches.append(list(values))
            return [(v - 37) ** 2 for v in values]

        assert nary_search(objective, 1, 1000, arity=4, rounds=4) == (37, 0)
        assert batches[0] == [1]  # the lower bound, before any round
        assert any(len(batch) > 1 for batch in batches)
        # every batch holds distinct, ascending, not-yet-memoized values
        seen = set()
        for batch in batches:
            assert batch == sorted(set(batch))
            assert not (set(batch) & seen)
            seen.update(batch)

    def test_objective_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="objective returned 1 costs"):
            nary_search(lambda values: [0.0], 1, 100)

    def test_boundary_minimum(self):
        best, _ = nary_search(each(lambda v: v), 1, 100)
        assert best == 1

    def test_decreasing(self):
        best, _ = nary_search(each(lambda v: -v), 1, 100)
        assert best == 100

    def test_single_point(self):
        assert nary_search(each(lambda v: v), 5, 5) == (5, 5)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            nary_search(each(lambda v: v), 10, 5)

    def test_memoizes(self):
        calls = []

        def objective(v):
            calls.append(v)
            return abs(v - 50)

        nary_search(each(objective), 1, 128, arity=4, rounds=4)
        assert len(calls) == len(set(calls))


class TestCandidates:
    def test_seeds_cover_all_options(self, treesum):
        seeds = seed_population(treesum.transform("TreeSum"))
        assert len(seeds) == 2
        picks = [c.config.choice_for(SITE).pick(10) for c in seeds]
        assert picks == [0, 1]

    def test_add_level(self):
        base = Candidate(config=ChoiceConfig())
        base.config.set_choice(SITE, Selector.static(0))
        mutated = add_level(base, SITE, 1, 64)
        selector = mutated.config.choice_for(SITE)
        assert selector.pick(10) == 0
        assert selector.pick(100) == 1

    def test_add_level_noop_when_same_option(self):
        base = Candidate(config=ChoiceConfig())
        base.config.set_choice(SITE, Selector.static(1))
        assert add_level(base, SITE, 1, 64) is None

    def test_add_level_rejects_nonmonotone_threshold(self):
        base = Candidate(config=ChoiceConfig())
        base.config.set_choice(SITE, Selector(((64, 0), (None, 1))))
        assert add_level(base, SITE, 0, 32) is None

    def test_add_level_stacks(self):
        base = Candidate(config=ChoiceConfig())
        base.config.set_choice(SITE, Selector.static(0))
        first = add_level(base, SITE, 1, 32)
        second = add_level(first, SITE, 0, 128)
        selector = second.config.choice_for(SITE)
        assert selector.pick(10) == 0
        assert selector.pick(64) == 1
        assert selector.pick(1000) == 0

    def test_clone_is_independent(self):
        base = Candidate(config=ChoiceConfig())
        base.config.set_tunable("x", 1)
        clone = base.clone("child")
        clone.config.set_tunable("x", 2)
        assert base.config.tunables["x"] == 1

    def test_mutations_keep_leveled_tunables(self):
        """``clone`` used to rebuild the config from choices and flat
        tunables only, so any mutation of a candidate carrying a
        size-leveled tunable silently dropped it."""
        base = Candidate(config=ChoiceConfig())
        base.config.set_choice(SITE, Selector.static(0))
        leveled = Selector(((64, 2), (None, 5)))
        base.config.set_leveled_tunable("TreeSum.iters", leveled)
        for mutated in (
            set_tunable(base, "TreeSum.__block_size__", 16),
            add_level(base, SITE, 1, 64),
        ):
            assert mutated.config.leveled_tunables == {"TreeSum.iters": leveled}
            assert mutated.config.key() != base.config.key()
        same = base.clone("copy")
        assert same.config.key() == base.config.key()
        assert config_signature(same.config) == config_signature(base.config)
        same.config.leveled_tunables.clear()  # a copy, not an alias
        assert base.config.leveled_tunables == {"TreeSum.iters": leveled}

    def test_dedupe(self):
        a = Candidate(config=ChoiceConfig())
        b = Candidate(config=ChoiceConfig())
        c = set_tunable(a, "k", 3)
        assert len(dedupe([a, b, c])) == 2


class TestEvaluator:
    def test_time_is_deterministic(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        config = ChoiceConfig()
        assert ev.time(config, 64) == ev.time(config, 64)

    def test_cache_counts_evaluations(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        config = ChoiceConfig()
        ev.time(config, 32)
        ev.time(config, 32)
        assert ev.evaluations == 1

    def test_parallel_split_beats_direct_on_8_cores(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        direct = ChoiceConfig()
        direct.set_choice(SITE, Selector.static(0))
        hybrid = ChoiceConfig()
        # split down to 4096-element chunks, then direct.
        hybrid.set_choice(SITE, Selector(((4097, 0), (None, 1))))
        size = 65536
        assert ev.time(hybrid, size) < ev.time(direct, size)

    def test_direct_wins_on_1_core(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon1"])
        direct = ChoiceConfig()
        direct.set_choice(SITE, Selector.static(0))
        hybrid = ChoiceConfig()
        hybrid.set_choice(SITE, Selector(((4097, 0), (None, 1))))
        size = 65536
        assert ev.time(direct, size) <= ev.time(hybrid, size)

    def test_time_order_independent(self, treesum):
        """Regression (ISSUE 2): a measurement is a pure function of
        (seed, signature, size, trial) — interleaving, repeating, or
        reordering evaluations must not change any value."""
        direct = ChoiceConfig()
        direct.set_choice(SITE, Selector.static(0))
        hybrid = ChoiceConfig()
        hybrid.set_choice(SITE, Selector(((257, 0), (None, 1))))
        plan_a = [(direct, 256), (direct, 512), (hybrid, 256), (hybrid, 512)]
        plan_b = [(hybrid, 512), (direct, 256), (hybrid, 512), (hybrid, 256),
                  (direct, 512), (direct, 256)]

        def run_plan(plan):
            ev = Evaluator(
                treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"]
            )
            times = {}
            for config, size in plan:
                times[(config.to_json(), size)] = ev.time(config, size)
            return times

        times_a, times_b = run_plan(plan_a), run_plan(plan_b)
        for key, value in times_a.items():
            assert times_b[key] == value

    def test_run_once_independent_of_history(self, treesum):
        """The same trial yields the same schedule no matter what ran
        before it on the same evaluator instance."""
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        hybrid = ChoiceConfig()
        hybrid.set_choice(SITE, Selector(((257, 0), (None, 1))))
        _, first = ev.run_once(hybrid, 2048, trial=0)
        for size in (64, 128, 4096):
            ev.time(ChoiceConfig(), size)
        _, again = ev.run_once(hybrid, 2048, trial=0)
        assert again.makespan == first.makespan
        assert again.steals == first.steals

    @pytest.mark.parametrize(
        "field, value", [("trials", 0), ("trials", -2), ("workers", 0)]
    )
    def test_refuses_counts_below_one(self, treesum, field, value):
        """Every candidate would fail (a division by zero trials, a
        scheduler with no worker) and the tuner report that none
        terminates: the constructor refuses instead, naming the field."""
        with pytest.raises(ValueError, match=f"^{field} must be >= 1"):
            Evaluator(
                treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"],
                **{field: value},
            )

    def test_inputs_are_generated_once_and_read_only(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        first = ev.inputs(64, 0)
        assert ev.inputs(64, 0) is first
        assert ev.inputs(64, 1) is not first
        ev.time(ChoiceConfig(), 64)
        assert ev.inputs(64, 0) is first
        (array,) = first
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
        regenerated = treesum_inputs(
            64, random.Random(ev.seed * 1000003 + 64 * 1009)
        )
        np.testing.assert_array_equal(array, regenerated[0])

    def test_measurement_seed_distinguishes_identity(self):
        from repro.autotuner.evaluation import measurement_seed

        base = measurement_seed(1, "sig", 64, 0)
        assert measurement_seed(1, "sig", 64, 0) == base
        assert measurement_seed(2, "sig", 64, 0) != base
        assert measurement_seed(1, "gis", 64, 0) != base
        assert measurement_seed(1, "sig", 65, 0) != base
        assert measurement_seed(1, "sig", 64, 1) != base

    def test_pure_recursion_fails(self, treesum):
        """A nonviable configuration is simulated once: asking again
        raises the recorded CandidateFailure without re-measuring."""
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        measured = []
        measure = ev.measure

        def counting_measure(*args):
            measured.append(args[1])
            return measure(*args)

        ev.measure = counting_measure
        config = ChoiceConfig()
        config.set_choice(SITE, Selector.static(1))
        for _ in range(3):
            with pytest.raises(CandidateFailure, match="recursion"):
                ev.time(config, 64)
        assert measured == [64]
        assert ev.evaluations == 0


class TestTuneLimits:
    def test_min_size_zero_is_refused_not_looped(self, treesum):
        # 0 doubles to 0: tune() would never leave its size schedule
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        with pytest.raises(ValueError, match="min_size must be an integer"):
            GeneticTuner(ev, min_size=0, max_size=64)

    @pytest.mark.parametrize(
        "limits",
        [
            (0, 64, 4, 1), (-8, 64, 4, 1), (16, 0, 4, 1), (16, 64, 0, 1),
            (16, 64, 4, 0), ("16", 64, 4, 1), (16, [64], 4, 1),
            (16, 64, 4.0, 1), (16, 64, 4, 1e400), (True, 64, 4, 1),
            (128, 64, 4, 1),
        ],
    )
    def test_rule_refuses(self, limits):
        with pytest.raises(ValueError):
            tune_limits(*limits)

    def test_rule_accepts(self):
        assert tune_limits(16, 16, 1) == (16, 16, 1, 1)
        assert tune_limits(np.int64(8), 64, 6, 2) == (8, 64, 6, 2)


class TestGeneticTuner:
    @pytest.fixture(scope="class")
    def tuned_xeon8(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"])
        tuner = GeneticTuner(
            ev, min_size=64, max_size=16384, population_size=6,
            tunable_rounds=0, refine_passes=0,
        )
        return ev, tuner.tune()

    def test_tuned_beats_both_seeds(self, treesum, tuned_xeon8):
        ev, result = tuned_xeon8
        size = 16384
        direct = ChoiceConfig()
        direct.set_choice(SITE, Selector.static(0))
        assert ev.time(result.config, size) <= ev.time(direct, size)

    def test_tuned_uses_hybrid_on_8_cores(self, tuned_xeon8):
        _, result = tuned_xeon8
        selector = result.config.choice_for(SITE)
        # Top level must be the parallel split, with the direct rule at
        # the bottom (a multi-level composition).
        assert selector.levels[-1][1] == 1
        assert selector.pick(1) == 0

    def test_history_recorded(self, tuned_xeon8):
        _, result = tuned_xeon8
        assert [log.size for log in result.history] == [
            64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
        ]

    def test_single_core_prefers_direct(self, treesum):
        ev = Evaluator(treesum, "TreeSum", treesum_inputs, MACHINES["xeon1"])
        tuner = GeneticTuner(
            ev, min_size=64, max_size=4096, population_size=6,
            tunable_rounds=0, refine_passes=0,
        )
        result = tuner.tune()
        selector = result.config.choice_for(SITE)
        assert selector.pick(4096) == 0

    def test_determinism_regression(self, treesum):
        """Byte-identical tuned config and identical history across two
        fresh tuner/evaluator instances: the evaluator's measurement seed
        is the only randomness in a search."""
        outcomes = []
        for _ in range(2):
            ev = Evaluator(
                treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"]
            )
            tuner = GeneticTuner(
                ev, min_size=64, max_size=1024, population_size=4,
                tunable_rounds=1, refine_passes=0,
            )
            result = tuner.tune()
            outcomes.append(result)
        assert outcomes[0].config.to_json() == outcomes[1].config.to_json()
        assert outcomes[0].best_time == outcomes[1].best_time
        assert [
            (log.size, log.best_time, log.best_lineage, log.evaluated)
            for log in outcomes[0].history
        ] == [
            (log.size, log.best_time, log.best_lineage, log.evaluated)
            for log in outcomes[1].history
        ]

    def test_candidate_timeline_emitted(self, treesum):
        from repro.observe import TraceSink

        sink = TraceSink()
        ev = Evaluator(
            treesum, "TreeSum", treesum_inputs, MACHINES["xeon8"], sink=sink
        )
        tuner = GeneticTuner(
            ev, min_size=64, max_size=256, population_size=4,
            tunable_rounds=0, refine_passes=0,
        )
        tuner.tune()
        candidates = sink.events_of("candidate")
        generations = sink.events_of("generation")
        assert len(candidates) == ev.evaluations
        assert sink.counter("tuner.evaluations") == ev.evaluations
        assert [g["size"] for g in generations] == [64, 128, 256]
        # generation bests must be reachable from the candidate records
        times_by_size = {}
        for event in candidates:
            times_by_size.setdefault(event["size"], []).append(event["time"])
        for generation in generations:
            assert generation["best_time"] in times_by_size[generation["size"]]


class TestConsistency:
    ROLLING = """
    transform RollingSum from A[n] to B[n]
    {
      to (B.cell(i) b) from (A.region(0, i+1) in) { b = sum(in); }
      to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) {
        b = a + leftSum;
      }
    }
    """

    BROKEN = """
    transform Broken from A[n] to B[n]
    {
      to (B.cell(i) b) from (A.cell(i) a) { b = a; }
      to (B.cell(i) b) from (A.cell(i) a) { b = a + 1; }
    }
    """

    @staticmethod
    def gen(size, rng):
        return [np.array([rng.uniform(0, 1) for _ in range(size)])]

    def test_consistent_program_passes(self):
        program = compile_program(self.ROLLING)
        compared = check_consistency(
            program, "RollingSum", self.gen, sizes=[1, 7, 32], threshold=1e-9
        )
        assert all(count >= 2 for count in compared.values())

    def test_inconsistent_program_detected(self):
        program = compile_program(self.BROKEN)
        with pytest.raises(ConsistencyError):
            check_consistency(program, "Broken", self.gen, sizes=[8])

    def test_threshold_tolerates_small_differences(self):
        program = compile_program(self.BROKEN)
        check_consistency(program, "Broken", self.gen, sizes=[8], threshold=2.0)

    @pytest.mark.parametrize("first, second, value, threshold", [
        ("b = a - a;", "b = 0;", np.inf, 0.0),  # NaN against 0
        ("b = a - a;", "b = 0;", np.inf, 1.0),  # NaN positions differ
        ("b = 0 - a;", "b = a * -1;", 0.0, 0.0),  # 0.0 against -0.0
    ])
    def test_nan_and_signed_zero_disagree(self, first, second, value, threshold):
        program = compile_program(f"""
        transform Pair from A[n] to B[n]
        {{
          to (B.cell(i) b) from (A.cell(i) a) {{ {first} }}
          to (B.cell(i) b) from (A.cell(i) a) {{ {second} }}
        }}
        """)
        with pytest.raises(ConsistencyError):
            check_consistency(
                program, "Pair", lambda size, rng: [np.full(size, value)],
                sizes=[4], threshold=threshold,
            )


class TestAccuracyUtilities:
    def test_accuracy_ratio(self):
        assert accuracy_ratio(100.0, 1.0) == 100.0
        assert accuracy_ratio(1.0, 0.0) == float("inf")

    def test_pareto_front(self):
        points = [
            Scored("slow-accurate", time=10.0, accuracy=1e9),
            Scored("fast-sloppy", time=1.0, accuracy=1e2),
            Scored("dominated", time=12.0, accuracy=1e8),
            Scored("mid", time=5.0, accuracy=1e5),
        ]
        front = {s.candidate for s in pareto_front(points)}
        assert front == {"slow-accurate", "fast-sloppy", "mid"}

    def test_fastest_per_bin(self):
        points = [
            Scored("a", time=1.0, accuracy=50.0),
            Scored("b", time=3.0, accuracy=2e3),
            Scored("c", time=9.0, accuracy=2e9),
        ]
        best = fastest_per_bin(points, bins=(1e1, 1e3, 1e9))
        assert best[1e1].candidate == "a"
        assert best[1e3].candidate == "b"
        assert best[1e9].candidate == "c"

    def test_unreachable_bin_is_none(self):
        best = fastest_per_bin(
            [Scored("a", time=1.0, accuracy=10.0)], bins=(1e5,)
        )
        assert best[1e5] is None
