"""Tests for the Sort benchmark application."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import sort as sort_app
from repro.autotuner import Evaluator, check_consistency
from repro.compiler import ChoiceConfig, Selector
from repro.runtime import MACHINES


@pytest.fixture(scope="module")
def program():
    return sort_app.build_program()


def run_sort(program, data, config=None):
    result = program.transform("Sort").run([np.asarray(data, dtype=float)], config)
    return result


def static_config(option, seq_cutoff=None):
    config = ChoiceConfig()
    config.set_choice(sort_app.SORT_SITE, Selector.static(option))
    if seq_cutoff is not None:
        config.set_tunable("Sort.__seq_cutoff__", seq_cutoff)
    return config


def hybrid_config(levels):
    config = ChoiceConfig()
    config.set_choice(sort_app.SORT_SITE, Selector(tuple(levels)))
    return config


class TestCorrectness:
    @pytest.mark.parametrize("option", range(7))
    def test_each_algorithm_sorts(self, program, option):
        rng = np.random.default_rng(option)
        data = rng.random(257)
        result = run_sort(program, data, static_config(option))
        np.testing.assert_allclose(result.output("B"), np.sort(data))

    @pytest.mark.parametrize("option", range(7))
    def test_duplicates(self, program, option):
        rng = np.random.default_rng(option + 100)
        data = rng.integers(0, 5, size=64).astype(float)
        result = run_sort(program, data, static_config(option))
        np.testing.assert_allclose(result.output("B"), np.sort(data))

    @pytest.mark.parametrize("option", range(7))
    def test_all_equal(self, program, option):
        data = np.full(33, 7.0)
        result = run_sort(program, data, static_config(option))
        np.testing.assert_allclose(result.output("B"), data)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_tiny_inputs(self, program, n):
        data = np.arange(n, dtype=float)[::-1].copy()
        for option in range(7):
            result = run_sort(program, data, static_config(option))
            np.testing.assert_allclose(result.output("B"), np.sort(data))

    def test_already_sorted_and_reversed(self, program):
        data = np.arange(128, dtype=float)
        for arr in (data, data[::-1].copy()):
            result = run_sort(program, arr, static_config(1))
            np.testing.assert_allclose(result.output("B"), np.sort(arr))

    def test_hybrid_composition(self, program):
        # 2MS above 1000 elements, QS above 100, IS below (paper-style).
        config = hybrid_config(
            [(sort_app.size_metric(100), 0), (sort_app.size_metric(1000), 1), (None, 2)]
        )
        rng = np.random.default_rng(3)
        data = rng.random(3000)
        result = run_sort(program, data, config)
        np.testing.assert_allclose(result.output("B"), np.sort(data))

    def test_consistency_harness(self, program):
        compared = check_consistency(
            program,
            "Sort",
            sort_app.input_generator,
            sizes=[1, 17, 200],
            threshold=0.0,
        )
        assert all(count == 7 for count in compared.values())

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6),
            st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0]),
            st.floats(),
        ),
        max_size=200,
    ), st.integers(0, 6))
    def test_property_sorts(self, program, values, option):
        """Every choice returns ``np.sort(kind="stable")`` bit for bit:
        NaN keys last, ±inf at the ends, equal ±0.0 in input order."""
        data = np.asarray(values, dtype=float)
        output = run_sort(program, data, static_config(option)).output("B")
        expected = np.sort(data, kind="stable")
        np.testing.assert_array_equal(output, expected)  # NaN == NaN here
        np.testing.assert_array_equal(np.signbit(output), np.signbit(expected))


class TestCostModel:
    def time_of(self, program, option, n, machine="xeon1"):
        ev = Evaluator(
            program, "Sort", sort_app.input_generator, MACHINES[machine]
        )
        return ev.time(static_config(option), n)

    def test_insertion_wins_small(self, program):
        assert self.time_of(program, 0, 32) < self.time_of(program, 1, 32)

    def test_quicksort_wins_large_over_insertion(self, program):
        assert self.time_of(program, 1, 4096) < self.time_of(program, 0, 4096)

    def test_is_qs_crossover_in_paper_range(self, program):
        """Paper §1: the optimal IS cutoff is around 60-150, not 15."""
        crossover = None
        for n in (16, 32, 64, 128, 256, 512):
            if self.time_of(program, 1, n) < self.time_of(program, 0, n):
                crossover = n
                break
        assert crossover is not None and 32 <= crossover <= 512

    def test_radix_hybrid_fastest_sequential_large(self, program):
        """Table 2: the 1-core tuned config tops out with radix sort.
        Compare paper-style hybrids (algorithm X above the cutoff,
        insertion sort below)."""
        ev = Evaluator(
            program, "Sort", sort_app.input_generator, MACHINES["xeon1"]
        )
        times = {}
        for opt in (1, 2, 6):
            config = hybrid_config(
                [(sort_app.size_metric(75), 0), (None, opt)]
            )
            times[opt] = ev.time(config, 16384)
        assert times[6] < times[1] and times[6] < times[2]

    def test_merge_sort_scales_on_8_cores(self, program):
        ev1 = Evaluator(program, "Sort", sort_app.input_generator, MACHINES["xeon1"])
        ev8 = Evaluator(program, "Sort", sort_app.input_generator, MACHINES["xeon8"])
        config = hybrid_config([(sort_app.size_metric(512), 0), (None, 2)])
        n = 32768
        speedup = ev1.time(config, n) / ev8.time(config, n)
        assert speedup > 2.5

    def test_insertion_sort_does_not_scale(self, program):
        ev1 = Evaluator(program, "Sort", sort_app.input_generator, MACHINES["xeon1"])
        ev8 = Evaluator(program, "Sort", sort_app.input_generator, MACHINES["xeon8"])
        config = static_config(0)
        ratio = ev1.time(config, 2048) / ev8.time(config, 2048)
        assert ratio == pytest.approx(1.0, rel=0.05)


class TestDescribeConfig:
    def test_paper_notation(self):
        config = hybrid_config(
            [(sort_app.size_metric(600), 0), (sort_app.size_metric(1420), 1), (None, 2)]
        )
        assert sort_app.describe_config(config) == "IS(600) QS(1420) 2MS(inf)"

    def test_default(self):
        assert sort_app.describe_config(ChoiceConfig()) == "IS(inf)"
