"""Tests for the §4 variable-accuracy tuner support (autotuner/accuracy).

Three layers: hypothesis properties for the Pareto-front and per-bin
selection helpers (dominance, idempotence, monotonicity), seeded
determinism of the full ``apps/poisson`` accuracy tuner, and a small
end-to-end accuracy-vs-time front over real Poisson configurations
(the Figure 9a shape: more accuracy costs more time).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotuner.accuracy import (
    ACCURACY_BINS,
    Scored,
    accuracy_ratio,
    fastest_per_bin,
    pareto_front,
    rms,
)
from repro.runtime import MACHINES, WorkStealingScheduler


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def test_accuracy_ratio_definition():
    assert accuracy_ratio(10.0, 2.0) == 5.0
    assert accuracy_ratio(10.0, 0.0) == float("inf")
    assert accuracy_ratio(0.0, 2.0) == 0.0


def test_rms():
    assert rms(np.array([])) == 0.0
    assert rms(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
    assert rms(np.array([-2.0])) == 2.0


# ---------------------------------------------------------------------------
# pareto_front: hypothesis dominance properties
# ---------------------------------------------------------------------------

scored_lists = st.lists(
    st.builds(
        Scored,
        candidate=st.integers(0, 10**6),
        time=st.floats(0.0, 1e6, allow_nan=False),
        accuracy=st.floats(0.0, 1e9, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)


def _dominates(a: Scored, b: Scored) -> bool:
    """a strictly dominates b: no worse on both axes, better on one."""
    return (
        a.time <= b.time
        and a.accuracy >= b.accuracy
        and (a.time < b.time or a.accuracy > b.accuracy)
    )


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists)
def test_front_members_are_nondominated(scored):
    front = pareto_front(scored)
    for member in front:
        for other in scored:
            assert not _dominates(other, member), (
                f"{other} dominates front member {member}"
            )


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists)
def test_every_candidate_is_covered_by_the_front(scored):
    """Every input is weakly dominated by some front member (so the
    front is a complete summary, not just a nondominated subset)."""
    front = pareto_front(scored)
    assert bool(front) == bool(scored)
    for entry in scored:
        assert any(
            member.time <= entry.time and member.accuracy >= entry.accuracy
            for member in front
        )


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists)
def test_front_is_sorted_and_strictly_improving(scored):
    """Figure 9a shape: along the front, time and accuracy both rise."""
    front = pareto_front(scored)
    for earlier, later in zip(front, front[1:]):
        assert earlier.time <= later.time
        assert earlier.accuracy < later.accuracy


@settings(max_examples=100, deadline=None)
@given(scored=scored_lists)
def test_front_is_idempotent(scored):
    front = pareto_front(scored)
    assert pareto_front(front) == front


# ---------------------------------------------------------------------------
# fastest_per_bin
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(scored=scored_lists)
def test_fastest_per_bin_selection(scored):
    table = fastest_per_bin(scored)
    assert tuple(table) == ACCURACY_BINS
    for level, chosen in table.items():
        achieving = [s for s in scored if s.accuracy >= level]
        if not achieving:
            assert chosen is None
        else:
            assert chosen.accuracy >= level
            assert chosen.time == min(s.time for s in achieving)


@settings(max_examples=100, deadline=None)
@given(scored=scored_lists)
def test_fastest_per_bin_times_rise_with_accuracy(scored):
    """Demanding more accuracy can never get cheaper: the chosen time is
    non-decreasing across ascending bins (achieving sets only shrink)."""
    table = fastest_per_bin(scored)
    previous = None
    for level in ACCURACY_BINS:
        chosen = table[level]
        if chosen is None:
            # once a level is unreachable, all higher levels are too
            for higher in ACCURACY_BINS:
                if higher >= level:
                    assert table[higher] is None
            break
        if previous is not None:
            assert chosen.time >= previous.time
        previous = chosen


def test_fastest_per_bin_custom_bins():
    scored = [
        Scored("cheap", time=1.0, accuracy=50.0),
        Scored("mid", time=5.0, accuracy=500.0),
        Scored("exact", time=50.0, accuracy=float("inf")),
    ]
    table = fastest_per_bin(scored, bins=(10.0, 100.0, 1e6))
    assert table[10.0].candidate == "cheap"
    assert table[100.0].candidate == "mid"
    assert table[1e6].candidate == "exact"


# ---------------------------------------------------------------------------
# apps/poisson: determinism under seed, and a real accuracy-vs-time front
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def poisson_program():
    from repro.apps.poisson import build_program

    return build_program()


def test_tune_accuracy_is_deterministic_under_seed(poisson_program):
    """Two runs with the same seed produce byte-identical configurations
    and identical candidate histories (the representative-training-data
    assumption makes the whole §4.1.4 procedure a pure function of the
    seed)."""
    from repro.apps.poisson import tune_accuracy

    machine = MACHINES["xeon8"]
    first_config, first_history = tune_accuracy(
        poisson_program, machine, max_level=2, seed=20090615
    )
    second_config, second_history = tune_accuracy(
        poisson_program, machine, max_level=2, seed=20090615
    )
    assert first_config.to_json() == second_config.to_json()
    assert first_history == second_history
    # every (grid, bin) pair tuned, and every winner hit its target bin
    assert len(first_history) == len(ACCURACY_BINS)
    for _, bin_index, _, elapsed, accuracy in first_history:
        assert elapsed > 0
        assert accuracy >= ACCURACY_BINS[bin_index] * 0.99


def test_poisson_accuracy_time_front(poisson_program):
    """A small end-to-end Figure 9a: score real Poisson configurations
    (direct, SOR at several trained sweep counts) on a 9x9 training
    problem; the resulting front trades time for accuracy, and the
    per-bin table picks the cheap configs at low bins, the exact solve
    at the top."""
    import random

    from repro.apps.poisson import (
        input_generator,
        measure_accuracy,
        poisson_site,
    )
    from repro.compiler import ChoiceConfig, Selector

    solver = poisson_program.transform("Poisson_0")
    machine = MACHINES["xeon8"]
    scheduler = WorkStealingScheduler(machine)
    x0, b = input_generator(9, random.Random(7))

    def score(label, option, sweeps=None):
        config = ChoiceConfig()
        config.set_choice(poisson_site(0), Selector.static(option))
        if sweeps is not None:
            config.set_tunable("Poisson_0.sorIters", sweeps)
        result = solver.run([x0, b], config)
        accuracy = measure_accuracy(x0, result.output("Y"), b)
        elapsed = scheduler.run(result.graph).makespan
        return Scored(label, time=elapsed, accuracy=accuracy)

    scored = [score("direct", 0)]
    for sweeps in (1, 5, 25, 125):
        scored.append(score(f"sor{sweeps}", 1, sweeps))

    by_label = {s.candidate: s for s in scored}
    # direct is exact (infinite accuracy) and costs more than a cheap
    # iterative answer (at 9x9 it can still beat *many* SOR sweeps)
    assert by_label["direct"].accuracy == float("inf")
    assert by_label["direct"].time > by_label["sor1"].time
    # more SOR sweeps: strictly more time, strictly more accuracy
    assert (
        by_label["sor1"].time
        < by_label["sor5"].time
        < by_label["sor25"].time
        < by_label["sor125"].time
    )
    assert (
        by_label["sor1"].accuracy
        < by_label["sor5"].accuracy
        < by_label["sor25"].accuracy
        < by_label["sor125"].accuracy
    )

    front = pareto_front(scored)
    assert front[-1].candidate == "direct"
    assert len(front) >= 3  # a real trade-off curve, not one point
    # the per-bin table serves cheap requests cheaply and exact requests
    # exactly: times never decrease as the accuracy demand rises
    table = fastest_per_bin(scored)
    chosen = [table[level] for level in ACCURACY_BINS]
    assert all(entry is not None for entry in chosen)
    for earlier, later in zip(chosen, chosen[1:]):
        assert later.time >= earlier.time
    assert chosen[-1].candidate == "direct"
