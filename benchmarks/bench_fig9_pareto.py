"""Figure 9(a): the accuracy/time candidate cloud and its optimal set.

The paper's Figure 9(a) is a schematic: candidate multigrid algorithms
plotted by compute time and achieved accuracy, with the Pareto-optimal
set marked and, per discrete accuracy level, the fastest candidate at or
above the level (the algorithms PetaBricks remembers).  We generate the
*actual* cloud for one grid size by enumerating candidate Poisson
configurations — direct, SOR with varying sweep counts, and
Multigrid_j / FMG_j with varying cycle counts — and compute the front.

Shape expectations: the front is non-trivial (no single candidate
dominates), every accuracy bin is reachable, and each bin's chosen
candidate is strictly faster than over-solving with the most accurate
candidate.
"""

import random

import numpy as np
import pytest
from harness import fmt_row, write_report

from repro.apps import poisson as p_app
from repro.autotuner import fastest_per_bin, pareto_front
from repro.autotuner.accuracy import ACCURACY_BINS, Scored
from repro.compiler import ChoiceConfig, Selector
from repro.runtime import MACHINES, WorkStealingScheduler

GRID = 33
MACHINE = MACHINES["xeon8"]


def candidate_configs():
    """A spread of explicit single-strategy candidates."""
    base_site_values = {}
    for i in range(len(p_app.ACCURACY_BINS)):
        # Sub-solvers: direct on tiny grids, V-cycles above.
        base_site_values[p_app.poisson_site(i)] = Selector(
            ((p_app.size_metric(9) + 1, 0), (None, 2))
        )

    def base(bin_index):
        config = ChoiceConfig()
        for site, selector in base_site_values.items():
            config.set_choice(site, selector)
        for i in range(len(p_app.ACCURACY_BINS)):
            config.set_tunable(f"Poisson_{i}.mgAccuracy", 0)
            config.set_tunable(f"Poisson_{i}.mgCycles", 1)
        return config

    candidates = [("direct", _static_top(0, base(4)))]
    for sweeps in (5, 15, 40, 100, 250, 600, 1500):
        config = base(4)
        config.set_choice(p_app.poisson_site(4), Selector.static(1))
        config.set_tunable("Poisson_4.sorIters", sweeps)
        candidates.append((f"sor x{sweeps}", config))
    for cycles in (1, 2, 3, 4, 6, 8, 12):
        config = base(4)
        config.set_choice(
            p_app.poisson_site(4),
            Selector(((p_app.size_metric(9) + 1, 0), (None, 2))),
        )
        config.set_tunable("Poisson_4.mgCycles", cycles)
        candidates.append((f"mg x{cycles}", config))
    return candidates


def _static_top(option, config):
    config.set_choice(p_app.poisson_site(4), Selector.static(option))
    return config


def build_cloud():
    program = p_app.build_program()
    rng = random.Random(9)
    x0, b = p_app.input_generator(GRID, rng)
    scheduler = WorkStealingScheduler(MACHINE)
    scored = []
    for name, config in candidate_configs():
        result = program.transform(p_app.poisson_name(4)).run([x0, b], config)
        accuracy = p_app.measure_accuracy(x0, result.output("Y"), b)
        elapsed = scheduler.run(result.graph).makespan
        scored.append(Scored(candidate=name, time=elapsed, accuracy=accuracy))
    return scored


def test_fig9_pareto(benchmark):
    scored = benchmark.pedantic(build_cloud, rounds=1, iterations=1)
    front = pareto_front(scored)
    per_bin = fastest_per_bin(scored, ACCURACY_BINS)

    lines = [
        f"Figure 9(a): accuracy/time candidates for Poisson, grid {GRID}",
        fmt_row(["candidate", "time", "accuracy", "front?"], [14, 12, 12, 8]),
    ]
    front_names = {s.candidate for s in front}
    for s in sorted(scored, key=lambda s: s.time):
        lines.append(
            fmt_row(
                [
                    s.candidate,
                    f"{s.time:.0f}",
                    f"{s.accuracy:.2e}",
                    "*" if s.candidate in front_names else "",
                ],
                [14, 12, 12, 8],
            )
        )
    lines.append("fastest per accuracy bin (the remembered algorithms):")
    for level, choice in per_bin.items():
        label = choice.candidate if choice else "-"
        lines.append(f"  >= {level:.0e}: {label}")
    write_report("fig9_pareto", lines)

    # The front has several members: no single candidate dominates.
    assert len(front) >= 3
    # Every paper accuracy bin is reachable.
    assert all(choice is not None for choice in per_bin.values())
    # Each bin's pick is no slower than over-solving with the most
    # accurate candidate (the point of keeping a set, §4.1.3).
    most_accurate = max(scored, key=lambda s: s.accuracy)
    for level, choice in per_bin.items():
        assert choice.time <= most_accurate.time + 1e-9
    low, high = per_bin[ACCURACY_BINS[0]], per_bin[ACCURACY_BINS[-1]]
    assert low.time < high.time
