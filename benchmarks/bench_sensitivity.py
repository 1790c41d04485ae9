"""Sensitivity of tuned choices to the machine's scheduling overheads.

The paper's cross-architecture results (Tables 1-2) hinge on one
mechanism: the ratio between compute speed and task-scheduling overhead
decides how much parallelism is worth exposing.  This ablation makes
the mechanism explicit by sweeping the spawn cost of a synthetic 8-core
machine and re-tuning the sort benchmark's sequential cutoff at each
point: cheaper spawning should drive the tuned cutoff down (finer tasks)
and expensive spawning should drive it up.
"""

import pytest
from harness import cached_config, fmt_row, write_report

from bench_fig14_sort import tune_sort_xeon8
from repro.apps import sort as sort_app
from repro.autotuner import Evaluator, nary_search
from repro.autotuner.candidates import set_tunable, Candidate
from repro.compiler import ChoiceConfig
from repro.runtime import Machine

SPAWN_COSTS = (20.0, 150.0, 1200.0)
SIZE = 32768


def machine_with_spawn(spawn: float) -> Machine:
    return Machine(
        name=f"synthetic-spawn{spawn:.0f}",
        cores=8,
        cycle_time=1.0,
        spawn_time=spawn,
        steal_time=4.0 * spawn,
    )


def tuned_cutoff_for(spawn: float, base_config: ChoiceConfig):
    program = sort_app.build_program()
    evaluator = Evaluator(
        program, "Sort", sort_app.input_generator, machine_with_spawn(spawn)
    )
    candidate = Candidate(config=base_config)

    def objective(values):
        return [
            evaluator.time(
                set_tunable(candidate, "Sort.__seq_cutoff__", value).config,
                SIZE,
            )
            for value in values
        ]

    best, cost = nary_search(objective, 8, SIZE * 2, arity=5, rounds=4)
    return best, cost


def build_rows():
    base = cached_config("sort_xeon8", tune_sort_xeon8)
    rows = []
    for spawn in SPAWN_COSTS:
        cutoff, cost = tuned_cutoff_for(spawn, base)
        rows.append((spawn, cutoff, cost))
    return rows


def test_sensitivity_spawn_cost(benchmark):
    rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    lines = [
        "Ablation: tuned sequential cutoff vs spawn cost "
        f"(sort, n={SIZE}, 8 cores)",
        fmt_row(["spawn cost", "tuned cutoff", "time"], [12, 14, 14]),
    ]
    for spawn, cutoff, cost in rows:
        lines.append(
            fmt_row([f"{spawn:.0f}", cutoff, f"{cost:.0f}"], [12, 14, 14])
        )
    write_report("sensitivity_spawn", lines)

    cutoffs = [cutoff for _, cutoff, _ in rows]
    # More expensive spawning -> coarser tasks (monotone non-decreasing).
    assert cutoffs == sorted(cutoffs)
    assert cutoffs[-1] > cutoffs[0]
