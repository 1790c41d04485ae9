"""Figure 11: solving Poisson's equation to accuracy 10^9 on 8 cores.

Series: Direct (banded Cholesky), iterated Jacobi, iterated Red-Black
SOR with the optimal weight, MULTIGRID-SIMPLE (plain recursive V-cycles,
paper Figure 7), and the accuracy-autotuned hybrid (§4.1.4).  Each
iterative baseline runs until the true-error accuracy (measured against
the direct solution) reaches 10^9.

Shape expectations: direct wins only on tiny grids and blows up
(O(n^4)); Jacobi is worst at scale (O(n^2) sweeps); SOR sits in between
(O(n) sweeps); multigrid and the autotuned hybrid win at scale with the
autotuned algorithm at least tying every baseline at every size.

Grid sizes are scaled down from the paper (to 129 instead of ~2000):
our substrate executes real numerics in Python, and the asymptotic
separations are already decades wide at 129.
"""

import pytest
from harness import cached_config, fmt_row, write_report

from repro.apps import poisson as p_app
from repro.compiler import ChoiceConfig, Selector
from repro.runtime import MACHINES, TaskRecorder, WorkStealingScheduler

GRIDS = (5, 9, 17, 33, 65, 129)
TARGET = 1e9
MACHINE = MACHINES["xeon8"]


def fan_charge(recorder, total, chunks=8):
    share = total / chunks
    for _ in range(chunks):
        with recorder.task():
            recorder.charge(share)


def simulate(recorder):
    return WorkStealingScheduler(MACHINE).run(recorder.graph()).makespan


def jacobi_series(x0, b, reference):
    """Iterate Jacobi sweeps until true-error accuracy 1e9 (the paper's
    baselines run "until an accuracy of at least 1e9 is achieved",
    measured with the training solution available), pricing each sweep
    as a data-parallel fan (batched to keep the simulated graph small)."""
    n = b.shape[0]
    err0 = p_app.rms((x0 - reference)[1:-1, 1:-1])
    x = x0
    sweeps = 0
    recorder = TaskRecorder()
    with recorder.task(label="jacobi"):
        batch = 0
        while sweeps < p_app.MAX_SWEEPS:
            x = p_app.jacobi_sweep(x, b)
            sweeps += 1
            batch += 1
            if batch >= 64 or sweeps < 8:
                fan_charge(recorder, batch * p_app.JACOBI_SWEEP_COST * n * n)
                batch = 0
            err = p_app.rms((x - reference)[1:-1, 1:-1])
            if err == 0.0 or err0 / err >= TARGET:
                break
        if batch:
            fan_charge(recorder, batch * p_app.JACOBI_SWEEP_COST * n * n)
    return simulate(recorder)


def sor_series(x0, b, reference):
    """Iterated Red-Black SOR with the optimal weight, to accuracy 1e9
    (same oracle criterion as the other baselines)."""
    n = b.shape[0]
    omega = p_app.optimal_sor_weight(n)
    err0 = p_app.rms((x0 - reference)[1:-1, 1:-1])
    x = x0.copy()
    sweeps = 0
    recorder = TaskRecorder()
    with recorder.task(label="sor"):
        batch = 0
        while sweeps < p_app.MAX_SWEEPS:
            p_app.sor_sweep(x, b, omega)
            sweeps += 1
            batch += 1
            if batch >= 64 or sweeps < 8:
                fan_charge(recorder, batch * p_app.SOR_SWEEP_COST * n * n)
                batch = 0
            err = p_app.rms((x - reference)[1:-1, 1:-1])
            if err == 0.0 or err0 / err >= TARGET:
                break
        if batch:
            fan_charge(recorder, batch * p_app.SOR_SWEEP_COST * n * n)
    return simulate(recorder)


def multigrid_simple_series(x0, b, reference):
    """Plain recursive V-cycles (paper Figure 7), priced per stage,
    iterated to true-error accuracy 1e9."""
    n = b.shape[0]
    err0 = p_app.rms((x0 - reference)[1:-1, 1:-1])
    recorder = TaskRecorder()

    def vcycle(x, rhs, recorder):
        size = rhs.shape[0]
        if size <= 3:
            recorder.charge(p_app.direct_work(size))
            return p_app.direct_solve(rhs)
        p_app.sor_sweep(x, rhs, 1.15)
        fan_charge(recorder, p_app.SOR_SWEEP_COST * size * size)
        r = p_app.residual(x, rhs)
        coarse_rhs = 4.0 * p_app.restrict_full_weighting(r)
        fan_charge(recorder, 2 * p_app.STENCIL_COST * size * size)
        m = coarse_rhs.shape[0]
        import numpy as np

        correction = vcycle(np.zeros((m, m)), coarse_rhs, recorder)
        x = x + p_app.interpolate(correction, size)
        fan_charge(recorder, p_app.STENCIL_COST * size * size)
        p_app.sor_sweep(x, rhs, 1.15)
        fan_charge(recorder, p_app.SOR_SWEEP_COST * size * size)
        return x

    x = x0.copy()
    with recorder.task(label="mg-simple"):
        for _ in range(200):
            x = vcycle(x, b, recorder)
            err = p_app.rms((x - reference)[1:-1, 1:-1])
            if err == 0.0 or err0 / err >= TARGET:
                break
    return simulate(recorder)


def transform_series(program, config, x0, b):
    solver = program.transform(p_app.poisson_name(4))  # the 1e9 bin
    result = solver.run([x0, b], config)
    return WorkStealingScheduler(MACHINE).run(result.graph).makespan


def build_rows():
    program = p_app.build_program()
    autotuned = cached_config(
        "poisson_xeon8",
        lambda: p_app.tune_accuracy(program, MACHINE, max_level=7)[0],
    )
    direct_cfg = ChoiceConfig()
    direct_cfg.set_choice(p_app.poisson_site(4), Selector.static(0))

    import random

    rows = []
    for n in GRIDS:
        rng = random.Random(1000 + n)
        x0, b = p_app.input_generator(n, rng)
        reference = p_app.direct_solve(b)
        result = program.transform(p_app.poisson_name(4)).run(
            [x0, b], autotuned
        )
        # The tuned iteration counts must generalize to this fresh
        # instance (trained on same-distribution data).
        achieved = p_app.measure_accuracy(x0, result.output("Y"), b)
        assert achieved >= TARGET * 0.1, f"tuned accuracy {achieved:.2e} at n={n}"
        autotuned_time = WorkStealingScheduler(MACHINE).run(result.graph).makespan
        times = {
            "Direct": transform_series(program, direct_cfg, x0, b),
            "Jacobi": jacobi_series(x0.copy(), b, reference),
            "SOR": sor_series(x0, b, reference),
            "Multigrid": multigrid_simple_series(x0, b, reference),
            "Autotuned": autotuned_time,
        }
        rows.append((n, times))
    return ["Direct", "Jacobi", "SOR", "Multigrid", "Autotuned"], rows


def test_fig11_poisson(benchmark):
    columns, rows = benchmark.pedantic(build_rows, rounds=1, iterations=1)
    widths = [6] + [14] * len(columns)
    lines = [
        "Figure 11: Poisson to accuracy 1e9 on 8 cores "
        "(simulated time vs grid size)",
        fmt_row(["n"] + columns, widths),
    ]
    for n, times in rows:
        lines.append(
            fmt_row([n] + [f"{times[c]:.3g}" for c in columns], widths)
        )
    write_report("fig11_poisson", lines)

    times = dict(rows)
    # Direct wins tiny grids; loses badly at the large end (O(n^4)).
    assert times[5]["Direct"] <= min(times[5][c] for c in columns)
    assert times[129]["Direct"] > times[129]["Autotuned"]
    # Jacobi is the worst iterative method at scale.
    assert times[129]["Jacobi"] > times[129]["SOR"] > times[129]["Autotuned"]
    # The autotuned hybrid at least ties every series at every size.
    for n, series in rows:
        best = min(series[c] for c in columns if c != "Autotuned")
        assert series["Autotuned"] <= best * 1.25, f"autotuned loses at n={n}"
