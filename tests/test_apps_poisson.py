"""Tests for the Poisson benchmark: kernels, the Poisson_i/Multigrid_i
transform family, and the accuracy semantics of §4.1."""

import numpy as np
import pytest

from repro.apps import poisson as p_app
from repro.compiler import ChoiceConfig, Selector


@pytest.fixture(scope="module")
def program():
    return p_app.build_program()


def make_problem(n, seed=0):
    rng = np.random.default_rng(seed)
    b = np.zeros((n, n))
    b[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
    x0 = np.zeros((n, n))
    return x0, b


def static_config(bin_index, option):
    config = ChoiceConfig()
    config.set_choice(p_app.poisson_site(bin_index), Selector.static(option))
    return config


class TestKernels:
    def test_operator_matches_dense(self):
        n = 7
        x0, b = make_problem(n, 1)
        rng = np.random.default_rng(2)
        x = np.zeros((n, n))
        x[1:-1, 1:-1] = rng.standard_normal((n - 2, n - 2))
        Lx = -p_app.residual(x, np.zeros((n, n)))
        # Check a few interior points against the stencil definition.
        for i, j in [(1, 1), (3, 4), (5, 5)]:
            expected = (
                4 * x[i, j] - x[i - 1, j] - x[i + 1, j] - x[i, j - 1] - x[i, j + 1]
            )
            assert Lx[i, j] == pytest.approx(expected)

    def test_direct_solve_exact(self):
        n = 17
        _, b = make_problem(n, 3)
        x = p_app.direct_solve(b)
        r = p_app.residual(x, b)
        assert p_app.rms(r[1:-1, 1:-1]) < 1e-10

    def test_jacobi_reduces_residual(self):
        n = 17
        x0, b = make_problem(n, 4)
        x = x0
        r0 = p_app.rms(p_app.residual(x, b)[1:-1, 1:-1])
        for _ in range(50):
            x = p_app.jacobi_sweep(x, b)
        assert p_app.rms(p_app.residual(x, b)[1:-1, 1:-1]) < r0

    def test_sor_faster_than_jacobi(self):
        n = 33
        x0, b = make_problem(n, 5)
        omega = p_app.optimal_sor_weight(n)
        xj = x0.copy()
        xs = x0.copy()
        for _ in range(60):
            xj = p_app.jacobi_sweep(xj, b)
            p_app.sor_sweep(xs, b, omega)
        rj = p_app.rms(p_app.residual(xj, b)[1:-1, 1:-1])
        rs = p_app.rms(p_app.residual(xs, b)[1:-1, 1:-1])
        assert rs < rj

    def test_sor_converges_to_solution(self):
        n = 17
        x0, b = make_problem(n, 6)
        reference = p_app.direct_solve(b)
        x = x0.copy()
        omega = p_app.optimal_sor_weight(n)
        for _ in range(400):
            p_app.sor_sweep(x, b, omega)
        assert np.max(np.abs(x - reference)) < 1e-8

    def test_restrict_interpolate_shapes(self):
        fine = np.random.default_rng(7).standard_normal((17, 17))
        coarse = p_app.restrict_full_weighting(fine)
        assert coarse.shape == (9, 9)
        back = p_app.interpolate(coarse, 17)
        assert back.shape == (17, 17)

    def test_interpolation_preserves_coarse_points(self):
        coarse = np.random.default_rng(8).standard_normal((5, 5))
        fine = p_app.interpolate(coarse, 9)
        np.testing.assert_allclose(fine[::2, ::2], coarse)

    def test_optimal_weight_range(self):
        for n in (5, 17, 129):
            w = p_app.optimal_sor_weight(n)
            assert 1.0 < w < 2.0
        assert p_app.optimal_sor_weight(129) > p_app.optimal_sor_weight(9)


class TestMultigridVCycle:
    def test_vcycle_reduces_error(self, program):
        n = 33
        x0, b = make_problem(n, 9)
        reference = p_app.direct_solve(b)
        mg = program.transform(p_app.multigrid_name(2))
        x = x0
        errors = [p_app.rms((x - reference)[1:-1, 1:-1])]
        for _ in range(4):
            x = mg.run([x, b]).output("Y")
            errors.append(p_app.rms((x - reference)[1:-1, 1:-1]))
        # Each V-cycle should knock the error down substantially.
        assert errors[-1] < errors[0] * 1e-2
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))

    def test_base_case_grid3(self, program):
        x0, b = make_problem(3, 10)
        mg = program.transform(p_app.multigrid_name(0))
        x = mg.run([x0, b]).output("Y")
        assert p_app.rms(p_app.residual(x, b)[1:-1, 1:-1]) < 1e-12


class TestPoissonFamily:
    @pytest.fixture(scope="class")
    def tuned(self, program):
        """Accuracy-tuned config through grid 33 (paper §4.1.4)."""
        from repro.runtime import MACHINES

        config, history = p_app.tune_accuracy(
            program, MACHINES["xeon8"], max_level=5
        )
        return config, history

    def test_tuned_choices(self, tuned):
        """The (grid, bin, label) picks behind EXPERIMENTS.md's Figure
        9/11 claims: direct on tiny grids, SOR then multigrid as the
        grid grows, full multigrid for the middle bins at grid 33."""
        _, history = tuned
        by_grid = {}
        for n, bin_index, label, _, _ in history:
            by_grid.setdefault(n, []).append((bin_index, label))
        assert {
            n: [label for _, label in sorted(rows)]
            for n, rows in by_grid.items()
        } == {
            5: ["direct"] * 5,
            9: ["sor", "direct", "direct", "direct", "direct"],
            17: ["sor", "sor", "sor", "sor", "mg(acc=1)"],
            33: ["mg(acc=0)", "fmg(acc=0)", "fmg(acc=0)", "mg(acc=0)",
                 "mg(acc=0)"],
        }

    def test_every_bin_hits_its_accuracy_on_training_data(self, tuned):
        _, history = tuned
        for n, bin_index, _, _, accuracy in history:
            assert accuracy >= p_app.ACCURACY_BINS[bin_index] * 0.99

    def test_tuned_config_generalizes_to_fresh_data(self, program, tuned):
        config, _ = tuned
        n = 33
        x0, b = make_problem(n, 11)  # a different instance than training
        for bin_index in (0, 2, 4):
            solver = program.transform(p_app.poisson_name(bin_index))
            result = solver.run([x0, b], config)
            accuracy = p_app.measure_accuracy(x0, result.output("Y"), b)
            # Iteration counts were trained on same-distribution data;
            # allow modest generalization slack.
            assert accuracy >= p_app.ACCURACY_BINS[bin_index] * 0.2

    def test_higher_bins_cost_more_work(self, program, tuned):
        config, _ = tuned
        n = 33
        x0, b = make_problem(n, 12)
        works = []
        for bin_index in (0, 2, 4):
            solver = program.transform(p_app.poisson_name(bin_index))
            works.append(
                solver.run([x0, b], config).graph.total_work()
            )
        assert works[0] < works[1] < works[2]

    def test_direct_choice_is_exact(self, program):
        n = 17
        x0, b = make_problem(n, 13)
        solver = program.transform(p_app.poisson_name(4))
        result = solver.run([x0, b], static_config(4, 0))
        assert p_app.measure_accuracy(x0, result.output("Y"), b) > 1e9

    def test_trained_iteration_counts_are_size_leveled(self, tuned):
        config, history = tuned
        # At least one bin should use iterative choices whose counts
        # were recorded as size-leveled tunables.
        assert config.leveled_tunables, "no leveled tunables recorded"
        labels = {label for _, _, label, _, _ in history}
        assert any(l.startswith("mg") or l == "sor" for l in labels)

    def test_mg_cheaper_than_sor_large_high_accuracy(self, program):
        """The asymptotic story: multigrid O(n) beats SOR O(n^1.5) when
        both are given iteration counts sufficient for accuracy 1e9."""
        n = 65
        x0, b = make_problem(n, 15)
        accuracy = p_app.accuracy_against(x0, p_app.direct_solve(b))
        target = 1e9

        def sor(x):
            p_app.sor_sweep(x, b, p_app.optimal_sor_weight(n))
            return x

        sweeps = p_app.fewest_steps(
            sor, x0.copy(), accuracy, target, p_app.MAX_SWEEPS
        )
        assert sweeps is not None
        sor_config = static_config(4, 1)
        sor_config.set_tunable("Poisson_4.sorIters", sweeps)
        result_sor = program.transform(p_app.poisson_name(4)).run(
            [x0, b], sor_config
        )
        assert p_app.measure_accuracy(x0, result_sor.output("Y"), b) >= target * 0.99

        mg_config = ChoiceConfig()
        for i in range(len(p_app.ACCURACY_BINS)):
            mg_config.set_choice(
                p_app.poisson_site(i),
                Selector(((p_app.size_metric(9) + 1, 0), (None, 2))),
            )
            mg_config.set_tunable(f"Poisson_{i}.mgAccuracy", 0)
            mg_config.set_tunable(f"Poisson_{i}.mgCycles", 1)
        vcycle = program.transform(p_app.multigrid_name(0))
        cycles = p_app.fewest_steps(
            lambda x: vcycle.run([x, b], mg_config).output("Y"),
            x0, accuracy, target, p_app.MAX_CYCLES,
        )
        assert cycles is not None
        mg_config.set_tunable("Poisson_4.mgCycles", cycles)
        result_mg = program.transform(p_app.poisson_name(4)).run(
            [x0, b], mg_config
        )
        assert p_app.measure_accuracy(x0, result_mg.output("Y"), b) >= target * 0.99
        assert result_mg.graph.total_work() < result_sor.graph.total_work()

    def test_direct_cheapest_tiny_grid(self, program):
        bin_index = 4
        x0, b = make_problem(5, 16)
        solver = program.transform(p_app.poisson_name(bin_index))
        work_direct = solver.run([x0, b], static_config(bin_index, 0)).graph.total_work()
        work_sor = solver.run([x0, b], static_config(bin_index, 1)).graph.total_work()
        assert work_direct < work_sor

    def test_accuracy_metric(self):
        n = 9
        x0, b = make_problem(n, 17)
        exact = p_app.direct_solve(b)
        assert p_app.measure_accuracy(x0, exact, b) == float("inf")
        assert p_app.measure_accuracy(x0, x0, b) == pytest.approx(1.0)

    def test_grid_sizes(self):
        assert [p_app.grid_size(k) for k in (1, 2, 3)] == [3, 5, 9]
