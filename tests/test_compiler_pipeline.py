"""End-to-end compiler tests on the paper's example programs.

RollingSum (paper Figure 3) and MatrixMultiply (Figure 1) exercise every
pass: applicable regions, choice grids, the choice dependency graph of
Figure 4, code generation, and execution under different configurations.
"""

import numpy as np
import pytest

from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.codegen import ExecutionError
from repro.compiler.config import site_key
from repro.language.errors import CompileError
from repro.symbolic import Affine, Box, Interval

# Note: the paper's Figure 3 writes A.region(0, i) for rule 0, but with
# half-open region semantics (required for MatrixMultiply's decompositions
# to tile without overlap) that would exclude A[i]; the shipped PetaBricks
# benchmark uses region(0, i+1), which we follow.
ROLLING_SUM = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) {
    b = sum(in);
  }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) {
    b = a + leftSum;
  }
}
"""

MATRIX_PROGRAM = """
transform MatrixAdd
from A[w, h], B[w, h]
to C[w, h]
{
  to (C.cell(x, y) c) from (A.cell(x, y) a, B.cell(x, y) b) {
    c = a + b;
  }
}

transform MatrixMultiply
from A[c, h], B[w, c]
to AB[w, h]
{
  to (AB.cell(x, y) out) from (A.row(y) a, B.column(x) b) {
    out = dot(a, b);
  }
  to (AB ab)
  from (A.region(0, 0, c/2, h) a1,
        A.region(c/2, 0, c, h) a2,
        B.region(0, 0, w, c/2) b1,
        B.region(0, c/2, w, c) b2) {
    ab = MatrixAdd(MatrixMultiply(a1, b1), MatrixMultiply(a2, b2));
  }
  to (AB.region(0, 0, w/2, h) ab1,
      AB.region(w/2, 0, w, h) ab2)
  from (A a, B.region(0, 0, w/2, c) b1, B.region(w/2, 0, w, c) b2) {
    ab1 = MatrixMultiply(a, b1);
    ab2 = MatrixMultiply(a, b2);
  }
  to (AB.region(0, 0, w, h/2) ab1,
      AB.region(0, h/2, w, h) ab2)
  from (A.region(0, 0, c, h/2) a1, A.region(0, h/2, c, h) a2, B b) {
    ab1 = MatrixMultiply(a1, b);
    ab2 = MatrixMultiply(a2, b);
  }
}
"""

n = Affine.var("n")


@pytest.fixture(scope="module")
def rolling():
    return compile_program(ROLLING_SUM).transform("RollingSum")


@pytest.fixture(scope="module")
def matmul_program():
    return compile_program(MATRIX_PROGRAM)


class TestRollingSumAnalysis:
    def test_applicable_regions_match_paper(self, rolling):
        # Paper: rule 0 applicable on [0, n), rule 1 on [1, n).
        rule0, rule1 = rolling.ir.rules
        assert rule0.applicable["B"] == Box([Interval(0, n)])
        assert rule1.applicable["B"] == Box([Interval(1, n)])

    def test_choice_grid_matches_paper(self, rolling):
        # Paper: B is divided into [0,1) -> {rule 0} and [1,n) -> {rule 0, rule 1}.
        segments = rolling.grid.segments["B"]
        assert len(segments) == 2
        first, second = segments
        assert first.box == Box([Interval(0, 1)])
        assert [opt.primary for opt in first.options] == [0]
        assert second.box == Box([Interval(1, n)])
        assert sorted(opt.primary for opt in second.options) == [0, 1]

    def test_dependency_graph_shape(self, rolling):
        # Figure 4: nodes A, B[0,1), B[1,n); self-edge on B[1,n) for rule 1
        # with offset -1.
        graph = rolling.depgraph
        assert set(graph.nodes) == {"A", "B.0", "B.1"}
        self_edges = [
            e for e in graph.edges if e.src == e.dst == "B.1" and e.rule_id == 1
        ]
        assert self_edges and self_edges[0].offsets == (-1,)
        assert graph.schedule_order.index("B.0") < graph.schedule_order.index("B.1")

    def test_rule1_forces_ascending_iteration(self, rolling):
        order = rolling.depgraph.rule_directions[("B.1", 1)]
        assert order.signs == (1,)
        assert not order.is_parallel

    def test_rule0_is_data_parallel(self, rolling):
        assert rolling.depgraph.rule_directions[("B.1", 0)].is_parallel


class TestRollingSumExecution:
    def expected(self, data):
        return np.cumsum(data)

    def test_default_config(self, rolling):
        data = np.arange(10, dtype=float)
        result = rolling.run([data])
        np.testing.assert_allclose(result.output("B"), self.expected(data))

    @pytest.mark.parametrize("option", [0, 1])
    def test_both_choices_agree(self, rolling, option):
        data = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        config = ChoiceConfig()
        config.set_choice(
            site_key("RollingSum", "B", 1), Selector.static(option)
        )
        result = rolling.run([data], config)
        np.testing.assert_allclose(result.output("B"), self.expected(data))

    def test_sequential_rule_has_chain_tasks(self, rolling):
        data = np.ones(64)
        config = ChoiceConfig()
        config.set_choice(site_key("RollingSum", "B", 1), Selector.static(1))
        config.set_tunable("RollingSum.__seq_cutoff__", 1)
        config.set_tunable("RollingSum.__block_size__", 8)
        graph = rolling.run([data], config).graph
        chained = [t for t in graph.tasks if t.deps]
        assert chained  # rule 1 produces dependent block tasks

    def test_parallel_rule_has_independent_blocks(self, rolling):
        data = np.ones(64)
        config = ChoiceConfig()
        config.set_choice(site_key("RollingSum", "B", 1), Selector.static(0))
        config.set_tunable("RollingSum.__seq_cutoff__", 1)
        config.set_tunable("RollingSum.__block_size__", 8)
        graph = rolling.run([data], config).graph
        blocks = [t for t in graph.tasks if t.label.startswith("rule0")]
        assert len(blocks) >= 8
        assert all(not t.deps for t in blocks)

    def test_work_accounting_quadratic_vs_linear(self, rolling):
        # Rule 0 is Theta(n^2) operations, rule 1 is Theta(n).
        data = np.ones(128)
        works = {}
        for option in (0, 1):
            config = ChoiceConfig()
            config.set_choice(
                site_key("RollingSum", "B", 1), Selector.static(option)
            )
            works[option] = rolling.run([data], config).graph.total_work()
        assert works[0] > 10 * works[1]

    def test_empty_input(self, rolling):
        result = rolling.run([np.array([], dtype=float)])
        assert result.output("B").shape == (0,)

    def test_single_element(self, rolling):
        result = rolling.run([np.array([7.0])])
        np.testing.assert_allclose(result.output("B"), [7.0])

    def test_wrong_input_count(self, rolling):
        with pytest.raises(Exception):
            rolling.run([np.ones(4), np.ones(4)])


class TestMatrixMultiply:
    def reference(self, a, b):
        # Paper convention: A[c,h] holds A.cell(x=col over c, y=row over h);
        # viewing our array axis0 as x and axis1 as y, AB[x,y] =
        # sum_k A[k,y] * B[x,k].
        return np.einsum("ky,xk->xy", a, b)

    def test_base_case(self, matmul_program):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))  # c=3, h=4
        b = rng.standard_normal((5, 3))  # w=5, c=3
        mm = matmul_program.transform("MatrixMultiply")
        result = mm.run([a, b])
        np.testing.assert_allclose(
            result.output("AB"), self.reference(a, b), atol=1e-12
        )

    @pytest.mark.parametrize("option", [1, 2, 3])
    def test_recursive_decompositions_agree(self, matmul_program, option):
        rng = np.random.default_rng(option)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        mm = matmul_program.transform("MatrixMultiply")
        config = ChoiceConfig()
        # Problem size (all matrices) is 48 at 4x4; recurse twice, then
        # switch to the base rule once the footprint drops below 25.
        config.set_choice(
            site_key("MatrixMultiply", "AB", 0),
            Selector(((25, 0), (None, option))),
        )
        result = mm.run([a, b], config)
        np.testing.assert_allclose(
            result.output("AB"), self.reference(a, b), atol=1e-12
        )

    def test_single_choice_site(self, matmul_program):
        mm = matmul_program.transform("MatrixMultiply")
        sites = mm.choice_sites()
        assert len(sites) == 1
        assert len(sites[0][1].options) == 4

    def test_recursion_detected(self, matmul_program):
        mm = matmul_program.transform("MatrixMultiply")
        flags = [rule.is_recursive for rule in mm.ir.rules]
        assert flags == [False, True, True, True]

    def test_always_recursive_config_raises(self, matmul_program):
        mm = matmul_program.transform("MatrixMultiply")
        config = ChoiceConfig()
        config.set_choice(
            site_key("MatrixMultiply", "AB", 0), Selector.static(1)
        )
        with pytest.raises(Exception, match="recursion"):
            mm.run([np.ones((4, 4)), np.ones((4, 4))], config)

    def test_nonsquare_shapes(self, matmul_program):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((6, 2))  # c=6, h=2
        b = rng.standard_normal((8, 6))  # w=8, c=6
        mm = matmul_program.transform("MatrixMultiply")
        config = ChoiceConfig()
        # Footprint is 76 here; splitting h (option 3) halves it to 62.
        config.set_choice(
            site_key("MatrixMultiply", "AB", 0),
            Selector(((63, 0), (None, 3))),
        )
        result = mm.run([a, b], config)
        np.testing.assert_allclose(
            result.output("AB"), self.reference(a, b), atol=1e-12
        )

    def test_mismatched_shared_dimension(self, matmul_program):
        mm = matmul_program.transform("MatrixMultiply")
        with pytest.raises(Exception, match="inconsistent|satisfy"):
            mm.run([np.ones((3, 4)), np.ones((5, 2))])


class TestCompileErrors:
    def test_unknown_matrix_in_rule(self):
        with pytest.raises(CompileError):
            compile_program(
                "transform T from A[n] to B[n]"
                "{ to (B.cell(i) b) from (Z.cell(i) z) { b = z; } }"
            )

    def test_uncovered_region(self):
        # Only rule writes [1, n); cell 0 has no rule.
        with pytest.raises(CompileError, match="no rule covers"):
            compile_program(
                "transform T from A[n] to B[n]"
                "{ to (B.cell(i) b) from (A.cell(i-1) a) { b = a; } }"
            )

    def test_deadlock_cycle_detected(self):
        # Each cell depends on the next and the previous: no direction.
        with pytest.raises(CompileError):
            compile_program(
                "transform T from A[n] to B[n]"
                "{ to (B.cell(i) b) from (B.cell(i-1) l, B.cell(i+1) r) "
                "{ b = l + r; } }"
            )

    def test_write_to_input_rejected(self):
        with pytest.raises(CompileError, match="input"):
            compile_program(
                "transform T from A[n] to B[n]"
                "{ to (A.cell(i) a) from (B.cell(i) b) { a = b; } }"
            )

    def test_priorities_handle_corner_case(self):
        # Primary rule needs i-1; secondary covers the corner at i=0.
        program = compile_program(
            """
            transform Shift from A[n] to B[n]
            {
              to (B.cell(i) b) from (A.cell(i-1) a) { b = a; }
              secondary to (B.cell(i) b) from () { b = -1; }
            }
            """
        )
        t = program.transform("Shift")
        segments = t.grid.segments["B"]
        assert len(segments) == 2
        assert [opt.primary for opt in segments[0].options] == [1]
        assert [opt.primary for opt in segments[1].options] == [0]
        result = t.run([np.array([5.0, 6.0, 7.0])])
        np.testing.assert_allclose(result.output("B"), [-1.0, 5.0, 6.0])


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

HEAT = """
transform Heat
from A[n]
to B[n]
through U<0..k>[n]
{
  to (U.cell(0, i) u) from (A.cell(i) a) { u = a; }
  to (U.cell(t, i) u)
  from (U.cell(t-1, i-1) l, U.cell(t-1, i) m, U.cell(t-1, i+1) r)
  {
    u = (l + 2 * m + r) / 4;
  }
  secondary to (U.cell(t, i) u) from (U.cell(t-1, i) m) { u = m; }
  to (B.cell(i) b) from (U.cell(k, i) u) { b = u; }
}
"""


class TestExplicitSizes:
    """``sizes=`` is normalised and validated once, at size binding."""

    @pytest.fixture(scope="class")
    def heat(self):
        return compile_program(HEAT).transform("Heat")

    @pytest.mark.parametrize(
        "steps", [3, 3.0, np.int64(3), np.float32(3.0), np.uint8(3)]
    )
    def test_integral_values_become_int(self, heat, steps):
        data = np.linspace(0.0, 1.0, 9)
        expected = heat.run([data], sizes={"k": 3})
        result = heat.run([data], sizes={"k": steps})
        assert result.sizes == {"k": 3, "n": 9}
        assert all(type(value) is int for value in result.sizes.values())
        np.testing.assert_array_equal(result.output("B"), expected.output("B"))

    @pytest.mark.parametrize(
        "bad", ["3", 2.7, -1, None, float("nan"), float("inf"), [3]]
    )
    def test_other_values_name_the_variable(self, heat, bad):
        with pytest.raises(ExecutionError, match="size variable 'k'"):
            heat.run([np.ones(9)], sizes={"k": bad})
        with pytest.raises(ExecutionError, match="size variable 'k'"):
            heat.bind_sizes_from_shapes([(9,)], {"k": bad})

    @pytest.mark.parametrize("bad", [[3], "k=3", 3])
    def test_non_mapping_rejected(self, heat, bad):
        with pytest.raises(ExecutionError, match="sizes must map"):
            heat.run([np.ones(9)], sizes=bad)


class TestNoFractionsOnTheRunPath:
    """A count, not a timing: ``repro.symbolic`` stores integers, so a warm
    run builds no ``Fraction`` at all and a compile builds only the few the
    dependency annotations read out on purpose."""

    @pytest.fixture
    def fractions_built(self, monkeypatch):
        import fractions

        built = []
        original = fractions.Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting)
        return built

    def warm(self, transform, inputs, config, sizes, built):
        expected = transform.run(inputs, config, sizes=sizes)  # cold: fills caches
        del built[:]
        result = transform.run(inputs, config, sizes=sizes)
        assert built == []
        assert result.rule_applications == expected.rule_applications > 0
        return result

    @pytest.mark.parametrize("leaf_path", [1, 2], ids=["closure", "vector"])
    def test_warm_blur_run(self, fractions_built, leaf_path):
        blur = compile_program(BLUR).transform("Blur")
        config = ChoiceConfig()
        config.set_tunable("Blur.__leaf_path__", leaf_path)
        image = np.arange(34.0 * 34.0).reshape(34, 34)
        result = self.warm(blur, [image], config, None, fractions_built)
        np.testing.assert_array_equal(
            result.output("B"),
            image[1:-1, 1:-1] * 0.5 + image[:-2, :-2] * 0.25
            + image[2:, 2:] * 0.25,
        )

    def test_warm_heat_run(self, fractions_built):
        heat = compile_program(HEAT).transform("Heat")
        data = np.linspace(-1.0, 1.0, 41)
        self.warm(heat, [data], ChoiceConfig(), {"k": 10}, fractions_built)

    def test_warm_sort_ladder(self, fractions_built):
        from repro.apps import sort

        transform = sort.build_program().transform("Sort")
        # insertion sort below 64 keys, 4-way merge below 1024, 2-way above
        ladder = ChoiceConfig()
        ladder.set_choice(
            sort.SORT_SITE, Selector(((128, 0), (2048, 3), (None, 2)))
        )
        keys = np.random.default_rng(7).uniform(0.0, 1.0, 4096)
        result = self.warm(transform, [keys], ladder, None, fractions_built)
        np.testing.assert_array_equal(result.output("B"), np.sort(keys))

    def test_compile_with_analysis_builds_a_handful(self, fractions_built):
        compile_program(BLUR, analyze=True)
        # 14 today: six dependency offsets and eight unit-stride checks
        # read through the exact-Fraction accessors.  The Fraction-per-
        # coefficient representation built about 2000 here.
        assert len(fractions_built) <= 20
