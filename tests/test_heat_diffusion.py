"""Integration test: a versioned-matrix iterative DSL program.

Heat diffusion is one of the motivating domains in the paper's intro.
This program exercises several language/compiler features *together*:

* matrix versions ``U<0..k>[n]`` (the version range becomes a leading
  dimension, paper §2's ``A<0..n>`` syntax),
* rule priorities handling the boundary corner cases,
* a multi-rule choice (three-point smoothing vs an unrolled two-step
  rule that skips a version level),
* lexicographic iteration ordering: the smoothing stencil reads
  ``(t-1, i-1..i+1)``, which is schedulable by sweeping ``t`` ascending
  with ``i`` free — the dependency pattern that a naive per-dimension
  direction merge would reject.
"""

import pathlib

import numpy as np
import pytest

from repro.compiler import ChoiceConfig, Selector, compile_program
from repro.compiler.config import site_key

HEAT = """
transform Heat
from A[n]
to B[n]
through U<0..k>[n]
{
  // version 0 is the input
  to (U.cell(0, i) u) from (A.cell(i) a) { u = a; }

  // interior smoothing step (reads three cells of the previous version)
  to (U.cell(t, i) u)
  from (U.cell(t-1, i-1) l, U.cell(t-1, i) m, U.cell(t-1, i+1) r)
  {
    u = (l + 2 * m + r) / 4;
  }

  // boundary cells carry forward (corner-case rule, lower priority)
  secondary to (U.cell(t, i) u) from (U.cell(t-1, i) m) { u = m; }

  // the answer is the last version
  to (B.cell(i) b) from (U.cell(k, i) u) { b = u; }
}
"""


def reference(data, steps):
    x = np.array(data, dtype=float)
    for _ in range(steps):
        new = x.copy()
        new[1:-1] = (x[:-2] + 2 * x[1:-1] + x[2:]) / 4
        x = new
    return x


@pytest.fixture(scope="module")
def heat():
    return compile_program(HEAT).transform("Heat")


class TestCompilation:
    def test_version_becomes_leading_dimension(self, heat):
        u = heat.ir.matrices["U"]
        assert u.ndim == 2
        from repro.symbolic import Affine

        assert u.dims[0] == Affine.var("k") + 1  # k - 0 + 1

    def test_smoothing_rule_gets_lexicographic_order(self, heat):
        # Find the interior segment of U (t >= 1, 1 <= i < n-1) and the
        # smoothing rule's required sweep.
        smoothing = [
            (key, order)
            for (key, rid), order in heat.depgraph.rule_directions.items()
            if rid == 1 and order.signs != (0, 0)
        ]
        assert smoothing, "smoothing rule should have a directional sweep"
        for _, order in smoothing:
            assert order.signs[0] == 1  # ascending versions
            assert order.signs[1] == 0  # i stays parallel

    def test_priorities_split_boundary(self, heat):
        # The interior segment offers the smoothing rule; boundary
        # columns fall to the secondary carry rule.
        segments = heat.grid.segments["U"]
        interiors = [
            seg
            for seg in segments
            if any(opt.primary == 1 for opt in seg.options)
        ]
        boundaries = [
            seg
            for seg in segments
            if all(opt.primary == 2 for opt in seg.options)
        ]
        assert interiors and boundaries


class TestStaticAnalysis:
    EXAMPLE = str(
        pathlib.Path(__file__).resolve().parent.parent
        / "examples"
        / "heat_diffusion.py"
    )

    def test_example_passes_strict_check(self, capsys):
        from repro.analysis import run_check

        assert run_check([self.EXAMPLE], strict=True) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_example_is_fully_batch_stackable(self):
        """PB503: every configuration of the bundled example stacks."""
        from repro.analysis import check_file

        pb503 = [
            d for d in check_file(self.EXAMPLE) if d.code == "PB503"
        ]
        assert pb503, "each transform gets a stacking verdict"
        assert all(
            "batch-stackable under every configuration" in d.message
            for d in pb503
        )

    def test_versions_fold_to_two_planes_in_lockstep(self, heat):
        """PB606: the edge and interior segments share the band of
        versions ``[1, 1 + k)`` and run as one lockstep group, so ``U``
        keeps 2 versions however large ``k`` is."""
        verdict = heat.storage_verdicts["U"]
        assert (verdict.folds, verdict.axis, verdict.window) == (True, 0, 2)
        assert verdict.groups == (("U.3", "U.5", "U.4"),)
        plan = heat.plan(None, [(12,)], {"k": 50})
        assert ("U", (2, 12)) in [alloc[:2] for alloc in plan.allocations]

    def test_versioned_stencil_blocks_fusion_with_witness(self, heat):
        """The wavefront reads U cells other instances wrote: PB602,
        backed by a replay-valid conflict witness."""
        from repro.analysis.depend import fusion_candidates, validate_witness

        (cand,) = [
            c for c in fusion_candidates(heat) if c.matrix == "U"
        ]
        assert cand.status == "blocked"
        assert cand.witness is not None
        assert validate_witness(heat, cand.witness)


class TestExecution:
    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_matches_reference(self, heat, steps):
        rng = np.random.default_rng(steps)
        data = rng.standard_normal(12)
        result = heat.run([data], sizes={"k": steps})
        np.testing.assert_allclose(
            result.output("B"), reference(data, steps), atol=1e-12
        )

    def test_zero_steps_copies_input(self, heat):
        data = np.array([3.0, 1.0, 4.0])
        result = heat.run([data], sizes={"k": 0})
        np.testing.assert_allclose(result.output("B"), data)

    def test_missing_size_rejected(self, heat):
        with pytest.raises(Exception, match="size"):
            heat.run([np.ones(4)])

    def test_smoothing_reduces_variation(self, heat):
        data = np.zeros(33)
        data[16] = 1.0
        result = heat.run([data], sizes={"k": 8})
        out = result.output("B")
        assert out.max() < 0.5
        assert out.sum() == pytest.approx(1.0, abs=1e-9)

    def test_versions_stored_and_ordered(self, heat):
        # Tasks for version t must depend on every task of version t-1,
        # edge and interior alike (they share the lockstep group's
        # barrier): verified behaviourally by correctness; here check
        # the graph chains the versions when blocks are small.
        config = ChoiceConfig()
        config.set_tunable("Heat.__seq_cutoff__", 1)
        config.set_tunable("Heat.__block_size__", 4)
        result = heat.run([np.ones(16)], config, sizes={"k": 4})
        tasks = result.graph.tasks
        (group,) = [t for t in tasks if t.label == "Heat.U.3+U.5+U.4"]
        leaves = [t for t in tasks if t.parent == group.tid]
        # per version: one block per edge, 14 interior cells in blocks of 4
        rows = [leaves[i : i + 6] for i in range(0, len(leaves), 6)]
        assert len(rows) == 4 and all(len(row) == 6 for row in rows)
        assert all(t.deps == () for t in rows[0])
        for previous, row in zip(rows, rows[1:]):
            assert all(t.deps == tuple(p.tid for p in previous) for t in row)
