"""Unit tests for the legality-gated rewrite layer (`repro.rewrite`).

Covers the structural fusion rewrite (`apply_fusion` / `fuse_transform`),
the verified engine variant (`build_fused_variant`, `fused_variant()`
dispatch through the `__fuse__` tunable), and the IR unparser that
`repro rewrite --apply` emits fused source through.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.depend import fusion_candidates
from repro.compiler import ChoiceConfig, compile_program
from repro.compiler.config import FUSE
from repro.language import ast_nodes as ast
from repro.rewrite import (
    REWRITE_BUDGET,
    RewriteError,
    apply_fusion,
    build_fused_variant,
    fuse_transform,
    program_src,
    transform_src,
)
from tests.strategies import KINDS, planned, programs

PIPE = """
transform Pipe
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(x, y) t) from (A.cell(x, y) a) { t = a * 2.0 + 1.0; }
  to (B.cell(x, y) b) from (T.cell(x, y) t) { b = t * 1.5 - 0.5; }
}
"""

# The consumer reads T at two shifted offsets and also reads A under the
# same bind name the producer uses: exercises per-read σ substitution and
# collision-free renaming at once.
STENCIL = """
transform Stencil
from A[n + 1]
through T[n + 1]
to B[n]
{
  to (T.cell(i) t) from (A.cell(i) a) { t = a * 0.5 + 1.0; }
  to (B.cell(i) b) from (T.cell(i) t0, T.cell(i + 1) t1, A.cell(i) a) {
    b = t0 + t1 * a;
  }
}
"""

# A two-deep chain of intermediates: fuse_transform must fuse end-to-end.
CHAIN = """
transform Chain
from A[n]
through T1[n], T2[n]
to B[n]
{
  to (T1.cell(i) t) from (A.cell(i) a) { t = a + 1.0; }
  to (T2.cell(i) u) from (T1.cell(i) t) { u = t * 2.0; }
  to (B.cell(i) b) from (T2.cell(i) u) { b = u - 3.0; }
}
"""

ROLLING = """
transform Rolling
from A[n]
through S[n]
to B[n]
{
  primary to (S.cell(0) s) from (A.cell(0) a) { s = a; }
  to (S.cell(i) s) from (A.cell(i) a, S.cell(i - 1) prev) { s = a + prev; }
  to (B.cell(i) b) from (S.cell(i) s) { b = s; }
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


def compiled(source, name):
    return compile_program(source).transform(name)


def run_bytes(transform, inputs, config=None, sizes=None):
    result = transform.run(
        {k: v.copy() for k, v in inputs.items()}, config, sizes=sizes
    )
    return {
        name: matrix.data.tobytes() for name, matrix in result.outputs.items()
    }


# -- apply_fusion structure ------------------------------------------------


class TestApplyFusion:
    def test_pipe_fuses_to_one_rule(self):
        transform = compiled(PIPE, "Pipe")
        (cand,) = fusion_candidates(transform, REWRITE_BUDGET)
        fused_ir = apply_fusion(transform.ir, cand)
        assert "T" not in fused_ir.matrices
        assert len(fused_ir.rules) == 1
        (rule,) = fused_ir.rules
        assert rule.label == "rule1+rule0"
        assert rule.rule_id == 0
        # The only read left is A, at the producer's coordinates.
        assert [reg.matrix for reg in rule.from_regions] == ["A"]
        # The inlined body: b = (a * 2.0 + 1.0) * 1.5 - 0.5.
        (stmt,) = rule.body
        assert isinstance(stmt, ast.Assign) and stmt.op == "="
        assert set(stmt.value.free_names()) == {"a"}

    def test_work_model_accounts_for_both_rules(self):
        transform = compiled(PIPE, "Pipe")
        (cand,) = fusion_candidates(transform, REWRITE_BUDGET)
        fused_ir = apply_fusion(transform.ir, cand)
        producer, consumer = transform.ir.rules
        assert fused_ir.rules[0].base_work == (
            producer.base_work + consumer.base_work
        )

    def test_bind_collisions_get_fresh_names(self):
        transform = compiled(STENCIL, "Stencil")
        (cand,) = fusion_candidates(transform, REWRITE_BUDGET)
        fused_ir = apply_fusion(transform.ir, cand)
        (rule,) = fused_ir.rules
        binds = [reg.bind_name for reg in rule.from_regions]
        assert len(binds) == len(set(binds)), "renaming must avoid collisions"
        # Two T reads → two inlined copies of the producer's A read, plus
        # the consumer's own A read.
        assert [reg.matrix for reg in rule.from_regions].count("A") == 3

    def test_non_legal_candidate_raises(self):
        transform = compiled(ROLLING, "Rolling")
        (cand,) = fusion_candidates(transform, REWRITE_BUDGET)
        assert cand.status == "blocked"
        with pytest.raises(RewriteError, match="blocked, not legal: cells of S"):
            apply_fusion(transform.ir, cand)


# -- fuse_transform / build_fused_variant ----------------------------------


class TestFuseTransform:
    def test_fused_matches_unfused(self):
        transform = compiled(PIPE, "Pipe")
        fused, applied = fuse_transform(transform)
        assert len(applied) == 1 and applied[0].matrix == "T"
        rng = np.random.default_rng(0)
        inputs = {"A": rng.uniform(-4.0, 4.0, (5, 7))}
        assert run_bytes(fused, inputs) == run_bytes(transform, inputs)

    def test_chain_fuses_end_to_end(self):
        transform = compiled(CHAIN, "Chain")
        fused, applied = fuse_transform(transform)
        assert [cand.matrix for cand in applied] == ["T1", "T2"]
        assert len(fused.ir.rules) == 1
        rng = np.random.default_rng(1)
        inputs = {"A": rng.uniform(-2.0, 2.0, 9)}
        assert run_bytes(fused, inputs) == run_bytes(transform, inputs)

    def test_blocked_transform_is_untouched(self):
        transform = compiled(ROLLING, "Rolling")
        fused, applied = fuse_transform(transform)
        assert applied == [] and fused is transform

    def test_build_fused_variant_none_when_blocked(self):
        assert build_fused_variant(compiled(ROLLING, "Rolling")) is None

    def test_build_fused_variant_verified(self):
        variant = build_fused_variant(compiled(PIPE, "Pipe"))
        assert variant is not None
        assert len(variant.ir.rules) == 1
        # A fused variant never re-fuses itself.
        assert variant.fused_variant() is None


# -- engine dispatch through __fuse__ --------------------------------------


class TestEngineDispatch:
    def test_fused_variant_cached(self):
        transform = compiled(PIPE, "Pipe")
        assert transform.fused_variant() is transform.fused_variant()

    def test_fuse_tunable_dispatches(self):
        transform = compiled(PIPE, "Pipe")
        rng = np.random.default_rng(2)
        inputs = {"A": rng.uniform(-4.0, 4.0, (6, 4))}
        baseline = run_bytes(transform, inputs)
        config = ChoiceConfig()
        config.set_tunable("Pipe.__fuse__", 1)
        assert run_bytes(transform, inputs, config) == baseline
        # The fused run does one traversal: half the rule applications.
        unfused = transform.run(
            {k: v.copy() for k, v in inputs.items()}
        )
        fused = transform.run(
            {k: v.copy() for k, v in inputs.items()}, config
        )
        assert fused.rule_applications < unfused.rule_applications

    def test_a_fused_frame_plans_at_the_called_transforms_size(self):
        """Fusion moves no selector or cutoff: an 8x8 call counts its
        declared 192 cells (A, T, B) fused or not — the variant, which
        declares no T, would count 128 — so a sequential cutoff of 150
        inlines neither frame."""
        transform = compiled(PIPE, "Pipe")
        config = ChoiceConfig()
        config.set_tunable("Pipe.__seq_cutoff__", 150)
        unfused = transform.plan(config, [(8, 8)])
        config.set_tunable("Pipe.__fuse__", 1)
        fused = transform.plan(config, [(8, 8)])
        assert unfused.transform is transform
        assert fused.transform is transform.fused_variant()
        assert (fused.problem_size, fused.inline) == (192, False)
        assert (unfused.problem_size, unfused.inline) == (192, False)
        assert [name for name, *_ in fused.allocations] == ["B"]

    def test_fused_plans_live_in_the_called_transforms_cache(self):
        transform = compiled(PIPE, "Pipe")
        config = ChoiceConfig()
        config.set_tunable("Pipe.__fuse__", 1)
        inputs = {"A": np.ones((6, 4))}
        for _ in range(2):
            run_bytes(transform, inputs, config)
        variant = transform.fused_variant()
        assert len(variant._plan_cache) == 0
        assert planned(transform) == [transform.plan(config, [(6, 4)])]
        assert planned(transform)[0].transform is variant

    def test_fuse_tunable_noop_when_blocked(self):
        transform = compiled(ROLLING, "Rolling")
        rng = np.random.default_rng(3)
        inputs = {"A": rng.uniform(-1.0, 1.0, 8)}
        baseline = run_bytes(transform, inputs)
        config = ChoiceConfig()
        config.set_tunable("Rolling.__fuse__", 1)
        assert run_bytes(transform, inputs, config) == baseline

    def test_fuse_knob_round_trips_through_config(self):
        config = ChoiceConfig()
        config.set_tunable("Pipe.__fuse__", 1)
        assert config.knob("Pipe", FUSE) == 1
        assert ChoiceConfig().knob("Pipe", FUSE) == 0
        reloaded = ChoiceConfig.from_json(config.to_json())
        assert reloaded.knob("Pipe", FUSE) == 1

    def test_tuner_searches_the_fuse_knob(self):
        """End to end: a short genetic tuning run on a fusible pipeline
        must probe __fuse__ (a 0-based binary range — regression for the
        n-ary search rejecting lo=0) and record a value in the config."""
        from repro.autotuner import Evaluator, GeneticTuner
        from repro.runtime import MACHINES

        program = compile_program(PIPE)

        def inputs(size, rng):
            return [
                np.array(
                    [
                        [rng.uniform(-1, 1) for _ in range(size)]
                        for _ in range(size)
                    ]
                )
            ]

        evaluator = Evaluator(program, "Pipe", inputs, MACHINES["xeon8"])
        tuner = GeneticTuner(
            evaluator,
            min_size=8,
            max_size=16,
            population_size=4,
            tunable_rounds=1,
            refine_passes=0,
        )
        result = tuner.tune()
        assert "Pipe.__fuse__" in result.config.tunables


# -- the unparser ----------------------------------------------------------


class TestUnparse:
    def test_pipe_round_trips(self):
        transform = compiled(PIPE, "Pipe")
        source = transform_src(transform.ir)
        reparsed = compile_program(source).transform("Pipe")
        rng = np.random.default_rng(4)
        inputs = {"A": rng.uniform(-4.0, 4.0, (5, 5))}
        assert run_bytes(reparsed, inputs) == run_bytes(transform, inputs)

    def test_fused_source_round_trips(self):
        transform = compiled(PIPE, "Pipe")
        fused, _ = fuse_transform(transform)
        source = program_src([fused.ir])
        reparsed = compile_program(source).transform("Pipe")
        rng = np.random.default_rng(5)
        inputs = {"A": rng.uniform(-4.0, 4.0, (4, 6))}
        assert run_bytes(reparsed, inputs) == run_bytes(transform, inputs)

    def test_versioned_priority_program_round_trips(self):
        # Versions are emitted desugared (U[k + 1, n]) and priorities are
        # preserved; behavior must survive the round trip.
        transform = compiled(HEAT, "Heat")
        source = transform_src(transform.ir)
        assert "secondary" in source
        reparsed = compile_program(source).transform("Heat")
        rng = np.random.default_rng(6)
        inputs = {"A": rng.uniform(-1.0, 1.0, 10)}
        assert run_bytes(
            reparsed, inputs, sizes={"k": 3}
        ) == run_bytes(transform, inputs, sizes={"k": 3})

    def test_where_clause_round_trips(self):
        source = """
transform Clamp
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) where i > 0, i < n - 1 { b = a; }
  secondary to (B.cell(i) b) from (A.cell(i) a) { b = 0.0 - a; }
}
"""
        transform = compiled(source, "Clamp")
        reparsed = compile_program(transform_src(transform.ir)).transform(
            "Clamp"
        )
        rng = np.random.default_rng(7)
        inputs = {"A": rng.uniform(-2.0, 2.0, 9)}
        assert run_bytes(reparsed, inputs) == run_bytes(transform, inputs)


def assert_unparse_fixed_point(transforms):
    """``program_src`` is a fixed point of parse, compile and unparse."""
    source = program_src(transforms)
    reparsed = compile_program(source).ir.transforms.values()
    assert program_src(list(reparsed)) == source


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_parse_unparse_is_a_fixed_point(kind, data):
    case = data.draw(programs(kind))
    program = compile_program(case.source)
    transforms = list(program.ir.transforms.values())
    assert_unparse_fixed_point(transforms)
    fused, applied = fuse_transform(program.transform(case.name))
    if applied:
        assert_unparse_fixed_point(
            [fused.ir if t.name == case.name else t for t in transforms]
        )
