"""Producer→consumer fusion: the first verified IR-to-IR rewrite.

The rewrite eliminates a ``through`` matrix the dependence analyzer
(:mod:`repro.analysis.depend`) proved fusion-legal (PB601): the
producer is a pure elementwise step writing ``T.cell(v1, .., vk)``
identity-mapped over its instance variables, so for every consumer read
``T.cell(e1, .., ek)`` the value is exactly the producer's body
expression under the substitution ``σ = {v_d ↦ e_d}``.  Fusion inlines
that expression into the consumer's body, re-binds the producer's
from-regions at the σ-shifted coordinates, and drops the producer rule
and the intermediate matrix — one traversal instead of two, no
intermediate allocation, and directly one vector step when the fused
rule stays vector-eligible.

Bit-exactness argument: the fused body performs the producer's exact
operation sequence on the producer's exact operands (cell reads at the
same matrix coordinates the unfused run used, per σ), feeding the
consumer's exact operation sequence; float64 store/load through the
eliminated intermediate is an identity, so every output cell sees the
same IEEE operations in the same order.  The legality gate already
rules out everything that could perturb this (where-clauses, rule-var
arithmetic in the body, calls outside the vector-stable set, region
views).  Defense in depth: :func:`build_fused_variant` re-runs the
error-severity verifier passes (bounds, races, coverage) on the fused
IR and refuses the variant on any finding, and the consistency suite
(``tests/test_consistency.py``) asserts fused ≡ unfused bit-for-bit
across all three leaf paths.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.depend import FusionCandidate, fusion_candidates
from repro.analysis.witness import WitnessBudget
from repro.compiler.ir import RuleIR, TransformIR
from repro.language import ast_nodes as ast
from repro.language.errors import PetaBricksError

__all__ = [
    "REWRITE_BUDGET",
    "RewriteError",
    "apply_fusion",
    "fuse_transform",
    "build_fused_variant",
    "require_legal",
]

#: Probing budget for fusion planning and post-rewrite verification —
#: deeper than the compile-time hook (more sizes per variable) because a
#: rewrite only happens once per transform and must not slip through on
#: a witness the default grid would miss.
REWRITE_BUDGET = WitnessBudget(
    max_size=3, max_envs=8, max_instances=512, max_cells=1024
)


class RewriteError(PetaBricksError):
    """A rewrite was attempted on a candidate the analyzer did not prove
    (or with unusable tile sizes)."""


def require_legal(candidate) -> None:
    """The analyzer gate every rewrite passes: refuse any fusion or
    schedule candidate that is not PB601/PB604-legal."""
    if candidate.status != "legal":
        raise RewriteError(
            f"{candidate.subject} is {candidate.status}, not legal"
            + (f": {candidate.reason}" if candidate.reason else "")
        )


def _body_names(body) -> set:
    return {
        name
        for stmt in body
        for expr in (stmt.target, stmt.value)
        for name in expr.free_names()
    }


def _fresh_name(base: str, used) -> str:
    if base not in used:
        return base
    suffix = 2
    while f"{base}_{suffix}" in used:
        suffix += 1
    return f"{base}_{suffix}"


def apply_fusion(ir: TransformIR, candidate: FusionCandidate) -> TransformIR:
    """The fused transform IR for one PB601-legal candidate.

    Purely structural — no verification here; callers go through
    :func:`build_fused_variant` (or re-verify themselves) before
    executing the result.
    """
    require_legal(candidate)
    producer = ir.rules[candidate.producer_id]
    consumer = ir.rules[candidate.consumer_id]
    name = candidate.matrix

    # Identity write map: producer's d-th instance variable indexes the
    # d-th dimension (the legality gate proved this).
    axis_vars = [
        coord.vars[0] for coord in producer.access(producer.to_regions[0])
    ]

    used = {reg.bind_name for reg in consumer.to_regions}
    used |= {
        reg.bind_name
        for reg in consumer.from_regions
        if reg.matrix != name
    }
    used |= _body_names(consumer.body)

    new_from = []
    inline: Dict[str, ast.ExprNode] = {}
    for region in consumer.from_regions:
        if region.matrix != name:
            new_from.append(region)
            continue
        # σ maps the producer's instance variables to this read's
        # coordinates (affine over the consumer's variables and sizes).
        sigma = {
            var: interval.lo
            for var, interval in zip(axis_vars, region.box.intervals)
        }
        rename: Dict[str, str] = {}
        for pregion in producer.from_regions:
            fresh = _fresh_name(pregion.bind_name, used)
            used.add(fresh)
            rename[pregion.bind_name] = fresh
            new_from.append(
                replace(
                    pregion,
                    box=pregion.box.subs(sigma),
                    bind_name=fresh,
                )
            )
        inline[region.bind_name] = producer.body[0].value.map_vars(
            lambda var, rename=rename: (
                replace(var, name=rename[var.name])
                if var.name in rename
                else var
            ),
        )

    new_body = tuple(
        replace(
            stmt,
            value=stmt.value.map_vars(lambda var: inline.get(var.name, var)),
        )
        for stmt in consumer.body
    )

    fused = replace(
        consumer,
        label=f"{consumer.label}+{producer.label}",
        from_regions=tuple(new_from),
        body=new_body,
        base_work=consumer.base_work + producer.base_work,
    )

    new_rules = []
    for rule in ir.rules:
        if rule.rule_id == producer.rule_id:
            continue
        chosen = fused if rule.rule_id == consumer.rule_id else rule
        new_rules.append(unanalyzed(chosen, rule_id=len(new_rules)))
    new_matrices = {
        mat_name: mat
        for mat_name, mat in ir.matrices.items()
        if mat_name != name
    }
    return replace(ir, matrices=new_matrices, rules=new_rules)


def unanalyzed(rule: RuleIR, **changes) -> RuleIR:
    """A fresh copy of ``rule`` with ``changes`` applied and its
    analysis fields cleared: compiling the rewritten IR re-runs the
    applicable-regions pass (shared by every rewrite in this package)."""
    return replace(
        rule,
        applicable={},
        var_bounds={},
        residual_where=(),
        size_guards=(),
        **changes,
    )


def fuse_transform(
    compiled, budget: WitnessBudget = REWRITE_BUDGET
) -> Tuple[object, List[FusionCandidate]]:
    """Apply every legal fusion, re-planning after each (chains of
    intermediates fuse end-to-end).  Returns the final compiled
    transform (the input itself when nothing fused) and the applied
    candidates in order."""
    from repro.compiler.codegen import CompiledTransform

    current = compiled
    applied: List[FusionCandidate] = []
    for _ in range(max(1, len(compiled.ir.matrices))):
        legal = [
            cand
            for cand in fusion_candidates(current, budget)
            if cand.status == "legal"
        ]
        if not legal:
            break
        new_ir = apply_fusion(current.ir, legal[0])
        current = CompiledTransform(new_ir, compiled.program)
        applied.append(legal[0])
    return current, applied


def build_fused_variant(
    compiled, budget: WitnessBudget = REWRITE_BUDGET
) -> Optional[object]:
    """The verified fused variant of a compiled transform, or ``None``.

    ``None`` means "run unfused": no legal candidate, a compile failure
    on the fused IR, or — defense in depth — any error-severity finding
    when the full bounds/races/coverage verifier re-runs on the
    rewritten IR.  Never raises."""
    from repro.analysis.check import analyze_transform

    try:
        variant, applied = fuse_transform(compiled, budget)
        if not applied:
            return None
        if analyze_transform(variant, budget, errors_only=True):
            return None
    except PetaBricksError:
        return None
    return variant
