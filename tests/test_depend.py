"""Unit tests for the static dependence analyzer (pass family 6).

Covers the Bernstein classification (flow/anti/output with symbolic
distances), the fusion legality gate (legal / blocked / ineligible with
structural reasons), the PB602 witness contract (every blocked verdict
carries a concrete conflict that replays against the engine's exact
geometry), and the PB601/PB602/PB603 diagnostics.
"""

import pathlib
import re
from dataclasses import replace
from fractions import Fraction
from collections import Counter
from itertools import product

from hypothesis import given, settings, strategies as st

from repro.analysis.check import check_source, import_file
from repro.analysis.depend import (
    _schedule_deltas,
    check_depend,
    fusion_candidates,
    rule_dependences,
    validate_witness,
)
from repro.analysis.witness import Replay, WitnessBudget
from repro.compiler import compile_program
from repro.compiler.ir import Coordinate, RegionIR, RuleIR
from repro.symbolic import Affine, Box
from tests.strategies import assert_witnesses_replay

BUDGET = WitnessBudget(
    max_size=3, max_envs=8, max_instances=512, max_cells=1024
)

# A legal producer→consumer chain: one elementwise writer of T, one
# aligned elementwise reader.
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

# Same shape but the consumer reads one cell ahead: still legal, with a
# nonzero constant distance.
SHIFT = """
transform Shift
from A[n + 1]
through T[n + 1]
to B[n]
{
  to (T.cell(i) t) from (A.cell(i) a) { t = a + 1.0; }
  to (B.cell(i) b) from (T.cell(i + 1) t) { b = t * 2.0; }
}
"""

# Non-unit-stride consumer read: the distance is unknowable ("*") but
# substitution is still exact, so fusion stays legal.
STRIDE = """
transform Stride
from A[2 * n]
through T[2 * n]
to B[n]
{
  to (T.cell(j) t) from (A.cell(j) a) { t = a * 3.0; }
  to (B.cell(i) b) from (T.cell(2 * i) t) { b = t + 1.0; }
}
"""

# A carried flow dependence: the chain rule reads S cells another
# instance writes, so fusion over S must be blocked with a witness.
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

# Two interchangeable writers of T (an algorithmic choice): ineligible.
TWO_WRITERS = """
transform TwoWriters
from A[n]
through T[n]
to B[n]
{
  to (T.cell(i) t) from (A.cell(i) a) { t = a; }
  to (T.cell(i) t) from (A.cell(i) a) { t = a + 0.0; }
  to (B.cell(i) b) from (T.cell(i) t) { b = t; }
}
"""

# T feeds two distinct consumer rules: ineligible.
TWO_CONSUMERS = """
transform TwoConsumers
from A[n]
through T[n]
to B[n], C[n]
{
  to (T.cell(i) t) from (A.cell(i) a) { t = a * 2.0; }
  to (B.cell(i) b) from (T.cell(i) t) { b = t; }
  to (C.cell(i) c) from (T.cell(i) t) { c = t + 1.0; }
}
"""

# The producer reads a region view: not a pure elementwise step.
REGION_PRODUCER = """
transform RegionProducer
from A[n + 1]
through T[n]
to B[n]
{
  to (T.cell(i) t) from (A.region(i, i + 2) w) { t = sum(w); }
  to (B.cell(i) b) from (T.cell(i) t) { b = t; }
}
"""

COPY = """
transform Copy
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}
"""


def compiled(source, name):
    return compile_program(source).transform(name)


# -- the access map --------------------------------------------------------


def coord(expr, *rule_vars):
    """One access-map entry: ``expr`` split over ``rule_vars``."""
    return Coordinate.split(Affine.coerce(expr), rule_vars)


class TestUnitStrideOffset:
    def test_aligned_sweep_is_zero(self):
        i, j = Affine.var("i"), Affine.var("j")
        assert coord(i, "i").unit_stride_offset(coord(j, "j")) == 0

    def test_constant_gap(self):
        i, j = Affine.var("i"), Affine.var("j")
        assert coord(i, "i").unit_stride_offset(coord(j + 1, "j")) == Fraction(1)
        assert coord(i + 2, "i").unit_stride_offset(coord(j, "j")) == Fraction(-2)

    def test_both_constant(self):
        assert coord(0, "i").unit_stride_offset(coord(0, "j")) == 0

    def test_non_unit_stride_is_unknown(self):
        i, j = Affine.var("i"), Affine.var("j")
        assert coord(i, "i").unit_stride_offset(coord(2 * j, "j")) is None

    def test_broadcast_is_unknown(self):
        # One side sweeps, the other is fixed: the gap varies per pair.
        i = Affine.var("i")
        assert coord(i, "i").unit_stride_offset(coord(0, "j")) is None

    def test_size_var_gap_is_not_constant(self):
        # A size variable is not an instance variable; a residual size
        # term makes the per-pair gap symbolic, hence unknown.
        i, j, n = Affine.var("i"), Affine.var("j"), Affine.var("n")
        assert coord(i + n, "i").unit_stride_offset(coord(j, "j")) is None
        assert coord(i, "i").unit_stride_offset(coord(j + n, "j")) is None

    def test_split_keeps_rule_terms_in_variable_order(self):
        i, j, n = Affine.var("i"), Affine.var("j"), Affine.var("n")
        split = coord(n - 2 * j + i - 1, "j", "i")
        assert split.terms == (("i", 1), ("j", -2))
        assert split.rest == n - 1 and split.expr == n - 2 * j + i - 1


# Brute force for the map: which instance pairs of two accesses touch the
# same cell, at a few sizes ``n``, each rule variable sweeping [0, n).
SIZES = (3, 5, 7)
RULE_VARS = {"src": (("i",), ("i", "j")), "dst": (("k",), ("k", "l"))}


def _instances(rule_vars, n):
    return [dict(zip(rule_vars, values)) for values in product(range(n), repeat=len(rule_vars))]


def _pairs(src, src_vars, dst, dst_vars, n):
    """``(s, d, same cell?)`` per instance pair at size ``n``; ``src`` and
    ``dst`` are tuples of affine coordinates."""
    def cells(coords, rule_vars):
        apps = _instances(rule_vars, n)
        return [(app, tuple(c.evaluate({"n": n, **app}) for c in coords)) for app in apps]

    return [
        (s, d, s_cell == d_cell)
        for s, s_cell in cells(src, src_vars)
        for d, d_cell in cells(dst, dst_vars)
    ]


def _holds(src, src_vars, dst, dst_vars, touches):
    """Do exactly the pairs ``touches(s, d)`` accepts share a cell, at
    every size?"""
    return all(
        same == touches(s, d)
        for n in SIZES
        for s, d, same in _pairs(src, src_vars, dst, dst_vars, n)
    )


def _constant_gaps(src, src_vars, dst, dst_vars):
    """Every constant gap the enumeration shows between two accesses of
    one dimension (``src``, ``dst`` affine): ``(vs, vd, g)`` when two
    pairs share a cell at that gap and, at every size, the pairs sharing
    a cell are exactly those with ``d[vd] - s[vs] == g`` (one pair alone
    can be a coincidence of the small sizes); ``("fixed", g)`` when
    neither access moves with its instance and their cells are ``g``
    apart at every size."""
    by_size = {n: _pairs((src,), src_vars, (dst,), dst_vars, n) for n in SIZES}
    found = set()
    for vs in src_vars:
        for vd in dst_vars:
            seen = Counter(
                d[vd] - s[vs] for s, d, same in by_size[max(SIZES)] if same
            )
            found.update(
                (vs, vd, g)
                for g, count in seen.items()
                if count > 1 and all(
                    same == (d[vd] - s[vs] == g)
                    for pairs in by_size.values()
                    for s, d, same in pairs
                )
            )
    fixed = set()
    for n, pairs in by_size.items():
        ends = {(src.evaluate({"n": n, **s}), dst.evaluate({"n": n, **d})) for s, d, _ in pairs}
        ((s_cell, d_cell),) = ends if len(ends) == 1 else ((None, None),)
        fixed.add(None if s_cell is None else d_cell - s_cell)
    if len(fixed) == 1 and None not in fixed:
        found.add(("fixed", fixed.pop()))
    return found


@st.composite
def coordinates(draw, rule_vars):
    """An affine coordinate over ``rule_vars``: coefficients in -2..2
    plus a constant and a size-variable offset."""
    expr = Affine.const(draw(st.integers(-2, 2))) + draw(st.integers(-1, 1)) * Affine.var("n")
    for var in rule_vars:
        expr = expr + draw(st.integers(-2, 2)) * Affine.var(var)
    return expr


def _equal_strides(a, b):
    """Both accesses sweep one variable with the same coefficient other
    than 1: a constant gap the map leaves unknown (it pairs unit strides
    only)."""
    return (
        len(a.terms) == len(b.terms) == 1
        and a.terms[0][1] == b.terms[0][1] != 1
    )


@st.composite
def access_pairs(draw):
    src_vars = draw(st.sampled_from(RULE_VARS["src"]))
    dst_vars = draw(st.sampled_from(RULE_VARS["dst"]))
    return (
        draw(coordinates(src_vars)), src_vars, draw(coordinates(dst_vars)), dst_vars
    )


class TestAccessMapAgainstEnumeration:
    @settings(max_examples=150, deadline=None)
    @given(access_pairs())
    def test_distance(self, pair):
        src, src_vars, dst, dst_vars = pair
        write, read = coord(src, *src_vars), coord(dst, *dst_vars)
        offset = write.unit_stride_offset(read)
        gaps = _constant_gaps(src, src_vars, dst, dst_vars)
        if offset is None:
            assert not gaps or _equal_strides(write, read)
        elif write.terms:
            ((vs, _),), ((vd, _),) = write.terms, read.terms
            assert _holds((src,), src_vars, (dst,), dst_vars,
                          lambda s, d: d[vd] - s[vs] == -offset)
        else:
            assert _holds((src,), src_vars, (dst,), dst_vars, lambda s, d: offset == 0)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(RULE_VARS["src"]), st.integers(1, 2), st.data())
    def test_delta(self, rule_vars, ndim, data):
        """``_schedule_deltas``: the per-variable gap (reader - writer)
        of one rule's self-dependence, read off the map."""
        wrote = tuple(data.draw(coordinates(rule_vars)) for _ in range(ndim))
        read = tuple(data.draw(coordinates(rule_vars)) for _ in range(ndim))
        wreg = RegionIR("M", "cell", Box.cell(wrote), "w")
        rreg = RegionIR("M", "cell", Box.cell(read), "r")
        rule = RuleIR(0, "r", 0, (wreg,), (rreg,), rule_vars)
        deltas, reason = _schedule_deltas(rule, wreg, rreg)
        if reason:  # unknown: only where one dimension shows no constant gap
            if ndim == 1:
                gaps = _constant_gaps(wrote[0], rule_vars, read[0], rule_vars)
                per_variable = [g for g in gaps if g[0] == "fixed" or g[0] == g[1]]
                assert not per_variable or _equal_strides(
                    coord(wrote[0], *rule_vars), coord(read[0], *rule_vars)
                )
            return
        if deltas is None:  # provably never the same cell
            touches = lambda w, r: False
        else:
            touches = lambda w, r: all(r[v] - w[v] == g for v, g in deltas.items())
        assert _holds(wrote, rule_vars, read, rule_vars, touches)


# -- classification --------------------------------------------------------


class TestRuleDependences:
    def test_pipe_flow_and_anti(self):
        deps = rule_dependences(compiled(PIPE, "Pipe").ir)
        by_kind = {(d.kind, d.src_rule, d.dst_rule): d for d in deps}
        flow = by_kind[("flow", "rule0", "rule1")]
        anti = by_kind[("anti", "rule1", "rule0")]
        assert flow.matrix == "T" and anti.matrix == "T"
        assert flow.distance == (Fraction(0), Fraction(0))
        assert flow.distance_text() == "(0, 0)"
        assert len(deps) == 2  # A is input, B has no reader

    def test_shift_distance(self):
        deps = rule_dependences(compiled(SHIFT, "Shift").ir)
        flow = next(d for d in deps if d.kind == "flow")
        assert flow.distance == (Fraction(1),)

    def test_stride_distance_unknown(self):
        deps = rule_dependences(compiled(STRIDE, "Stride").ir)
        flow = next(d for d in deps if d.kind == "flow")
        assert flow.distance == (None,)
        assert flow.distance_text() == "(*)"

    def test_output_dependence_between_writers(self):
        deps = rule_dependences(compiled(TWO_WRITERS, "TwoWriters").ir)
        outputs = [d for d in deps if d.kind == "output"]
        assert len(outputs) == 1
        assert outputs[0].matrix == "T"
        assert outputs[0].distance == (Fraction(0),)

    def test_rolling_carried_flow(self):
        deps = rule_dependences(compiled(ROLLING, "Rolling").ir)
        carried = [
            d
            for d in deps
            if d.kind == "flow" and d.src_rule == "rule1" and d.dst_rule == "rule1"
        ]
        assert carried, "chain rule must depend on itself through S"
        assert carried[0].distance == (Fraction(-1),)


# -- fusion candidates -----------------------------------------------------


class TestFusionCandidates:
    def test_pipe_is_legal(self):
        (cand,) = fusion_candidates(compiled(PIPE, "Pipe"), BUDGET)
        assert cand.status == "legal"
        assert (cand.matrix, cand.producer, cand.consumer) == (
            "T", "rule0", "rule1",
        )
        assert cand.distances == ((Fraction(0), Fraction(0)),)

    def test_shift_is_legal_with_distance(self):
        (cand,) = fusion_candidates(compiled(SHIFT, "Shift"), BUDGET)
        assert cand.status == "legal"
        assert cand.distances == ((Fraction(1),),)
        assert cand.distance_text() == "(1)"

    def test_stride_is_legal_with_unknown_distance(self):
        (cand,) = fusion_candidates(compiled(STRIDE, "Stride"), BUDGET)
        assert cand.status == "legal"
        assert cand.distance_text() == "(*)"

    def test_rolling_is_blocked_with_witness(self):
        (cand,) = fusion_candidates(compiled(ROLLING, "Rolling"), BUDGET)
        assert cand.status == "blocked"
        assert cand.witness is not None
        assert (cand.witness.code, cand.witness.matrix) == ("PB602", "S")
        assert "depend on other S cells" in cand.reason

    def test_two_writers_ineligible(self):
        (cand,) = fusion_candidates(compiled(TWO_WRITERS, "TwoWriters"), BUDGET)
        assert cand.status == "ineligible"
        assert "2 rules write T" in cand.reason

    def test_two_consumers_ineligible(self):
        (cand,) = fusion_candidates(
            compiled(TWO_CONSUMERS, "TwoConsumers"), BUDGET
        )
        assert cand.status == "ineligible"
        assert "2 consumer rules" in cand.reason

    def test_region_producer_ineligible(self):
        (cand,) = fusion_candidates(
            compiled(REGION_PRODUCER, "RegionProducer"), BUDGET
        )
        assert cand.status == "ineligible"
        assert "non-cell view" in cand.reason

    def test_no_throughs_no_candidates(self):
        assert fusion_candidates(compiled(COPY, "Copy"), BUDGET) == []


# -- the PB602 witness contract --------------------------------------------


class TestPB602Witness:
    def test_witness_replays(self):
        transform = compiled(ROLLING, "Rolling")
        (cand,) = fusion_candidates(transform, BUDGET)
        assert validate_witness(transform, cand.witness)

    def test_tampered_witness_rejected(self):
        transform = compiled(ROLLING, "Rolling")
        (cand,) = fusion_candidates(transform, BUDGET)
        witness = cand.witness
        writer, reader = witness.writer, witness.reader
        for tampered in (
            # Wrong cell: neither region contains it.
            replace(
                witness,
                writer=replace(writer, cell=(99,)),
                reader=replace(reader, cell=(99,)),
            ),
            # Same rule, same instance: not a cross-instance conflict.
            replace(witness, reader=replace(writer, cell=reader.cell)),
            # Out-of-range rule id.
            replace(witness, writer=replace(writer, rule_id=17)),
            # Sizes the engine refuses: negative, or a size left unbound.
            replace(witness, sizes=(("n", -1),)),
            replace(witness, sizes=()),
            # Another family's claim about the same pair.
            replace(witness, code="PB605"),
        ):
            assert not validate_witness(transform, tampered), tampered

    def test_witness_description_names_the_instances(self):
        transform = compiled(ROLLING, "Rolling")
        (cand,) = fusion_candidates(transform, BUDGET)
        text = cand.witness.describe()
        assert "writes S[" in text and "reads S[" in text


def test_every_witness_of_the_check_sweep_replays():
    """The files CI runs ``repro check`` over: each ``build_program()``
    and each module-level DSL constant, every PB602/PB605/PB607 witness
    of its rewrite audit replayed at its own sizes."""
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [
        *sorted(root.glob("src/repro/apps/*.py")),
        *sorted(root.glob("examples/*.py")),
        root / "benchmarks/e2e/programs.py",
    ]
    codes = []
    for path in paths:
        module, failure = import_file(str(path))
        assert failure is None, failure
        programs = [
            compile_program(value, analyze=False)
            for value in vars(module).values()
            if isinstance(value, str)
            and re.search(r"^\s*transform\s+\w+", value, re.MULTILINE)
        ]
        if callable(getattr(module, "build_program", None)):
            programs.append(module.build_program())
        for program in programs:
            for transform in program.transforms.values():
                codes += [w.code for w in assert_witnesses_replay(transform)]
    assert {"PB602", "PB605"} <= set(codes), codes


# -- diagnostics -----------------------------------------------------------


class TestCheckDepend:
    def test_pipe_emits_pb601_and_audit(self):
        transform = compiled(PIPE, "Pipe")
        diags = check_depend(Replay(transform, BUDGET))
        codes = [d.code for d in diags]
        # one storage verdict per through matrix: T is written in one
        # parallel sweep, so every "plane" is kept (PB607)
        assert codes == ["PB601", "PB607", "PB603"]
        pb601 = diags[0]
        assert pb601.severity == "info"
        assert "is legal" in pb601.message
        assert "__fuse__" in pb601.hint
        assert pb601.region == "T"
        audit = diags[2]
        assert "2 dependence(s) (1 flow, 1 anti, 0 output)" in audit.message
        assert "T legal" in audit.message

    def test_rolling_emits_pb602_with_witness(self):
        transform = compiled(ROLLING, "Rolling")
        diags = check_depend(Replay(transform, BUDGET))
        pb602 = next(d for d in diags if d.code == "PB602")
        assert pb602.severity == "info"
        assert pb602.witness, "PB602 must carry a replayable witness"
        audit = next(d for d in diags if d.code == "PB603")
        assert "S blocked" in audit.message

    def test_audit_always_emitted(self):
        diags = check_depend(Replay(compiled(COPY, "Copy"), BUDGET))
        assert [d.code for d in diags] == ["PB603"]
        assert "no fusion candidates" in diags[0].message

    def test_ineligible_reason_lands_in_audit(self):
        diags = check_depend(Replay(compiled(TWO_WRITERS, "TwoWriters"), BUDGET))
        audit = next(d for d in diags if d.code == "PB603")
        assert "T ineligible (2 rules write T" in audit.message

    def test_check_source_includes_depend_family(self):
        report = check_source(PIPE)
        codes = {d.code for d in report}
        assert {"PB601", "PB603"} <= codes
        assert report.exit_code(strict=True) == 0
