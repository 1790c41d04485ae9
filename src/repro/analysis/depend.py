"""Static dependence analysis and fusion legality (pass family 6).

For every pair of rules sharing a matrix the pass classifies the
potential dependences Bernstein-style — *flow* (writer feeds reader),
*anti* (reader precedes a writer of the same cells), *output* (two
writers) — and computes the dependence distance per dimension from
each rule's access map (:meth:`repro.compiler.ir.RuleIR.access`): when
both accesses sweep a dimension unit-stride in one instance variable,
instances pair up positionally and the distance is the exact constant
gap (:meth:`~repro.compiler.ir.Coordinate.unit_stride_offset`); anything
else is reported as ``*`` (unknown).

On top of the classification sits the legality gate for the first
verified rewrite, producer→consumer fusion of adjacent elementwise
rules (:mod:`repro.rewrite.fuse`).  A ``through`` matrix is a *fusion
candidate* when exactly one rule writes it and exactly one other rule
reads it; the candidate is

* ``legal`` (PB601) when the producer is a pure elementwise step — an
  identity-mapped single-cell write, a one-statement body over its cell
  reads with only vector-stable calls — so substituting its expression
  into the consumer preserves every per-element operation sequence
  bit-for-bit;
* ``blocked`` (PB602) when a writer of the matrix also reads it and a
  concrete conflicting application pair exists — a :class:`Witness`
  proving the matrix's cells depend on its own cells (a carried flow
  dependence — rolling sums, wavefront stencils) so no substitution can
  eliminate it;
* ``ineligible`` otherwise, with the structural reason.

PB602 follows the verifier-wide witness contract: it is only emitted
with a concrete, replayed witness — a suspected-but-unproven chain is
reported as ineligible instead.  PB603 is the per-transform rewrite
audit (always emitted, like PB503): dependence counts plus the status
of every candidate, so ``repro check`` documents why a transform did or
did not gain a fused variant.

The second rewrite family is *schedule* legality (PB604/PB605): may the
engine block a rule's data-parallel (free) instance variables into
cache-sized tiles, and run the sequential chain dimension tile-by-tile
(loop interchange) instead of sweeping the whole free space at every
chain step?  Tiles execute in ascending lexicographic order over the
free space, so the transformation is exact when every self-dependence
the rule carries either stays inside one tile (all free-variable gaps
zero) or points the same way as both orders: a flow dependence (later
chain step) must never reach a lexicographically earlier tile, an anti
dependence never a later one.  :func:`schedule_candidates` derives the
per-variable gaps from the same unit-stride offsets as the distance
vectors; a refusal is only reported as ``blocked`` (PB605) with a
:class:`Witness` — a concrete pair of applications of the rule that a
tiled interchange would run in the wrong order.

The third family is *storage* legality (PB606/PB607): may the engine
keep only a window of a ``through`` matrix's planes, plane ``q`` living
in slot ``q % window``?  :func:`storage_verdict` proves it symbolically
(conditions (a)–(e) there; DESIGN.md "Storage folding") — for segments
that share a band, under the lockstep schedule it names — and the engine
folds every matrix it is proven for; PB607 states the refusal and, when
the refusal is an overwrite the schedule really performs, carries a
:class:`Witness` of it.

The three families share one witness record — (code, sizes, matrix,
writer access, reader access, note) — found by one hunt per family at
one size environment at a time; :func:`validate_witness` replays any of
them at its own sizes and accepts it only if its family's hunt finds
that very record there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.witness import (
    DEFAULT_BUDGET,
    Replay,
    WitnessBudget,
    describe_bounds,
    describe_env,
)
from repro.compiler.codegen import ExecutionError
from repro.compiler.ir import (
    ROLE_INPUT,
    ROLE_THROUGH,
    RegionIR,
    RuleIR,
    TransformIR,
)
from repro.language import ast_nodes as ast

#: Per-dimension dependence distance; ``None`` renders as ``*``.
Distance = Tuple[Optional[Fraction], ...]


def _distance_text(distance: Distance) -> str:
    inner = ", ".join("*" if d is None else str(d) for d in distance)
    return f"({inner})"


@dataclass(frozen=True)
class Dependence:
    """One classified dependence between two rules over one matrix."""

    kind: str  # "flow" | "anti" | "output"
    matrix: str
    src_rule: str
    dst_rule: str
    distance: Distance

    def distance_text(self) -> str:
        return _distance_text(self.distance)


@dataclass(frozen=True)
class Access:
    """One side of a :class:`Witness`: the application of rule ``rule``
    (``rule_id``) at ``instance`` in segment ``segment``, and the cell of
    the witness's matrix it touches."""

    segment: str
    rule: str
    rule_id: int
    instance: Tuple[Tuple[str, int], ...]
    cell: Tuple[int, ...]

    @classmethod
    def of(cls, segment: str, app, cell) -> "Access":
        instance = tuple(sorted(app.assignment.items()))
        return cls(segment, app.rule.label, app.rule.rule_id, instance, cell)

    def describe(self, matrix: str, verb: str) -> str:
        instance = (
            describe_env({}, dict(self.instance)) if self.instance else "sole instance"
        )
        cell = describe_bounds(matrix, [(c, c + 1) for c in self.cell])
        return f"{self.rule} instance ({instance}) of {self.segment} {verb} {cell}"


@dataclass(frozen=True)
class Witness:
    """A replayable PB602/PB605/PB607 refusal (``code``): at ``sizes``,
    ``writer`` writes a cell of ``matrix`` and a *different* application,
    ``reader``, reads one — the same cell, for a flow fusion or tiling
    would break; another plane of the same slot, for an overwrite folded
    storage would perform.  ``note`` says why the pair refutes the
    rewrite.  :func:`validate_witness` replays it."""

    code: str
    sizes: Tuple[Tuple[str, int], ...]
    matrix: str
    writer: Access
    reader: Access
    note: str

    def describe(self) -> str:
        return (
            f"{describe_env(dict(self.sizes))}: "
            f"{self.writer.describe(self.matrix, 'writes')}; "
            f"{self.reader.describe(self.matrix, 'reads')}; {self.note}"
        )


@dataclass(frozen=True)
class FusionCandidate:
    """The fusion verdict for one ``through`` matrix."""

    matrix: str
    producer: str
    consumer: str
    producer_id: int
    consumer_id: int
    status: str  # "legal" | "blocked" | "ineligible"
    reason: str
    distances: Tuple[Distance, ...] = ()
    witness: Optional[Witness] = None

    @property
    def subject(self) -> str:
        return f"fusion over {self.matrix}"

    def distance_text(self) -> str:
        if not self.distances:
            return "(none)"
        return " ".join(_distance_text(vec) for vec in self.distances)


def _region_distance(
    src: RuleIR, src_region: RegionIR, dst: RuleIR, dst_region: RegionIR
) -> Distance:
    if src_region.view_kind != "cell" or dst_region.view_kind != "cell":
        return tuple(None for _ in src_region.box.intervals)
    return tuple(
        s.unit_stride_offset(d)
        for s, d in zip(src.access(src_region), dst.access(dst_region))
    )


def rule_dependences(ir: TransformIR) -> List[Dependence]:
    """Every classified dependence pair over every computed matrix."""
    deps: List[Dependence] = []
    seen = set()

    def emit(kind, matrix, src, dst, src_region, dst_region):
        distance = _region_distance(src, src_region, dst, dst_region)
        key = (kind, matrix, src.rule_id, dst.rule_id, distance)
        if key in seen:
            return
        seen.add(key)
        deps.append(Dependence(kind, matrix, src.label, dst.label, distance))

    for name in sorted(ir.matrices):
        if ir.matrices[name].role == ROLE_INPUT:
            continue
        writers = [
            (rule, reg)
            for rule in ir.rules
            for reg in rule.to_regions
            if reg.matrix == name
        ]
        readers = [
            (rule, reg)
            for rule in ir.rules
            for reg in rule.from_regions
            if reg.matrix == name
        ]
        for writer, wreg in writers:
            for reader, rreg in readers:
                emit("flow", name, writer, reader, wreg, rreg)
                emit("anti", name, reader, writer, rreg, wreg)
        for i, (w1, reg1) in enumerate(writers):
            for w2, reg2 in writers[i + 1 :]:
                if w1.rule_id == w2.rule_id:
                    continue
                emit("output", name, w1, w2, reg1, reg2)
    return deps


def _structural_block(
    ir: TransformIR, producer: RuleIR, consumer: RuleIR, name: str
) -> str:
    """Why substituting the producer's expression into the consumer is
    not obviously exact; empty string when fusion is legal."""
    from repro.engine_fast.vectorize import VECTOR_STABLE_CALLS

    p, c = producer, consumer
    if not p.is_instance_rule:
        return f"producer {p.label} is a whole-region rule"
    if p.native_body is not None:
        return f"producer {p.label} has a native body"
    if p.where or p.residual_where:
        return f"producer {p.label} has a where-clause"
    if len(p.to_regions) != 1:
        return f"producer {p.label} writes {len(p.to_regions)} regions"
    to = p.to_regions[0]
    if to.view_kind != "cell":
        return f"producer {p.label} writes a non-cell view"
    identity = [
        coord.vars[0]
        for coord in p.access(to)
        if coord.rest == 0 and len(coord.terms) == 1 and coord.terms[0][1] == 1
    ]
    if len(identity) != to.ndim() or sorted(identity) != sorted(p.rule_vars):
        return (
            f"producer {p.label} write coordinates are not an "
            f"identity map over its instance variables"
        )
    for reg in p.from_regions:
        if reg.view_kind != "cell":
            return f"producer {p.label} reads a non-cell view of {reg.matrix}"
    if len(p.body) != 1:
        return f"producer {p.label} body has {len(p.body)} statements"
    stmt = p.body[0]
    if (
        not isinstance(stmt, ast.Assign)
        or stmt.op != "="
        or not isinstance(stmt.target, ast.Var)
        or stmt.target.name != to.bind_name
    ):
        return (
            f"producer {p.label} body is not a single '=' assignment "
            f"to its output cell"
        )
    banned = set(p.rule_vars)
    allowed = (
        {reg.bind_name for reg in p.from_regions}
        | set(ir.size_vars)
        | {t.name for t in ir.tunables}
    )

    for node in stmt.value.walk():
        if isinstance(node, ast.Var):
            if node.name in banned:
                return (
                    f"producer {p.label} body references instance "
                    f"variable {node.name!r}"
                )
            if node.name not in allowed:
                return f"producer {p.label} body references {node.name!r}"
        elif isinstance(node, ast.Call):
            if node.name not in VECTOR_STABLE_CALLS:
                return f"producer {p.label} body calls {node.name!r}"
        elif not isinstance(node, (ast.Num, ast.BinOp, ast.UnaryOp)):
            return f"producer {p.label} body uses {type(node).__name__}"

    if not c.is_instance_rule:
        return f"consumer {c.label} is a whole-region rule"
    if c.native_body is not None:
        return f"consumer {c.label} has a native body"
    intermediate_binds = set()
    for reg in c.from_regions:
        if reg.matrix == name:
            if reg.view_kind != "cell":
                return (
                    f"consumer {c.label} reads {name} through a "
                    f"{reg.view_kind} view"
                )
            intermediate_binds.add(reg.bind_name)
    for stmt in c.body:
        target = stmt.target
        tname = None
        if isinstance(target, ast.Var):
            tname = target.name
        elif isinstance(target, ast.CellAccess):
            tname = target.base
        if tname in intermediate_binds:
            return (
                f"consumer {c.label} body assigns to intermediate "
                f"binding {tname!r}"
            )
    return ""


def _flow_witnesses(replay: Replay, code: str, e: int, runs, matrices, keep, note):
    """A ``code`` witness per flow of one of ``matrices`` between two
    different applications of ``runs`` — ``(segment key, applications)``
    pairs at sizes ``replay.envs[e]`` — that ``keep(cell, writer,
    reader)`` accepts; ``keep`` sees every flow, in order."""
    segment_of = {id(app): key for key, run in runs for app in run}
    apps = [app for _key, run in runs for app in run]
    sizes = tuple(sorted(replay.envs[e].items()))
    for matrix in matrices:
        for cell, writer, reader in replay.flows(apps, matrix):
            if keep(cell, writer, reader) and not writer.same_as(reader):
                yield Witness(
                    code, sizes, matrix,
                    Access.of(segment_of[id(writer)], writer, cell),
                    Access.of(segment_of[id(reader)], reader, cell),
                    note,
                )


def _carried_conflicts(replay: Replay, matrix: str, e: int):
    """PB602 witnesses at sizes ``replay.envs[e]``: under the engine's
    default option selection, the first application to write a cell of
    ``matrix`` feeds another application of a rule writing it."""
    segments = replay.compiled.grid.segments.get(matrix, ())
    runs = [
        (seg.key, replay.applications(seg, seg.options[0], e))
        for seg in segments
        if seg.options
    ]
    if any(apps is None for _key, apps in runs):
        return ()
    first: Dict[Tuple[int, ...], object] = {}
    return _flow_witnesses(
        replay, "PB602", e, runs, [matrix],
        lambda cell, writer, _reader: first.setdefault(cell, writer) is writer,
        f"a flow dependence carried by {matrix}",
    )


def _first(replay: Replay, hunt, subject) -> Optional[Witness]:
    """The first witness ``hunt`` finds for ``subject``, smallest sizes first."""
    return next(
        (w for e in range(len(replay.envs)) for w in hunt(replay, subject, e)),
        None,
    )


def _in_box(cell, bounds) -> bool:
    return len(bounds) == len(cell) and all(
        lo <= coord < hi for coord, (lo, hi) in zip(cell, bounds)
    )


# -- schedule legality: tiling and interchange (PB604/PB605) ----------------


@dataclass(frozen=True)
class ScheduleCandidate:
    """The tiling/interchange verdict for one (segment, rule) site.

    Only sites with both a sequential chain variable and at least one
    data-parallel free variable are candidates — with no chain there is
    nothing to interchange and plain blocking is a no-op partition; with
    no free variable there is nothing to tile."""

    segment: str
    matrix: str
    rule: str
    rule_id: int
    chain_vars: Tuple[str, ...]
    free_vars: Tuple[str, ...]
    status: str  # "legal" | "blocked" | "ineligible"
    reason: str
    witness: Optional[Witness] = None

    @property
    def subject(self) -> str:
        return f"schedule candidate {self.segment}/{self.rule}"


def _schedule_deltas(
    rule: RuleIR, wreg: RegionIR, rreg: RegionIR
) -> Tuple[Optional[Dict[str, Fraction]], str]:
    """Per-variable instance gap (reader − writer) implied by one
    application writing a cell through ``wreg`` that another reads
    through ``rreg``.

    Returns ``(deltas, reason)``: a non-empty ``reason`` means some
    dimension cannot be related exactly (the conservative answer);
    ``deltas is None`` with an empty reason means the two accesses
    provably never touch the same cell, so the pair carries no
    dependence at all."""
    if wreg.view_kind != "cell" or rreg.view_kind != "cell":
        return {}, (
            f"{rule.label} accesses {wreg.matrix} through a non-cell view"
        )
    deltas: Dict[str, Fraction] = {}
    for dim, (write, read) in enumerate(
        zip(rule.access(wreg), rule.access(rreg))
    ):
        wvars, rvars = write.vars, read.vars
        offset = write.unit_stride_offset(read)
        if not wvars and not rvars:
            # Both coordinates fixed per application: the accesses alias
            # only if the (size-symbolic) coordinates coincide.
            if offset is not None and offset != 0:
                return None, ""
            if offset == 0:
                continue
            return {}, (
                f"{rule.label}: {wreg.matrix} dim {dim} write/read "
                f"coordinates cannot be compared"
            )
        if offset is None or wvars != rvars:
            return {}, (
                f"{rule.label}: {wreg.matrix} dim {dim} does not pair "
                f"write and read instances one-to-one"
            )
        var = wvars[0]
        delta = -offset  # same cell ⇒ reader instance = writer + delta
        if var in deltas and deltas[var] != delta:
            # Two dimensions pin the same variable to different gaps:
            # the accesses can never alias.
            return None, ""
        deltas[var] = delta
    return deltas, ""


def _pair_block_reason(
    rule: RuleIR,
    matrix: str,
    deltas: Dict[str, Fraction],
    chain_vars: Tuple[str, ...],
    free_vars: Tuple[str, ...],
    directions: Dict[str, int],
) -> str:
    """Why tiling the free variables (chain run per tile, tiles in
    ascending lexicographic order) could reorder this self-dependence;
    empty when the pair is provably schedule-safe."""
    free_d = []
    for var in free_vars:
        if var not in deltas:
            return (
                f"{rule.label}: the {matrix} self-dependence does not "
                f"relate instances of {var!r}"
            )
        free_d.append(deltas[var])
    if all(d == 0 for d in free_d):
        return ""  # the dependence never leaves its tile
    chain_gap = 0
    for var in chain_vars:
        if var not in deltas:
            return (
                f"{rule.label}: the {matrix} self-dependence does not "
                f"relate chain steps of {var!r}"
            )
        adjusted = deltas[var] * directions.get(var, 1)
        if adjusted != 0:
            chain_gap = 1 if adjusted > 0 else -1
            break
    # Tiles run in ascending lex order over the free space, so a
    # dependence into a later chain step (flow) tolerates only
    # never-decreasing free coordinates, and one into an earlier step
    # (anti) only never-increasing ones.
    if chain_gap > 0 and all(d >= 0 for d in free_d):
        return ""
    if chain_gap < 0 and all(d <= 0 for d in free_d):
        return ""
    moved = ", ".join(
        f"Δ{var}={deltas[var]}"
        for var in free_vars
        if deltas[var] != 0
    )
    return (
        f"{rule.label}: a {matrix}-carried dependence crosses tiles "
        f"against the blocked order ({moved}, chain gap "
        f"{'+' if chain_gap > 0 else '-' if chain_gap < 0 else '0'})"
    )


def _schedule_block_reason(
    rule: RuleIR,
    chain_vars: Tuple[str, ...],
    free_vars: Tuple[str, ...],
    directions: Dict[str, int],
) -> str:
    """First reason any self-dependence of ``rule`` makes tiling its
    free variables unsafe; empty when every pair is provably safe."""
    shared = [m for m in rule.writes_matrices() if m in rule.reads_matrices()]
    for name in shared:
        for wreg in rule.to_regions:
            if wreg.matrix != name:
                continue
            for rreg in rule.from_regions:
                if rreg.matrix != name:
                    continue
                deltas, reason = _schedule_deltas(rule, wreg, rreg)
                if reason:
                    return reason
                if deltas is None:
                    continue  # provably never alias
                reason = _pair_block_reason(
                    rule, name, deltas, chain_vars, free_vars, directions
                )
                if reason:
                    return reason
    return ""


@dataclass(frozen=True)
class ScheduleVerdict:
    """The PB604 decision for one (segment, rule) site, with the
    chain/free split of the rule's instance variables it was taken on.

    ``reason`` is empty exactly when tiling/interchange is proven legal.
    ``carried`` marks a refusal caused by a self-dependence the blocked
    order might reorder — PB605 material once a concrete witness is
    found; every other refusal is structural."""

    chain_vars: Tuple[str, ...]
    free_vars: Tuple[str, ...]
    directions: Dict[str, int]
    reason: str
    carried: bool = False

    @property
    def legal(self) -> bool:
        return not self.reason

    @property
    def is_site(self) -> bool:
        """A schedule candidate at all: a chain to interchange *and* a
        free variable to tile."""
        return bool(self.chain_vars and self.free_vars)


def schedule_verdict(site) -> ScheduleVerdict:
    """The single home of the PB604 verdict: may the engine run this
    :class:`~repro.compiler.codegen.Site`'s free variables tile-by-tile,
    the chain inside each tile?

    Decided here once per site and stored as ``site.schedule``, where
    everything that needs the answer reads it — the engine,
    :func:`schedule_candidates` and witness replay — so the knobs, the
    diagnostics and the rewrites cannot disagree.  Only an
    :class:`ExecutionError` from the direction analysis (a rule with no
    consistent iteration order) is a verdict; any other exception is a
    bug and propagates."""
    rule = site.rule
    if not rule.is_instance_rule or rule.native_body is not None:
        return ScheduleVerdict(
            (), (), {}, f"{rule.label} is not a DSL instance rule"
        )
    try:
        directions, (chain_vars, free_vars) = site.order[0], site.split
    except ExecutionError as error:
        return ScheduleVerdict((), (), {}, str(error))
    carried = False
    if not chain_vars or not free_vars:
        reason = f"{rule.label} has no chain/free split to tile"
    elif rule.where or rule.residual_where:
        reason = (
            f"{rule.label} has a where-clause; per-instance fallbacks "
            f"do not tile"
        )
    else:
        reason = _schedule_block_reason(
            rule, chain_vars, free_vars, directions
        )
        carried = bool(reason)
    return ScheduleVerdict(chain_vars, free_vars, directions, reason, carried)


def _schedule_conflicts(replay: Replay, site, e: int):
    """PB605 witnesses at sizes ``replay.envs[e]``: two applications of
    the site's rule, one reading a cell the other writes, that the
    blocked order runs on the wrong side of each other — the reader's
    tile strictly precedes the writer's while its chain step follows (or
    vice versa), for every tile size that separates them (size-1 tiles
    separate any two distinct free coordinates)."""
    if site is None:
        return ()
    rule, verdict = site.rule, site.schedule
    apps = [
        app
        for app in replay.applications(site.segment, site.option, e) or ()
        if app.rule.rule_id == rule.rule_id
    ]

    def order(app):
        at = app.assignment
        chain = tuple(verdict.directions[v] * at[v] for v in verdict.chain_vars)
        return chain, tuple(at[v] for v in verdict.free_vars)

    def wrong_side(_cell, writer, reader) -> bool:
        (chain_w, free_w), (chain_r, free_r) = order(writer), order(reader)
        return (chain_r > chain_w and free_r < free_w) or (
            chain_r < chain_w and free_r > free_w
        )

    shared = [m for m in rule.writes_matrices() if m in rule.reads_matrices()]
    return _flow_witnesses(
        replay, "PB605", e, [(site.segment.key, apps)], shared, wrong_side,
        "the blocked order runs the reader's tile on the wrong side of the write",
    )


def schedule_candidates(
    compiled, budget: WitnessBudget = DEFAULT_BUDGET
) -> List[ScheduleCandidate]:
    """The tiling/interchange verdict of every (segment, rule) site
    that has both a chain and a free instance variable."""
    return _schedule_candidates(Replay(compiled, budget))


def _schedule_candidates(replay: Replay) -> List[ScheduleCandidate]:
    compiled = replay.compiled
    out: List[ScheduleCandidate] = []
    for site in compiled.sites.values():
        segment, rule, verdict = site.segment, site.rule, site.schedule
        if not verdict.is_site:
            continue
        witness = _first(replay, _schedule_conflicts, site) if verdict.carried else None
        status, reason = "blocked" if witness else "ineligible", verdict.reason
        if not reason:
            status = "legal"
        elif verdict.carried and witness is None:
            reason += "; no concrete out-of-order instance pair found within budget"
        out.append(
            ScheduleCandidate(
                segment=segment.key,
                matrix=segment.matrix,
                rule=rule.label,
                rule_id=rule.rule_id,
                chain_vars=verdict.chain_vars,
                free_vars=verdict.free_vars,
                status=status,
                reason=reason,
                witness=witness,
            )
        )
    out.sort(key=lambda c: (c.segment, c.rule_id))
    return out


# -- storage legality: folding a through matrix (PB606/PB607) ---------------


@dataclass(frozen=True)
class StorageVerdict:
    """The PB606 decision for one matrix: may the engine keep only
    ``window`` planes of it along ``axis``, plane ``q`` living in slot
    ``q % window``?  ``reason`` is empty exactly when that is proven
    invisible; otherwise ``axis`` is the axis the refusal is about.
    ``groups`` are the lockstep groups the fold is proven for: runs of
    segment keys, in schedule order, that share one band along ``axis``
    and run one plane at a time."""

    matrix: str
    axis: int
    window: int
    reason: str = ""
    groups: Tuple[Tuple[str, ...], ...] = ()

    @property
    def folds(self) -> bool:
        return not self.reason


def storage_verdict(compiled, matrix: str) -> StorageVerdict:
    """The single home of the PB606 verdict, read through the cache
    ``CompiledTransform.storage_verdicts`` by the engine (which folds
    whatever is legal — there is no knob) and by ``repro check``.

    Folding ``M`` along axis ``d`` is invisible when

    (a) every rule touching ``M`` is a DSL rule binding it through
        ``cell`` views only, and a rule writing ``M`` writes nothing
        else: one cell, each coordinate moving one-to-one with its own
        rule variable (the plane with coefficient +1) or fixed by the
        sizes, assigned with ``=`` before the body reads it — so every
        cell of a segment is written and none starts from what its slot
        held;
    (b) ``schedule_order`` runs ``M``'s segments in ascending band order
        along ``d``; segments sharing a band wider than one plane run
        one after the other in ``schedule_order`` and form a *lockstep
        group*, which the engine runs one plane at a time;
    (c) a plane coordinate that moves with a rule variable moves with a
        chain variable of direction +1 at every site, the only chain of
        a group member's site — with (b), the planes of any one cell are
        produced in ascending order;
    (d) a rule writing ``M`` reads it a constant ``δ >= 1`` planes
        behind its write, so never a plane a group member writes in the
        same step; ``window = 1 + max δ``.  Outside a group only at its
        own cell (a per-cell recurrence: the zero distance in every
        other axis is what makes the fold independent of tile order);
    (e) any other rule reads it at a plane fixed by the sizes and
        provably among the last ``window``.

    Every axis is tried; the first that folds wins, else the refusal
    that got furthest is reported.  (b) comes first: it reads only the
    segment boxes, and this runs on the planning path."""
    mat = compiled.ir.matrices[matrix]
    if mat.role != ROLE_THROUGH:
        return StorageVerdict(matrix, 0, 0, f"{matrix} is not a through matrix")
    best = (-1, 0, f"{matrix} is a scalar")
    segments = [seg for seg in compiled.segment_order if seg.matrix == matrix]
    for axis in range(mat.ndim):
        groups, reason = _lockstep_groups(compiled, segments, axis)  # (b)
        passed, window = 0, 0
        if not reason:
            passed, window, reason = _fold_along(
                compiled, mat, axis, segments, groups
            )
        if not reason:
            return StorageVerdict(matrix, axis, window, groups=groups)
        best = max(best, (passed, -axis, reason))
    return StorageVerdict(matrix, -best[1], 0, best[2])


def _writer_block(rule: RuleIR, name: str, axis: int) -> str:
    """Why ``rule`` is not a writer in the sense of (a); empty if it is."""
    if len(rule.to_regions) != 1:
        return f"{rule.label} writes {len(rule.to_regions)} regions"
    to = rule.to_regions[0]
    seen: List[str] = []
    for dim, coord in enumerate(rule.access(to)):
        unit = [1] if dim == axis else [1, -1]
        if coord.terms and (
            len(coord.terms) > 1
            or coord.vars[0] in seen
            or coord.terms[0][1] not in unit
        ):
            return (
                f"{rule.label} does not write one cell of {name} per "
                f"instance, planes ascending (coordinate {coord.expr})"
            )
        seen.extend(coord.vars)
    for stmt in rule.body:
        if to.bind_name in stmt.value.free_names():
            break
        if to.bind_name in stmt.target.free_names():
            if stmt.op == "=" and isinstance(stmt.target, ast.Var):
                return ""
            break
    return (
        f"{rule.label} reads its {name} cell before assigning it (a "
        f"recycled slot is not zero)"
    )


def _self_reads(ir: TransformIR, name: str):
    """``(rule, write access map, read access map)`` per read of
    ``name`` by a rule that writes it."""
    for rule in ir.rules:
        wrote = [reg for reg in rule.to_regions if reg.matrix == name]
        for reg in rule.from_regions if wrote else ():
            if reg.matrix == name:
                yield rule, rule.access(wrote[0]), rule.access(reg)


def _plane_window(ir: TransformIR, name: str, axis: int) -> int:
    """``1 + max δ`` over :func:`_self_reads`, ``δ`` the constant number
    of planes the read lies behind the write along ``axis``; 0 when some
    read is at no such distance ``>= 1``."""
    window = 1
    for _rule, wrote, read in _self_reads(ir, name):
        gap = wrote[axis].gap(read[axis])
        if gap is None or gap < 1 or gap.denominator != 1:
            return 0
        window = max(window, 1 + int(gap))
    return window


def _lockstep_groups(compiled, segments, axis: int):
    """(b): ``(groups, refusal)`` — the runs of ``segments`` (``M``'s, in
    schedule order) that share a band wider than one plane along
    ``axis``; refused when the bands do not ascend or another segment
    runs between two that share one."""
    known = compiled.ir.assumptions
    position = {seg.key: pos for pos, seg in enumerate(compiled.segment_order)}
    groups: List[List[str]] = []
    for prev, nxt in zip(segments, segments[1:]):
        earlier, band = prev.box.intervals[axis], nxt.box.intervals[axis]
        if earlier.hi.always_le(band.lo, known):
            continue
        if earlier != band:
            return (), (
                f"segments {prev.key} and {nxt.key} do not run in "
                f"ascending plane order"
            )
        if band.length() == 1:
            continue
        between = compiled.segment_order[position[prev.key] + 1 : position[nxt.key]]
        if between:
            sharing = sorted(
                seg.key for seg in segments if seg.box.intervals[axis] == band
            )
            return (), (
                f"segments {', '.join(sharing)} share planes {band} and "
                f"{', '.join(seg.key for seg in between)} runs between them"
            )
        if groups and groups[-1][-1] == prev.key:
            groups[-1].append(nxt.key)
        else:
            groups.append([prev.key, nxt.key])
    return tuple(map(tuple, groups)), ""


def _fold_along(
    compiled, mat, axis: int, segments, groups
) -> Tuple[int, int, str]:
    """``(checks passed, window, refusal)`` of folding ``mat`` along
    ``axis``, its ``segments`` in schedule order and their lockstep
    ``groups`` past (b); the refusal is empty when (a) and (c)-(e) of
    :func:`storage_verdict` all hold."""
    ir, name, known = compiled.ir, mat.name, compiled.ir.assumptions
    for rule in ir.rules:  # (a)
        views = [r.view_kind for r in rule.all_regions if r.matrix == name]
        if views and rule.native_body is not None:
            return 1, 0, f"{rule.label} has a native body"
        kind = next((kind for kind in views if kind != "cell"), None)
        if kind:
            return 1, 0, (
                f"{rule.label} binds {name} through a {kind} view (only "
                f"cell bindings fold)"
            )
        if name in rule.writes_matrices():
            reason = _writer_block(rule, name, axis)
            if reason:
                return 1, 0, reason
    grouped = {key for group in groups for key in group}
    alone = set()  # rules of segments that run outside every group
    for segment in segments:  # (c)
        member = segment.key in grouped
        for option in segment.options:
            rule = ir.rules[option.primary]
            wrote = rule.to_regions[0].box
            order = compiled.depgraph.rule_directions[segment.key, rule.rule_id]
            moves = rule.access(rule.to_regions[0])[axis].terms
            ascending = order.signs[axis] == 1
            if member:  # the plane's variable is the site's one chain
                ascending = ascending and moves and not any(
                    sign for dim, sign in enumerate(order.signs) if dim != axis
                )
            if (moves or member) and not ascending:
                return 2, 0, (
                    f"{rule.label} does not write the planes of "
                    f"{segment.key} as an ascending chain"
                )
            fallback = option.fallback
            if fallback is not None and (
                ir.rules[fallback].to_regions[0].box != wrote
            ):
                return 2, 0, (
                    f"fallback {ir.rules[fallback].label} does not write "
                    f"the cell {rule.label} rejects"
                )
            if not member:
                alone.update((option.primary, option.fallback))
    window = _plane_window(ir, name, axis)  # (d)
    if not window:
        return 3, 0, (
            f"a rule writing {name} reads it at no constant distance "
            f"behind its own write"
        )
    for rule, wrote, read in _self_reads(ir, name):
        for dim, (w, r) in enumerate(zip(wrote, read)):
            if dim != axis and w != r and rule.rule_id in alone:
                return 3, 0, (
                    f"{rule.label} reads {name} at another cell ({r.expr} "
                    f"for {w.expr} in axis {dim}): outside a lockstep group "
                    f"only a per-cell recurrence folds"
                )
    extent = mat.dims[axis]
    for rule in ir.rules:  # (e)
        if name in rule.writes_matrices():
            continue
        for reg in rule.from_regions:
            if reg.matrix != name:
                continue
            plane = reg.box.intervals[axis].lo
            if rule.access(reg)[axis].terms or not plane.always_ge(
                extent - window, known
            ):
                return 4, 0, (
                    f"{rule.label} reads plane {plane} of {name}, not "
                    f"provably one of the last {window}"
                )
    if extent.is_constant() and extent.as_constant() <= window:
        return 4, 0, (
            f"{name} declares {extent} plane(s), no more than its "
            f"window of {window}"
        )
    return 5, window, ""


def _engine_order(replay: Replay, axis: int, groups, e: int):
    """``(segment, option, applications)`` in the order the engine runs
    them at sizes ``replay.envs[e]``, each segment's first option: a
    segment whole, in schedule order — but a lockstep group one plane at
    a time, every member's applications writing each plane of the band
    in turn.  ``applications`` is ``None`` over budget."""
    group_of = {key: group for group in groups for key in group}
    pending = []  # the runs of the group being gathered
    for segment in replay.compiled.segment_order:
        group = group_of.get(segment.key)
        if segment.options:
            option = segment.options[0]
            run = (segment, option, replay.applications(segment, option, e))
            if group is None:
                yield run
                continue
            pending.append(run)
        if group is None or segment.key != group[-1]:
            continue
        if any(apps is None for _segment, _option, apps in pending):
            yield segment, None, None
            return
        rows: Dict[int, List[List]] = {}  # plane -> applications per member
        for index, (_segment, _option, apps) in enumerate(pending):
            for app in apps:
                plane = app.rule.to_regions[0].box.intervals[axis].lo
                rows.setdefault(
                    plane.eval_floor(app.env), [[] for _ in pending]
                )[index].append(app)
        for plane in sorted(rows):
            for (member, option, _all), apps in zip(pending, rows[plane]):
                yield member, option, apps
        pending = []


def _clobbers(replay: Replay, verdict: Optional[StorageVerdict], e: int):
    """PB607 witnesses at sizes ``replay.envs[e]`` of a refused
    ``verdict``: the overwrites a fold along its axis, at the window the
    recurrence alone asks for, would perform.  Runs go in
    :func:`_engine_order` under the verdict's lockstep groups, one
    segment (or one plane of a group member) at a time: when one starts,
    a slot holds what the last earlier run to write it left there — its
    highest plane of the slot if it sweeps the planes ascending, its
    lowest if descending, unknowable (no witness) otherwise.  A read of
    any other plane of that slot is an overwrite the engine really
    performs; reads of cells the reading segment writes itself are not
    judged."""
    if verdict is None or verdict.folds:
        return
    compiled, name, axis = replay.compiled, verdict.matrix, verdict.axis
    window = _plane_window(compiled.ir, name, axis)
    if not window:
        return
    sizes = tuple(sorted(replay.envs[e].items()))
    note = (
        f"with {window} planes kept along axis {axis} both cells share a "
        f"slot, and the read runs later"
    )

    def slot(cell):
        return (*cell[:axis], cell[axis] % window, *cell[axis + 1 :])

    holds: Dict[Tuple[int, ...], Optional[Tuple]] = {}
    for segment, option, apps in _engine_order(replay, axis, verdict.groups, e):
        key = segment.key
        if apps is None:
            return  # over budget: what later slots hold is unknown
        own = replay.box(segment, e) if segment.matrix == name else ()
        for cell, reader in replay.touched(apps, name, "from_regions"):
            held = holds.get(slot(cell))
            if held and held[0][axis] != cell[axis] and not _in_box(cell, own):
                wrote, at, writer = held
                yield Witness(
                    "PB607", sizes, name, Access.of(at, writer, wrote),
                    Access.of(key, reader, cell), note,
                )
        # the order a segment of ``name`` writes its planes in (none for
        # a rule that writes ``name`` from another matrix's segment)
        signs = compiled.depgraph.rule_directions[key, option.primary].signs
        sign = signs[axis] if own else 0
        left: Dict[Tuple[int, ...], Optional[Tuple]] = {}
        for cell, writer in replay.touched(apps, name, "to_regions"):
            held = left.get(slot(cell), ())
            if held is None or (held and not sign):
                left[slot(cell)] = None  # two planes, no order between them
            elif not held or (cell[axis] - held[0][axis]) * sign > 0:
                left[slot(cell)] = (cell, key, writer)
        holds.update(left)


def storage_witness(
    compiled, verdict: StorageVerdict, budget: WitnessBudget = DEFAULT_BUDGET
) -> Optional[Witness]:
    """The first overwrite a refused fold would perform at the window
    its recurrence alone asks for, within budget; ``None`` for a refusal
    that overwrites nothing (PB607 states what the engine does, so it
    is true without a witness)."""
    return _first(Replay(compiled, budget), _clobbers, verdict)


#: per witness family: its hunt, and what it hunts for a given witness
_HUNTS = {
    "PB602": (_carried_conflicts, lambda compiled, w: w.matrix),
    "PB605": (
        _schedule_conflicts,
        lambda compiled, w: compiled.sites.get((w.writer.segment, w.writer.rule_id)),
    ),
    "PB607": (_clobbers, lambda compiled, w: compiled.storage_verdicts.get(w.matrix)),
}


def validate_witness(compiled, witness: Witness) -> bool:
    """Replay a PB602/PB605/PB607 witness through one :class:`Replay`
    pinned to its own sizes: valid exactly when the engine admits those
    sizes and the hunt of its family finds this very record there."""
    if witness.code not in _HUNTS:
        return False
    hunt, subject = _HUNTS[witness.code]
    replay = Replay(compiled, envs=[dict(witness.sizes)])
    return any(
        found == witness
        for e in range(len(replay.envs))
        for found in hunt(replay, subject(compiled, witness), e)
    )


def _candidate_for(replay: Replay, mat) -> Optional[FusionCandidate]:
    ir = replay.compiled.ir
    name = mat.name
    writers = [r for r in ir.rules if name in r.writes_matrices()]
    readers = [r for r in ir.rules if name in r.reads_matrices()]
    if not writers or not readers:
        return None  # dead matrix: hygiene's PB403 territory

    def cand(status, reason="", producer=None, consumer=None, distances=(), witness=None):
        return FusionCandidate(
            matrix=name,
            producer=producer.label if producer else "",
            consumer=consumer.label if consumer else "",
            producer_id=producer.rule_id if producer else -1,
            consumer_id=consumer.rule_id if consumer else -1,
            status=status,
            reason=reason,
            distances=tuple(distances),
            witness=witness,
        )

    writer_ids = {r.rule_id for r in writers}
    external_readers = [r for r in readers if r.rule_id not in writer_ids]
    if any(name in w.reads_matrices() for w in writers):
        # A writer reads the matrix it helps compute: cells of `name`
        # may depend on other cells of `name`, which substitution cannot
        # express.  Blocked only with a concrete, replayed conflict.
        witness = _first(replay, _carried_conflicts, name)
        if witness is not None:
            producer = ir.rules[witness.writer.rule_id]
            consumer = external_readers[0] if external_readers else None
            return cand(
                "blocked",
                f"cells of {name} depend on other {name} cells "
                f"({witness.reader.rule} reads what {witness.writer.rule} "
                f"writes; flow dependence carried by {name})",
                producer=producer,
                consumer=consumer,
                witness=witness,
            )
    if len(writers) > 1:
        return cand(
            "ineligible",
            f"{len(writers)} rules write {name}; fusion needs a single producer",
        )
    producer = writers[0]
    if len(external_readers) != 1:
        return cand(
            "ineligible",
            f"{name} feeds {len(external_readers)} consumer rules; "
            f"fusion needs exactly one",
            producer=producer,
        )
    consumer = external_readers[0]
    distances = []
    if len(producer.to_regions) == 1:
        write_region = producer.to_regions[0]
        for reg in consumer.from_regions:
            if reg.matrix == name:
                distances.append(
                    _region_distance(producer, write_region, consumer, reg)
                )
    if name in producer.reads_matrices():
        return cand(
            "ineligible",
            f"producer {producer.label} reads {name}; no concrete "
            f"conflicting instance found within budget",
            producer=producer,
            consumer=consumer,
            distances=distances,
        )
    reason = _structural_block(ir, producer, consumer, name)
    if reason:
        return cand(
            "ineligible",
            reason,
            producer=producer,
            consumer=consumer,
            distances=distances,
        )
    return cand(
        "legal",
        producer=producer,
        consumer=consumer,
        distances=distances,
    )


def fusion_candidates(
    compiled, budget: WitnessBudget = DEFAULT_BUDGET
) -> List[FusionCandidate]:
    """The fusion verdict of every ``through`` matrix, name order."""
    return _fusion_candidates(Replay(compiled, budget))


def _fusion_candidates(replay: Replay) -> List[FusionCandidate]:
    throughs = sorted(replay.compiled.ir.throughs, key=lambda m: m.name)
    candidates = (_candidate_for(replay, mat) for mat in throughs)
    return [cand for cand in candidates if cand is not None]


def check_depend(replay: Replay, path: str = "") -> List[Diagnostic]:
    """PB601/PB602 per fusion candidate, PB604/PB605 per schedule
    candidate, PB606/PB607 per ``through`` matrix, plus the PB603
    audit."""
    return rewrite_audit(replay, path)[0]


def rewrite_audit(
    replay: Replay, path: str = ""
) -> Tuple[List[Diagnostic], List[Witness]]:
    """One hunt per PB6xx family: :func:`check_depend`'s diagnostics
    and the witnesses those diagnostics carry, in order."""
    compiled = replay.compiled
    ir = compiled.ir
    deps = rule_dependences(ir)
    candidates = _fusion_candidates(replay)
    sched = _schedule_candidates(replay)
    storage = [
        (mat, compiled.storage_verdicts[mat.name])
        for mat in sorted(ir.throughs, key=lambda m: m.name)
    ]
    found = Findings(ir, path)
    witnesses: List[Witness] = []

    for cand in candidates:
        mat = ir.matrices[cand.matrix]
        if cand.status == "legal":
            found.add(
                "PB601",
                ir.rules[cand.consumer_id],
                f"fusing {cand.producer} into {cand.consumer} over "
                f"{cand.matrix} is legal; distance vector(s) "
                f"{cand.distance_text()}",
                f"apply with `repro rewrite --apply` or set tunable "
                f"{ir.name}.__fuse__ = 1",
                region=cand.matrix,
                at=(mat.line, mat.column),
            )
        elif cand.status == "blocked":
            witnesses.append(cand.witness)
            found.add(
                "PB602",
                ir.rules[cand.producer_id],
                f"fusion over {cand.matrix} is blocked: {cand.reason}",
                "fusion would read the producer's expression instead of "
                "the cell another instance wrote",
                witness=cand.witness.describe(),
                region=cand.matrix,
                at=(mat.line, mat.column),
            )
    for site in sched:
        rule = ir.rules[site.rule_id]
        if site.status == "legal":
            found.add(
                "PB604",
                rule,
                f"tiling/interchange of {site.rule} over {site.segment} is "
                f"legal: every {site.matrix}-carried dependence stays "
                f"within or ahead of its tile (chain "
                f"({', '.join(site.chain_vars)}), free "
                f"({', '.join(site.free_vars)}))",
                f"set tunables {ir.name}.__tile_i__ / {ir.name}.__tile_j__ "
                f"(and {ir.name}.__interchange__ = 1) or let `repro tune` "
                f"search them",
                region=site.matrix,
            )
        elif site.status == "blocked":
            witnesses.append(site.witness)
            found.add(
                "PB605",
                rule,
                f"tiling/interchange of {site.rule} over {site.segment} is "
                f"blocked: {site.reason}",
                "a blocked order would visit the reading tile on the "
                "wrong side of the writing one",
                witness=site.witness.describe(),
                region=site.matrix,
            )
    for mat, verdict in storage:
        if not verdict.folds:
            witness = _first(replay, _clobbers, verdict)
            if witness:
                witnesses.append(witness)
            found.add(
                "PB607",
                mat,
                f"storage of {mat.name} is not folded: {verdict.reason}",
                "every declared plane is kept; DESIGN.md \"Storage "
                "folding\" lists the conditions",
                witness=witness.describe() if witness else "",
                region=mat.name,
            )
            continue
        readers = [
            f"{rule.label} at plane {reg.box.intervals[verdict.axis].lo}"
            for rule in ir.rules
            if mat.name not in rule.writes_matrices()
            for reg in rule.from_regions
            if reg.matrix == mat.name
        ]
        lockstep = "".join(
            f"; {', '.join(group)} run in lockstep" for group in verdict.groups
        )
        found.add(
            "PB606",
            mat,
            f"storage of {mat.name} folds to {verdict.window} planes along "
            f"axis {verdict.axis} (reads reach {verdict.window - 1} "
            f"plane(s) back; the last reader is "
            f"{', '.join(readers) or 'nobody'}{lockstep})",
            "nothing to set: a through matrix that may fold always does, "
            "and the problem size still counts every declared plane",
            region=mat.name,
        )
    kinds = Counter(dep.kind for dep in deps)

    def clause(name: str, cand) -> str:
        why = f" ({cand.reason})" if cand.status == "ineligible" else ""
        return f"{name} {cand.status}{why}"

    clauses = [clause(cand.matrix, cand) for cand in candidates]
    clauses += [clause(f"schedule {c.segment}/{c.rule}", c) for c in sched]
    clauses += [
        f"{mat.name} folds ×{verdict.window}"
        for mat, verdict in storage
        if verdict.folds
    ]
    detail = "; ".join(clauses) if clauses else "no fusion candidates"
    found.add(
        "PB603",
        None,
        f"rewrite audit: {len(deps)} dependence(s) "
        f"({kinds['flow']} flow, {kinds['anti']} anti, "
        f"{kinds['output']} output); {detail}",
    )
    return found.diagnostics, witnesses


__all__ = [
    "Access",
    "Dependence",
    "FusionCandidate",
    "ScheduleCandidate",
    "ScheduleVerdict",
    "StorageVerdict",
    "Witness",
    "rule_dependences",
    "fusion_candidates",
    "schedule_candidates",
    "schedule_verdict",
    "storage_verdict",
    "storage_witness",
    "validate_witness",
    "check_depend",
    "rewrite_audit",
]
