"""The one program generator, plus what more than one test module shares.

:func:`programs` draws a :class:`Case` of one kind: a program, the input
sets it runs on and the configurations it runs under.  The generated
kinds cover stencil read offsets, strided reads, residual where-clauses
with and without a fallback, fusible ``through`` chains and versioned
chains over planes at an offset; the fixed kinds draw sizes, inputs and
strip widths for programs written out here.  :func:`check_case` runs a
case against the interpreter: ``tests/test_consistency.py`` over every
kind, and the ``tests/test_*_diff.py`` modules over named slices of it
(a kind with some of its draws pinned).

The shared programs, :func:`tiny_strips`, :func:`drop_fallbacks`, the
TreeSum builder program and the raw-socket :func:`converse` live here
because no test module imports another.
"""

import dataclasses
import re
import socket
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from repro.analysis.depend import (
    fusion_candidates,
    rewrite_audit,
    schedule_candidates,
    validate_witness,
)
from repro.analysis.witness import Replay
from repro.apps import rollingsum
from repro.autotuner.consistency import observe, observe_batch
from repro.compiler import ChoiceConfig, Selector, TransformBuilder, compile_program
from repro.rewrite import REWRITE_BUDGET

#: the app's program without its comment lines, which would otherwise
#: lead the test ids it parametrizes
ROLLINGSUM = re.sub(r"\n *//[^\n]*", "", rollingsum.SOURCE)

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

# Wavefront stencil: the interior rule reads neighbor columns of the
# previous step, so an (i)-tile boundary can be crossed against the
# blocked order — the canonical PB605-blocked shape.
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

# Matrix multiply as a rolling reduction: k is a sequential chain,
# (i, j) stay data parallel — the canonical PB604-legal shape.
MATMUL_CHAIN = """
transform MatMulChain
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 0.0; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  {
    s = prev + a * b;
  }
  to (C.cell(i, j) c) from (S.cell(p, i, j) s) { c = s; }
}
"""

# A multi-segment transform: an elementwise stage, a boundary row and a
# row-by-row chain (i sequential, j data parallel).
STAGES = """
transform Stages
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(i, j) t) from (A.cell(i, j) a) { t = a + 1.0; }
  to (B.cell(0, j) b) from (T.cell(0, j) t) { b = t; }
  to (B.cell(i, j) b) from (T.cell(i, j) t, B.cell(i - 1, j) p) { b = t + p; }
}
"""


def build_treesum():
    """TreeSum: S = sum(A).  Rule 0 is a sequential direct sum (work n);
    rule 1 splits in half and recurses in parallel (work ~1 per level)."""
    b = TransformBuilder("TreeSum")
    b.input("A", "n")
    b.output("S")

    def direct(ctx):
        view = ctx["a"]
        ctx["s"].set(float(np.sum(view.to_numpy())))
        ctx.charge(max(1, view.shape[0]))

    def split(ctx):
        view = ctx["a"]
        half = view.shape[0] // 2
        n = view.shape[0]
        left, right = ctx.parallel(
            lambda: ctx.call("TreeSum", view.region(0, half)),
            lambda: ctx.call("TreeSum", view.region(half, n)),
        )
        ctx["s"].set(left.value + right.value)
        ctx.charge(2)

    b.rule(to=[("S", "all", "s")], from_=[("A", "all", "a")], body=direct,
           label="direct")
    b.rule(to=[("S", "all", "s")], from_=[("A", "all", "a")], body=split,
           label="split", recursive=True)
    return compile_program([b.build()])


def treesum_inputs(size, rng):
    return [np.array([rng.uniform(-1, 1) for _ in range(size)])]


def converse(daemon, *steps, half_close=True):
    """Raw bytes to the daemon, in ``steps`` (each sent once the reply
    to the one before has started to arrive), then — ``half_close`` —
    the end of the stream; returns everything sent back until the
    daemon hangs up, split into ``(status, headers with lower-cased
    names, body)`` per reply."""
    received = b""
    with socket.create_connection(
        ("127.0.0.1", daemon.port), timeout=5.0
    ) as sock:
        for index, step in enumerate(steps):
            if index:
                received += sock.recv(65536)
            sock.sendall(step)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        received += b"".join(iter(lambda: sock.recv(65536), b""))
    replies = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.lower(): value
            for name, value in (line.split(": ", 1) for line in lines)
        }
        length = int(headers.get("content-length", 0))
        replies.append(
            (int(status_line.split()[1]), headers, received[:length])
        )
        received = received[length:]
    return replies


@contextmanager
def tiny_strips(cells=8):
    """Strip-mine every vector step into ``cells``-cell strips (``None``:
    the real width, at which a test-sized program is one strip)."""
    from repro.engine_fast import vectorize

    original = vectorize.STRIP_BYTES
    vectorize.STRIP_BYTES = 8 * cells if cells else original
    try:
        yield
    finally:
        vectorize.STRIP_BYTES = original


def planned(transform):
    """The distinct run plans in ``transform``'s plan cache, which holds
    each one under its config key and its decisions key."""
    held = transform._plan_cache._data.values()
    return list({id(plan): plan for plan in held}.values())


def drop_fallbacks(transform):
    """Strip the fallback rule off every meta-rule option.  No DSL source
    compiles to this (PB301 demands coverage), but the engine defines
    the outcome: the first rejected instance aborts the run."""
    for segment in transform.grid.all_segments():
        segment.options = tuple(
            dataclasses.replace(option, fallback=None)
            for option in segment.options
        )


def chain_source(dx: int, dy: int, scale: float, through=False) -> str:
    """A versioned-plane program whose step rule (``rule1``) reads the
    previous plane at offset ``(dx, dy)``; a secondary copy rule carries
    the cells the shifted read cannot reach.  ``S`` is an output,
    returned whole, so the blocked order runs on every plane; a
    ``through`` S folds instead, its band-sharing segments in an untiled
    lockstep group when the offset is not ``(0, 0)``."""
    storage = "to B[n, m]\nthrough S" if through else "to B[n, m], S"
    return (
        "transform RChain\n"
        "from A[n + 2, m + 2]\n"
        f"{storage}<0..t_end>[n + 2, m + 2]\n"
        "{\n"
        "  to (S.cell(0, x, y) s) from (A.cell(x, y) a) { s = a; }\n"
        f"  to (S.cell(t, x, y) s)\n"
        f"  from (S.cell(t - 1, x + {dx}, y + {dy}) prev, A.cell(x, y) a)\n"
        f"  {{ s = prev * {scale!r} + a; }}\n"
        "  secondary to (S.cell(t, x, y) s)"
        " from (S.cell(t - 1, x, y) prev) { s = prev; }\n"
        "  to (B.cell(x, y) b) from (S.cell(t_end, x + 1, y + 1) s)"
        " { b = s; }\n"
        "}\n"
    )


# -- the one program strategy -----------------------------------------------

#: reserved tunables under which a tiny program still records one task
#: per three cells (the defaults inline it whole into its root task)
BLOCKED = {"__seq_cutoff__": 0, "__block_size__": 3}

#: untiled, then real sub-extent tiles with and without interchange
TILES = (
    {},
    {"__tile_i__": 1},
    {"__tile_i__": 2, "__tile_j__": 2},
    {"__tile_i__": 2, "__tile_j__": 2, "__interchange__": 1},
    {"__tile_i__": 2, "__tile_j__": 1, "__interchange__": 1},
)

FUSE = ({}, {"__fuse__": 1})


@dataclass
class Case:
    """``lanes`` are input sets: each runs under every leaf path × every
    entry of ``knobs`` (reserved tunables), serially and all together
    through the batch engine.  Every error, or ``None``, must fullmatch
    ``error``.  ``demotes``: the vector leaf runs the closure here, so
    it records the interpreter's graph too.  ``info`` holds what the
    kind's own checks read: ``fuses`` (a verified fused variant exists),
    ``legal`` (PB604 verdict of the offset rule ``rule1``), ``blocked``
    (a pair of its applications tiling runs out of order exists), ``tiles``
    (some run tiled), ``stacks`` (every lane stacked), ``fails`` (which
    lanes raise)."""

    source: str
    name: str
    lanes: list
    knobs: tuple = ({},)
    sizes: Optional[dict] = None
    choices: dict = field(default_factory=dict)
    cells: Optional[int] = None
    drop_fallbacks: bool = False
    demotes: bool = False
    error: str = "None"
    info: dict = field(default_factory=dict)


def _arrays(draw, shapes, low=-4.0, high=4.0, zeros=False):
    """Uniform values, or with ``zeros`` cells of ``low``, ``high``, 0.0
    and -0.0, whose ties ``min``/``max`` must break like the interpreter."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if zeros:
        values = np.array([low, high, 0.0, -0.0])
        return {name: values[rng.integers(0, 4, shape)] for name, shape in shapes.items()}
    return {name: rng.uniform(low, high, shape) for name, shape in shapes.items()}


_OPS = ("+", "-", "*")
_CALLS = ("min", "max", "abs")


def _expr(draw, leaves, depth):
    """A random arithmetic expression over ``leaves`` and literals."""
    if depth == 0 or draw(st.booleans()):
        return draw(
            st.one_of(
                st.sampled_from(leaves),
                st.floats(-2, 2, allow_nan=False).map(
                    lambda f: repr(round(f, 3))
                ),
            )
        )
    kind = draw(st.sampled_from(("binop", "call", "neg")))
    if kind == "binop":
        op = draw(st.sampled_from(_OPS))
        return f"({_expr(draw, leaves, depth - 1)} {op} {_expr(draw, leaves, depth - 1)})"
    if kind == "neg":
        return f"(-{_expr(draw, leaves, depth - 1)})"
    call = draw(st.sampled_from(_CALLS))
    if call == "abs":
        return f"abs({_expr(draw, leaves, depth - 1)})"
    return f"{call}({_expr(draw, leaves, depth - 1)}, {_expr(draw, leaves, depth - 1)})"


#: Non-affine predicates over the instance variables: each stays a
#: *residual* where-clause the engine must evaluate per instance.
_PREDICATES = (
    "(x + y) % 2 == 0",
    "x % 3 != 1",
    "x * y < 4",
    "x % 2 == 0 && y % 2 == 1",
    "x * x > 100",  # rejects everything
    "x * y >= 0",  # accepts everything
)


def _stencil(draw, where=st.booleans(), cells=st.sampled_from((None, 1, 3, 8))):
    """A straight-line elementwise 2-D stencil ``A[n+2, m+2] → B[n, m]``.

    A strided read ``A.cell(2 * x + c, y + dy)`` binds in only part of
    ``B``.  A residual where-clause makes the rule a meta-rule, and so
    does reading ``A.cell(x + y + 2, y)``: a coordinate coupling both
    variables, which the compiler guards with an implicit residual
    clause (``x + y < n``) — lowering that binding before the clause
    reads out of bounds.  Either way a second, unrestricted rule catches
    the rest, unless the case drops it."""
    reads = [
        f"A.cell(x + {draw(st.integers(0, 2))}, y + {draw(st.integers(0, 2))}) r{i}"
        for i in range(draw(st.integers(1, 3)))
    ]
    leaves = [f"r{i}" for i in range(len(reads))]
    where = draw(where)
    # signed zeros under a min/max tie, for the vector leaf: no residual
    # clause demotes it
    zeros = not where and draw(st.booleans())
    guard = where and draw(st.booleans())
    predicate = draw(st.sampled_from(("",) * guard + _PREDICATES)) if where else ""
    clause = f" where {predicate}" if predicate else ""
    if guard:
        reads.append("A.cell(x + y + 2, y) g")
        leaves.append("g")
    strided = not guard and draw(st.booleans())
    if strided:
        reads[0] = f"A.cell(2 * x + {draw(st.integers(1, 2))}, y + {draw(st.integers(0, 2))}) r0"
    value = _expr(draw, leaves, 2)
    if zeros:  # a read and a negated read: a tie at every zero
        call, left, right = (draw(st.sampled_from(x)) for x in (_CALLS[:2], leaves, leaves))
        value = f"{call}({left}, -{right}) * {value}"
    body = f"b = {value};"
    if draw(st.booleans()):
        op = draw(st.sampled_from(("+=", "-=", "*=")))
        body += f" b {op} {_expr(draw, leaves, 1)};"
    rules = f"  to (B.cell(x, y) b) from ({', '.join(reads)}){clause} {{ {body} }}\n"
    choices = {}
    if strided or where:
        rules += (
            "  to (B.cell(x, y) b) from (A.cell(x, y) r0) "
            f"{{ b = {_expr(draw, ['r0'], 1)} - 0.5; }}\n"
        )
        # the first rule wherever it is offered: alone, or as a meta-rule
        # (option 0 is then the fallback on its own)
        choices = {"Stencil.B.0": 1 if where else 0}
    drop = where and draw(st.booleans())
    shapes = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6)),
            min_size=1, max_size=2, unique=True,
        )
    )
    lanes = [
        _arrays(draw, {"A": (n + 2, m + 2)}, zeros=zeros)
        for n, m in shapes
        for _ in range(draw(st.integers(1, 2)))
    ]
    draw(st.randoms(use_true_random=False)).shuffle(lanes)
    return Case(
        f"transform Stencil\nfrom A[n+2, m+2]\nto B[n, m]\n{{\n{rules}}}\n",
        "Stencil",
        lanes,
        knobs=({}, BLOCKED),
        choices=choices,
        cells=draw(cells),
        drop_fallbacks=drop,
        demotes=where and not strided,  # B.1, the fallback's own, vectorizes
        error=r"None|ExecutionError: .*where-clause fails.*" if drop else "None",
    )


def _chain(draw):
    """A random 2-D elementwise producer→consumer chain.

    ``A[n+4, m+4] → T[n+2, m+2] → B[n, m]``: the producer reads A at
    offsets 0..2 (in-bounds over T's domain), the consumer reads T at
    offsets 0..2 (in-bounds over B's domain) and may read A directly —
    under a producer binding's name, exercising the fresh-rename path."""
    preads = [
        (f"p{i}", draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for i in range(draw(st.integers(1, 3)))
    ]
    pfroms = ", ".join(f"A.cell(x + {dx}, y + {dy}) {bind}" for bind, dx, dy in preads)
    pbody = _expr(draw, [bind for bind, _, _ in preads], 2)
    creads = [
        (f"t{i}", draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for i in range(draw(st.integers(1, 2)))
    ]
    cfrom = [f"T.cell(x + {dx}, y + {dy}) {bind}" for bind, dx, dy in creads]
    cleaves = [bind for bind, _, _ in creads]
    if draw(st.booleans()):
        cfrom.append("A.cell(x, y) p0")
        cleaves.append("p0")
    source = (
        "transform Chain\nfrom A[n + 4, m + 4]\nthrough T[n + 2, m + 2]\n"
        "to B[n, m]\n{\n"
        f"  to (T.cell(x, y) t) from ({pfroms}) {{ t = {pbody}; }}\n"
        f"  to (B.cell(x, y) b) from ({', '.join(cfrom)})"
        f" {{ b = {_expr(draw, cleaves, 2)}; }}\n"
        "}\n"
    )
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return Case(
        source, "Chain", [_arrays(draw, {"A": (n + 4, m + 4)})],
        knobs=FUSE, info={"fuses": True},
    )


def _planes(draw, legal=st.booleans(), through=st.booleans()):
    """``chain_source`` at a random offset, ``S`` an output or folded.
    A ``legal`` offset points back along the blocked order; any other
    has a forward component."""
    legal = draw(legal)
    top = 0 if legal else 1
    dx, dy = draw(st.integers(-1, top)), draw(st.integers(-1, top))
    if not legal and dx <= 0 and dy <= 0:
        dx = 1
    through = draw(through)
    scale = round(draw(st.floats(0.25, 1.75, allow_nan=False)), 3)
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    return Case(
        chain_source(dx, dy, scale, through), "RChain",
        [_arrays(draw, {"A": (n + 2, m + 2)}, -2.0, 2.0)],
        knobs=TILES, sizes={"t_end": draw(st.integers(1, 4))},
        info={} if through else {
            "legal": legal, "tiles": legal, "blocked": (dx, dy) > (0, 0)
        },
    )


def _rollingsum(draw, lanes=st.integers(1, 3)):
    """Both algorithmic choices (region reduction and sequential chain)."""
    n = draw(st.integers(1, 24))
    option = draw(st.integers(0, 1))
    return Case(
        ROLLINGSUM, "RollingSum",
        [_arrays(draw, {"A": (n,)}, -1.0, 1.0) for _ in range(draw(lanes))],
        knobs=({}, BLOCKED),
        choices={"RollingSum.B.0": 0, "RollingSum.B.1": option},
    )


def _window(draw):
    """Region-reduction windows at varying offsets."""
    lo, width, n = draw(st.integers(0, 2)), draw(st.integers(1, 3)), draw(st.integers(4, 10))
    source = (
        f"transform Window\nfrom A[n + {lo + width}]\nto B[n]\n{{\n"
        f"  to (B.cell(i) b) from (A.region(i + {lo}, i + {lo + width}) a)"
        " { b = sum(a); }\n}\n"
    )
    return Case(source, "Window", [_arrays(draw, {"A": (n + lo + width,)}, -2.0, 2.0)])


#: name -> (source, transform, input shapes given (n, m)).  One operand
#: form each: the strip loop re-slices axis 1 of whatever view
#: ``emit_regions`` built, so each form must survive the re-slice.
OPERAND_PROGRAMS = {
    "reversed": ("""
transform Reversed
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(n - 1 - x, y) a, A.cell(x, m - 1 - y) c) {
    b = a * 2 + c * 0.5 - 1;
  }
}
""", "Reversed", lambda n, m: {"A": (n, m)}),
    "transposed": ("""
transform Transposed
from A[m, n]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(y, x) a) { b = a * 0.5 + a * a; }
}
""", "Transposed", lambda n, m: {"A": (m, n)}),
    "outer": ("""
transform Outer
from U[n], V[m]
to B[n, m]
{
  to (B.cell(x, y) b) from (U.cell(x) u, V.cell(y) v) {
    b = u * v + u * 2 - min(v, u);
  }
}
""", "Outer", lambda n, m: {"U": (n,), "V": (m,)}),
    "compound": ("""
transform Compound
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = a + 1; b *= a - 0.5; b += b * 2; b -= a;
  }
}
""", "Compound", lambda n, m: {"A": (n, m)}),
    "row-chain": ("""
transform RowChain
from A[n, m]
to B[n, m]
{
  to (B.cell(0, y) b) from (A.cell(0, y) a) { b = a; }
  to (B.cell(x, y) b) from (B.cell(x - 1, y) up, A.cell(x, y) a) {
    b = up * 0.625 + a * 0.375;
  }
}
""", "RowChain", lambda n, m: {"A": (n, m)}),
    "by-value": ("""
transform ByValue
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) {
    b = (a + x * 2 - y) * (x < y) + !(a > 0) + (a % 3) / (y + 1);
  }
}
""", "ByValue", lambda n, m: {"A": (n, m)}),
}


def _operands(draw):
    """Reversed (negative-stride) and transposed reads, broadcast
    operands, compound targets, a chain rule reading the matrix it
    writes and free variables used by value, across ragged strips."""
    form = draw(st.sampled_from(sorted(OPERAND_PROGRAMS)))
    source, name, shapes = OPERAND_PROGRAMS[form]
    n, m = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return Case(
        source, name, [_arrays(draw, shapes(n, m), zeros=draw(st.booleans()))],
        cells=draw(st.sampled_from((1, 3, 8))),
    )


def divide_source(body):
    return (
        "transform Divide\nfrom A[n], D[n]\nto B[n]\n{\n"
        f"  to (B.cell(i) b) from (A.cell(i) a, D.cell(i) d) {{ {body} }}\n}}\n"
    )


#: A non-zero literal divisor lowers to a bare ``np.divide``; every other
#: divisor is checked, and a zero raises the interpreter's exact error.
DIVIDE_PROGRAMS = {
    "literal": "b = a / 0;",
    "folded-literal": "b = a / 4 + a / 0.0;",
    "array": "b = a / d;",
    "scalar": "b = a / (n - n);",
}


def _divide(
    draw,
    form=st.sampled_from(sorted(DIVIDE_PROGRAMS)),
    bad=st.lists(st.booleans(), min_size=1, max_size=5),
    cells=st.sampled_from((None, 3)),
):
    """Divisors with a zero in the ``bad`` lanes (in any strip): those
    lanes raise, and one such lane demotes its whole stacked bucket."""
    form = draw(form)
    n = draw(st.integers(1, 9))
    bad = draw(bad)
    lanes = []
    for zero in bad:
        lane = _arrays(draw, {"A": (n,), "D": (n,)}, 1.0, 2.0)
        if zero:
            lane["D"][draw(st.integers(0, n - 1))] = 0.0
        lanes.append(lane)
    return Case(
        divide_source(DIVIDE_PROGRAMS[form]), "Divide", lanes,
        cells=draw(cells),
        error="None|EvalError: division by zero in rule body",
        info={"fails": tuple(bad) if form == "array" else (True,) * len(bad)},
    )


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

# PB602-blocked: fusing would need S's previous cell
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

# A chain reading the matrix it writes, broadcast (outer product)
# operands, a reversed write and a compound target: stacks at batch > 1
MOMENTUM = """
transform Momentum
from A[n, p], B[p, m]
through S[p + 2, n, m]
to C[n, m]
{
  to (S.cell(0, i, j) s) from () { s = 0.0; }
  to (S.cell(1, i, j) s) from () { s = 0.0; }
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) r1, S.cell(k - 2, i, j) r2,
        A.cell(i, k - 2) a, B.cell(k - 2, j) b)
  {
    s = r1 * 0.625 + r2 * 0.375 + a * b;
  }
  to (C.cell(n - 1 - i, j) c) from (S.cell(p + 1, i, j) s) { c = s; c += c; }
}
"""

#: name -> (source, transform, knobs, input shapes given (n, m, p), info);
#: the 1-D inputs fail the same way under every knob
FIXED = {
    "pipe": (PIPE, "Pipe", FUSE, lambda n, m, p: {"A": (n, m)}, {"fuses": True}),
    "pipe-1d": (PIPE, "Pipe", FUSE, lambda n, m, p: {"A": (n,)}, {"fuses": True}),
    "rolling": (ROLLING, "Rolling", FUSE, lambda n, m, p: {"A": (n * p,)}, {"fuses": False}),
    "matmul-chain": (
        MATMUL_CHAIN, "MatMulChain", TILES,
        lambda n, m, p: {"A": (n + 1, p + 2), "B": (p + 2, m + 1)}, {"tiles": True},
    ),
    "matmul-chain-1d": (
        MATMUL_CHAIN, "MatMulChain", TILES, lambda n, m, p: {"A": (n,), "B": (n, n)}, {},
    ),
    "momentum": (
        MOMENTUM, "Momentum", ({},), lambda n, m, p: {"A": (n, p), "B": (p, m)},
        {"stacks": True},
    ),
}


def _fixed(draw, key=st.sampled_from(sorted(FIXED))):
    key = draw(key)
    source, name, knobs, shapes, info = FIXED[key]
    dims = shapes(draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    lanes = [_arrays(draw, dims, -2.0, 2.0) for _ in range(draw(st.integers(2, 4)))]
    error = f"ExecutionError: {name}: input 'A' is 1-D, declared 2-D"
    return Case(
        source, name, lanes, knobs=knobs,
        cells=draw(st.sampled_from((None, 1, 5, 8))),
        error=error if key.endswith("-1d") else "None", info=info,
    )


KINDS = {
    "stencil": _stencil,
    "chain": _chain,
    "planes": _planes,
    "rollingsum": _rollingsum,
    "window": _window,
    "operands": _operands,
    "divide": _divide,
    "fixed": _fixed,
}


@st.composite
def programs(draw, kind, **pins):
    """A :class:`Case` of ``kind`` (a key of :data:`KINDS`); ``pins``
    replace the strategies of that kind's keyword draws."""
    return KINDS[kind](draw, **pins)


# -- the one check ------------------------------------------------------------

LEAVES = (0, 1, 2)


def config_for(name, leaf, knobs=(), choices=()):
    config = ChoiceConfig()
    for knob, value in {"__leaf_path__": leaf, **dict(knobs)}.items():
        config.set_tunable(f"{name}.{knob}", value)
    for site, option in dict(choices).items():
        config.set_choice(site, Selector.static(option))
    return config


def masked(observation, *fields):
    return dataclasses.replace(observation, **dict.fromkeys(fields))


def assert_witnesses_replay(transform):
    """Every PB602/PB605/PB607 witness the rewrite audit reports
    replays; returns them."""
    witnesses = rewrite_audit(Replay(transform))[1]
    for witness in witnesses:
        assert validate_witness(transform, witness), witness.describe()
    return witnesses


def check_case(case):
    """Run ``case`` under every leaf × knob × lane, twice serially and
    once through the batch engine, and compare what
    :func:`repro.autotuner.consistency.observe` sees against the
    interpreter's run of the same lane; then that every witness of the
    rewrite audit replays, and the kind's own checks."""
    transform = compile_program(case.source).transform(case.name)
    if case.drop_fallbacks:
        drop_fallbacks(transform)
    configs = {
        (leaf, k): config_for(case.name, leaf, knobs, case.choices)
        for k, knobs in enumerate(case.knobs)
        for leaf in LEAVES
    }
    runs = [(*key, lane) for key in configs for lane in range(len(case.lanes))]
    requests = [(case.lanes[lane], configs[leaf, k], case.sizes) for leaf, k, lane in runs]
    serial = {}
    with tiny_strips(case.cells):
        for run, request in zip(runs, requests):
            serial[run] = observe(transform, *request)
            assert observe(transform, *request) == serial[run]  # plan hit ≡ miss
        batched = dict(zip(runs, observe_batch(transform, requests)))

    for (leaf, k, lane), seen in serial.items():
        reference = serial[0, 0, lane]
        assert re.fullmatch(case.error, str(seen.error)), seen.error
        assert seen.error == reference.error
        if seen.error is None:
            assert (seen.outputs, seen.writes) == (reference.outputs, reference.writes)
        if leaf == 1 or case.demotes:
            assert masked(seen, "counters") == masked(serial[0, k, lane], "counters")
        lane_seen = batched[leaf, k, lane]
        assert lane_seen.error == seen.error
        if seen.error is None:
            assert (lane_seen.outputs, lane_seen.writes) == (seen.outputs, seen.writes)

    witnesses = assert_witnesses_replay(transform)
    info = case.info
    stacked = [lane.counters["batch.stacked"] for lane in batched.values()]
    if "fuses" in info:  # PB601 legal exactly when a verified variant exists
        assert (transform.fused_variant() is not None) == info["fuses"]
        if info["fuses"]:
            (candidate,) = fusion_candidates(transform, REWRITE_BUDGET)
            assert candidate.status == "legal"
    if "legal" in info:
        for candidate in schedule_candidates(transform):
            if candidate.rule != "rule1":
                continue
            if info["legal"]:
                assert candidate.status == "legal", candidate.reason
            else:  # blocked on a witness that replays, or ineligible
                assert candidate.status != "legal"
                # the engine's own re-proof refuses to tile the offset rule
                assert not [
                    label for seen in serial.values() for label, *_ in seen.graph or ()
                    if label.startswith("rule1[") and "[vec:tiled]" in label
                ]
    if "blocked" in info:  # PB605 only on a pair the blocked order reorders
        blocked = [w for w in witnesses if w.code == "PB605" and w.writer.rule == "rule1"]
        assert bool(blocked) == info["blocked"], [w.describe() for w in blocked]
    if info.get("tiles"):  # the knobs asked for real tiles: they engaged
        assert sum(s.counters.get("exec.tiled_blocks", 0) for s in serial.values()) > 0
    if info.get("stacks"):
        assert all(stacked)
    if "fails" in info:
        assert tuple(
            serial[0, 0, lane].error is not None for lane in range(len(case.lanes))
        ) == info["fails"]
        assert not (any(info["fails"]) and any(stacked))
