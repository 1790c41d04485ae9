"""Differential property test: fused execution is invisible.

Hypothesis generates random producer→consumer chains through an
intermediate matrix; every chain the dependence analyzer proves
fusion-legal (PB601) runs both as written and through the verified
fused variant (``__fuse__ = 1``), under all three leaf paths, and must
produce

* bit-identical outputs (exact ``tobytes`` equality, no tolerance),
* identical observable write sets (output matrices are sentinel-filled
  at allocation, so "written" is detectable per cell), and
* identical errors — a failing call fails the same way fused.

Blocked chains (PB602) must run as graceful no-ops under ``__fuse__``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.depend import fusion_candidates
from repro.compiler import ChoiceConfig, compile_program
from repro.rewrite import REWRITE_BUDGET
from tests.conftest import SENTINEL, sentinel_alloc

LEAF_PATHS = (0, 1, 2)

_OPS = ("+", "-", "*")
_CALLS = ("min", "max", "abs")


def _observe(transform, inputs, config):
    with sentinel_alloc():
        result = transform.run(
            {k: v.copy() for k, v in inputs.items()}, config
        )
    outputs = {}
    writes = {}
    for name, matrix in result.outputs.items():
        outputs[name] = matrix.data.tobytes()
        writes[name] = (matrix.data != SENTINEL).tobytes()
    return outputs, writes


def _assert_fused_invisible(source, name, inputs):
    """Fused ≡ unfused (outputs + write sets) under every leaf path."""
    transform = compile_program(source).transform(name)
    reference = None
    for leaf in LEAF_PATHS:
        for fuse in (0, 1):
            config = ChoiceConfig()
            config.set_tunable(f"{name}.__leaf_path__", leaf)
            config.set_tunable(f"{name}.__fuse__", fuse)
            observed = _observe(transform, inputs, config)
            if reference is None:
                reference = observed
                continue
            assert observed[0] == reference[0], (
                f"leaf {leaf} fuse={fuse}: outputs differ"
            )
            assert observed[1] == reference[1], (
                f"leaf {leaf} fuse={fuse}: write sets differ"
            )
    return transform


# -- random fusible chains -------------------------------------------------


@st.composite
def fusible_chains(draw):
    """A random 2-D elementwise producer→consumer chain.

    ``A[n+4, m+4] → T[n+2, m+2] → B[n, m]``: the producer reads A at
    offsets 0..2 (in-bounds over T's domain), the consumer reads T at
    offsets 0..2 (in-bounds over B's domain) and may read A directly.
    """
    n_preads = draw(st.integers(1, 3))
    preads = [
        (f"p{idx}", draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for idx in range(n_preads)
    ]
    pfroms = ", ".join(
        f"A.cell(x + {dx}, y + {dy}) {bind}" for bind, dx, dy in preads
    )

    def expr(depth, leaves):
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
            return f"({expr(depth - 1, leaves)} {op} {expr(depth - 1, leaves)})"
        if kind == "neg":
            return f"(-{expr(depth - 1, leaves)})"
        call = draw(st.sampled_from(_CALLS))
        if call == "abs":
            return f"abs({expr(depth - 1, leaves)})"
        return f"{call}({expr(depth - 1, leaves)}, {expr(depth - 1, leaves)})"

    pbody = expr(2, [bind for bind, _, _ in preads])

    n_creads = draw(st.integers(1, 2))
    creads = [
        (f"t{idx}", draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        for idx in range(n_creads)
    ]
    cfrom = [
        f"T.cell(x + {ex}, y + {ey}) {bind}" for bind, ex, ey in creads
    ]
    cleaves = [bind for bind, _, _ in creads]
    if draw(st.booleans()):
        # A direct A read whose bind collides with a producer bind,
        # exercising the fresh-rename path.
        cfrom.append("A.cell(x, y) p0")
        cleaves.append("p0")
    cbody = expr(2, cleaves)

    return (
        "transform Chain\n"
        "from A[n + 4, m + 4]\n"
        "through T[n + 2, m + 2]\n"
        "to B[n, m]\n"
        "{\n"
        f"  to (T.cell(x, y) t) from ({pfroms}) {{ t = {pbody}; }}\n"
        f"  to (B.cell(x, y) b) from ({', '.join(cfrom)})"
        f" {{ b = {cbody}; }}\n"
        "}\n"
    )


@settings(max_examples=25, deadline=None)
@given(
    source=fusible_chains(),
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_random_chains_fuse_invisibly(source, n, m, seed):
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-4.0, 4.0, (n + 4, m + 4))}
    transform = _assert_fused_invisible(source, "Chain", inputs)
    # Every generated chain must actually have exercised the rewrite.
    (cand,) = fusion_candidates(transform, REWRITE_BUDGET)
    assert cand.status == "legal"
    assert transform.fused_variant() is not None


# -- deterministic cases ---------------------------------------------------

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


def test_pipe_fuses_invisibly():
    rng = np.random.default_rng(11)
    inputs = {"A": rng.uniform(-4.0, 4.0, (7, 5))}
    _assert_fused_invisible(PIPE, "Pipe", inputs)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_blocked_chain_is_graceful_noop(n, seed):
    """PB602-blocked transforms run identically with __fuse__ = 1: the
    engine finds no verified variant and falls through."""
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-1.0, 1.0, n)}
    transform = _assert_fused_invisible(ROLLING, "Rolling", inputs)
    assert transform.fused_variant() is None


def test_error_parity():
    """A failing call fails identically fused and unfused."""
    transform = compile_program(PIPE).transform("Pipe")
    bad_inputs = {"A": np.ones((3,))}  # 1-D input for a 2-D matrix
    failures = []
    for fuse in (0, 1):
        config = ChoiceConfig()
        config.set_tunable("Pipe.__fuse__", fuse)
        with pytest.raises(Exception) as excinfo:
            transform.run(
                {k: v.copy() for k, v in bad_inputs.items()}, config
            )
        failures.append((type(excinfo.value), str(excinfo.value)))
    assert failures[0] == failures[1]
