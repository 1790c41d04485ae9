"""Differential property test: cache-blocked schedules are invisible.

Hypothesis generates random chain-over-tiles programs — a versioned
plane ``S[t, x, y]`` where step ``t`` reads step ``t - 1`` at a random
``(dx, dy)`` offset.  The offset sign decides legality end to end:

* ``dx <= 0 and dy <= 0`` — every tile-crossing dependence points along
  the blocked order, the analyzer proves the site PB604-legal, and the
  engine really tiles (``exec.tiled_blocks > 0``).  Tiled, interchanged,
  and untiled runs must produce bit-identical outputs and write sets
  under all three leaf paths.
* ``dx > 0 or dy > 0`` — a dependence crosses tiles against the blocked
  order.  The site must never be reported legal, and the tile/
  interchange tunables must be graceful no-ops (the engine re-proves
  legality itself; ``exec.tiled_blocks == 0``).

Write sets are observable because output/through matrices are sentinel
-filled at allocation: an interchanged run that read a not-yet-written
neighbor tile would consume the sentinel and corrupt the output.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.depend import (
    schedule_candidates,
    validate_schedule_witness,
)
from repro.compiler import ChoiceConfig, compile_program
from repro.observe import TraceSink
from tests.conftest import SENTINEL, sentinel_alloc

LEAF_PATHS = (0, 1, 2)

#: knob sets every program is run under (beyond the bare reference)
KNOB_SETS = (
    {},
    {"__tile_i__": 1},
    {"__tile_i__": 2, "__tile_j__": 2},
    {"__tile_i__": 2, "__tile_j__": 1, "__interchange__": 1},
)


def _observe(transform, inputs, sizes, config, sink=None):
    with sentinel_alloc():
        result = transform.run(
            {k: v.copy() for k, v in inputs.items()},
            config,
            sizes=sizes,
            sink=sink,
        )
    outputs = {}
    writes = {}
    for name, matrix in result.outputs.items():
        outputs[name] = matrix.data.tobytes()
        writes[name] = (matrix.data != SENTINEL).tobytes()
    return outputs, writes


def _assert_schedule_invisible(transform, name, inputs, sizes):
    """Tiled/interchanged ≡ untiled under every leaf path; returns the
    total tiled-block count across all runs."""
    reference = None
    tiled_blocks = 0
    for leaf in LEAF_PATHS:
        for knobs in KNOB_SETS:
            config = ChoiceConfig()
            config.set_tunable(f"{name}.__leaf_path__", leaf)
            for knob, value in knobs.items():
                config.set_tunable(f"{name}.{knob}", value)
            sink = TraceSink()
            observed = _observe(transform, inputs, sizes, config, sink)
            tiled_blocks += sink.counter("exec.tiled_blocks")
            if reference is None:
                reference = observed
                continue
            assert observed[0] == reference[0], (
                f"leaf {leaf} knobs={knobs}: outputs differ"
            )
            assert observed[1] == reference[1], (
                f"leaf {leaf} knobs={knobs}: write sets differ"
            )
    return tiled_blocks


# -- random chain-over-tiles programs --------------------------------------


def chain_source(dx: int, dy: int, scale: float, through=False) -> str:
    """A versioned-plane program whose step rule reads the previous
    plane at offset ``(dx, dy)``; a secondary copy rule carries the
    cells the shifted read cannot reach.  ``S`` is an output, returned
    whole, so the blocked order runs on every plane; a ``through`` S
    folds instead, its band-sharing segments in an untiled lockstep
    group when the offset is not ``(0, 0)`` (``test_storage_fold``)."""
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


def tiled_rule_labels(transform, name, inputs, sizes):
    """Labels of the rules that actually ran tiled under aggressive
    tile knobs on the vector path."""
    config = ChoiceConfig()
    config.set_tunable(f"{name}.__leaf_path__", 2)
    config.set_tunable(f"{name}.__tile_i__", 2)
    config.set_tunable(f"{name}.__tile_j__", 2)
    config.set_tunable(f"{name}.__interchange__", 1)
    result = transform.run(
        {k: v.copy() for k, v in inputs.items()}, config, sizes=sizes
    )
    return {
        task.label.split("[")[0]
        for task in result.graph.tasks
        if "[vec:tiled]" in task.label
    }


def interior_candidates(transform):
    """Candidates whose rule carries the shifted previous-plane read
    (the generated step rule is the only one reading at an offset)."""
    return [
        cand
        for cand in schedule_candidates(transform)
        if cand.rule == "rule1"
    ]


@settings(max_examples=20, deadline=None)
@given(
    dx=st.integers(-1, 0),
    dy=st.integers(-1, 0),
    scale=st.floats(0.25, 1.75, allow_nan=False).map(
        lambda f: round(f, 3)
    ),
    n=st.integers(2, 5),
    m=st.integers(2, 5),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_legal_offsets_tile_invisibly(dx, dy, scale, n, m, steps, seed):
    source = chain_source(dx, dy, scale)
    transform = compile_program(source).transform("RChain")
    for cand in interior_candidates(transform):
        assert cand.status == "legal", cand.reason
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-2.0, 2.0, (n + 2, m + 2))}
    tiled_blocks = _assert_schedule_invisible(
        transform, "RChain", inputs, {"t_end": steps}
    )
    # The knob sets include real sub-extent tile sizes: tiling must
    # actually have engaged, or the property proved nothing.
    assert tiled_blocks > 0


@settings(max_examples=20, deadline=None)
@given(
    dx=st.integers(-1, 1),
    dy=st.integers(-1, 1),
    scale=st.floats(0.25, 1.75, allow_nan=False).map(
        lambda f: round(f, 3)
    ),
    n=st.integers(2, 5),
    m=st.integers(2, 5),
    steps=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_forward_offsets_never_tile(dx, dy, scale, n, m, steps, seed):
    if dx <= 0 and dy <= 0:
        dx = 1  # force at least one against-the-order component
    source = chain_source(dx, dy, scale)
    transform = compile_program(source).transform("RChain")
    for cand in interior_candidates(transform):
        # Blocked when the witness hunt lands a concrete pair within
        # budget, ineligible otherwise — but never proven legal.
        assert cand.status != "legal"
        if cand.status == "blocked":
            assert validate_schedule_witness(transform, cand.witness)
    rng = np.random.default_rng(seed)
    inputs = {"A": rng.uniform(-2.0, 2.0, (n + 2, m + 2))}
    _assert_schedule_invisible(transform, "RChain", inputs, {"t_end": steps})
    # The engine's own re-proof must refuse to tile the offset rule
    # (the legal carry-forward rule may still tile its own segments).
    assert "rule1" not in tiled_rule_labels(
        transform, "RChain", inputs, {"t_end": steps}
    )


# -- deterministic cases ---------------------------------------------------

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


def test_matmul_chain_tiles_invisibly():
    transform = compile_program(MATMUL_CHAIN).transform("MatMulChain")
    rng = np.random.default_rng(13)
    inputs = {
        "A": rng.uniform(-2.0, 2.0, (5, 6)),
        "B": rng.uniform(-2.0, 2.0, (6, 4)),
    }
    tiled_blocks = _assert_schedule_invisible(
        transform, "MatMulChain", inputs, None
    )
    assert tiled_blocks > 0


def test_error_parity():
    """A failing run fails identically tiled and untiled."""
    transform = compile_program(MATMUL_CHAIN).transform("MatMulChain")
    bad_inputs = {"A": np.ones((3,)), "B": np.ones((3, 3))}  # 1-D A
    failures = []
    for knobs in ({}, {"__tile_i__": 2, "__interchange__": 1}):
        config = ChoiceConfig()
        config.set_tunable("MatMulChain.__leaf_path__", 2)
        for knob, value in knobs.items():
            config.set_tunable(f"MatMulChain.{knob}", value)
        with pytest.raises(Exception) as excinfo:
            transform.run(
                {k: v.copy() for k, v in bad_inputs.items()}, config
            )
        failures.append((type(excinfo.value), str(excinfo.value)))
    assert failures[0] == failures[1]
