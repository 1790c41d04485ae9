#!/usr/bin/env python
"""Cache-blocked schedule search: tiling and interchange on a matmul chain.

Matrix multiply written as a rolling reduction: ``S[k]`` accumulates the
first ``k`` outer products, so the ``k`` dimension is a sequential chain
and ``(i, j)`` stay data parallel.  The dependence analyzer proves the
schedule tilable (PB604: the only cross-instance dependence is carried
by ``k`` with zero free-variable offsets — nothing ever crosses between
``(i, j)`` tiles), which unlocks three reserved tunables the genetic
tuner searches alongside the leaf path:

* ``__tile_i__`` / ``__tile_j__`` — block the data-parallel space;
* ``__interchange__`` — run the whole ``k`` chain per tile while the
  tile is cache-hot, instead of streaming every tile per ``k`` step.

Writing the reduction with ``p + 1`` planes is how the program *names*
its steps, not a request to keep them.  The same analyzer proves the
storage foldable (PB606): each cell of ``S[k]`` reads only its own cell
of ``S[k - 1]``, planes are produced in ascending order, and the one
outside reader wants the last plane — so the engine allocates ``S`` as
two planes whatever ``p`` is, plane ``k`` living in slot ``k % 2``.  The
rolling reduction then costs what a hand-written ``acc += outer(a, b)``
with one spare buffer costs: no fresh plane is first-touched per step,
and a tile's whole chain works on two tile-sized pieces of memory.
There is nothing to switch on; a ``through`` matrix that may fold does.

Run:  python examples/matmul_chain.py
"""

import numpy as np

from repro import ChoiceConfig, TraceSink, compile_program
from repro.compiler.config import TILE_I

MATMUL_CHAIN = """
transform MatMulChain
from A[n, p], B[p, m]
through S[p + 1, n, m]
to C[n, m]
{
  // S[0] is the zero accumulator
  to (S.cell(0, i, j) s) from () { s = 0.0; }

  // S[k] adds the k-th outer product; k is a sequential chain,
  // (i, j) are data parallel within a step
  to (S.cell(k, i, j) s)
  from (S.cell(k - 1, i, j) prev, A.cell(i, k - 1) a, B.cell(k - 1, j) b)
  {
    s = prev + a * b;
  }

  // the answer is the last accumulator plane
  to (C.cell(i, j) c) from (S.cell(p, i, j) s) { c = s; }
}
"""


def main() -> None:
    program = compile_program(MATMUL_CHAIN)
    mm = program.transform("MatMulChain")

    from repro.analysis.depend import schedule_candidates, storage_verdict

    print("schedule candidates (PB604/PB605 verdicts):")
    for cand in schedule_candidates(mm):
        print(
            f"  {cand.segment}/{cand.rule}: {cand.status}  "
            f"chain ({', '.join(cand.chain_vars)})  "
            f"free ({', '.join(cand.free_vars)})"
        )
    print(f"  tile knobs live -> {TILE_I.live(mm)}")

    rng = np.random.default_rng(7)
    n, p, m = 48, 6, 40
    A = rng.uniform(-1.0, 1.0, (n, p))
    B = rng.uniform(-1.0, 1.0, (p, m))

    storage = storage_verdict(mm, "S")
    print("storage verdict (PB606/PB607):")
    print(
        f"  S: folds to {storage.window} planes along axis {storage.axis}"
        if storage.folds
        else f"  S: not folded ({storage.reason})"
    )
    for depth in (p, 100):
        shapes = [(n, depth), (depth, m)]
        allocated = dict(
            (name, shape)
            for name, shape, *_ in mm.plan(None, shapes).allocations
        )
        print(
            f"  p = {depth}: S declared {(depth + 1, n, m)}, "
            f"allocated {allocated['S']}"
        )

    def run(**tunables):
        config = ChoiceConfig()
        config.set_tunable("MatMulChain.__leaf_path__", 2)
        for name, value in tunables.items():
            config.set_tunable(f"MatMulChain.{name}", value)
        sink = TraceSink()
        result = mm.run([A.copy(), B.copy()], config, sink=sink)
        return result.output("C"), sink

    untiled, sink0 = run()
    tiled, sink1 = run(__tile_i__=16, __tile_j__=16, __interchange__=1)
    print("\nuntiled vs tiled+interchange:")
    print(f"  bit-identical: {untiled.tobytes() == tiled.tobytes()}")
    print(f"  matches A @ B: {np.allclose(untiled, A @ B)}")
    print(
        f"  vector blocks: {sink0.counter('exec.vectorized_blocks')} untiled, "
        f"{sink1.counter('exec.vectorized_blocks')} tiled "
        f"({sink1.counter('exec.tiled_blocks')} tile invocations)"
    )


if __name__ == "__main__":
    main()
