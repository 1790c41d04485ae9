"""Shared test helpers (imported as ``tests.conftest``; no fixtures)."""

from contextlib import contextmanager

import numpy as np

from repro.runtime.matrix import Matrix

#: A value no generated program can produce from the bounded inputs.
SENTINEL = -987654321.25


@contextmanager
def sentinel_alloc():
    """Allocate output/through matrices filled with SENTINEL instead of
    zeros, making the write set (and any premature read) observable —
    on the batched allocation path too, which also goes through
    ``Matrix.zeros``.  A context manager rather than a pytest fixture:
    hypothesis re-runs the test body, not function-scoped fixtures.
    Yields the matrices allocated so far, so a run that raises can still
    be inspected at its abort point."""
    allocated = []

    def filled(shape, name="", dtype=np.float64):
        matrix = Matrix(np.full(tuple(shape), SENTINEL, dtype=dtype), name)
        allocated.append(matrix)
        return matrix

    original = Matrix.zeros
    Matrix.zeros = staticmethod(filled)
    try:
        yield allocated
    finally:
        Matrix.zeros = original
