"""The benchmark's programs and their hand-written NumPy references.

Every DSL program the workloads run is defined here next to a reference
written directly in NumPy.  The references are the correctness oracle
(they share no code with the compiler under test) and, on
``kernel_large``, the absolute yardstick the vector kernels are
reported against (``engine_fast.numpy_ratio.*``).

Each reference replays the DSL body's IEEE operation order, so the
check is ``np.array_equal``; the reductions whose summation order the
engine is free to choose (the momentum chain, RollingSum's
``sum(region)`` rule, the paper apps) use ``allclose(rtol=1e-12,
atol=1e-12)`` or a residual bound instead.

``REFERENCES[name](*inputs)`` gives the expected value (computed once,
at set-up) and ``MATCHES[name](output, expected)`` compares; workloads
copy ``REFERENCES`` per instance so a test can corrupt one entry and
see ``failed_share`` rise.
"""

import numpy as np

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

MATMUL_MOMENTUM = """
transform MatMulMomentum
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
  to (C.cell(i, j) c) from (S.cell(p + 1, i, j) s) { c = s; }
}
"""

PIPELINE = """
transform Pipeline
from A[n, m]
through T[n, m]
to B[n, m]
{
  to (T.cell(x, y) t) from (A.cell(x, y) a) { t = a * 2.0 + 1.0; }
  to (B.cell(x, y) b) from (T.cell(x, y) t) { b = t * 1.5 - 0.5; }
}
"""

ROLLINGSUM = """
transform RollingSum
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.region(0, i+1) in) {
    b = sum(in);
  }
  to (B.cell(i) b) from (A.cell(i) a, B.cell(i-1) leftSum) {
    b = a + leftSum;
  }
}
"""

#: The served program: a stackable stencil and a chain that cannot
#: stack, in one source so one program hash serves both ``/batch``
#: line kinds.
SERVED = BLUR + ROLLINGSUM

#: name -> (source, transform) of the DSL programs.
DSL = {
    "blur": (BLUR, "Blur"),
    "heat": (HEAT, "Heat"),
    "matmul_momentum": (MATMUL_MOMENTUM, "MatMulMomentum"),
    "pipeline": (PIPELINE, "Pipeline"),
    "rollingsum": (ROLLINGSUM, "RollingSum"),
}


# -- hand-written references --------------------------------------------------


def blur_ref(a):
    return a[1:-1, 1:-1] * 0.5 + a[:-2, :-2] * 0.25 + a[2:, 2:] * 0.25


def heat_ref(a, k):
    u = a.copy()
    for _ in range(k):
        v = u.copy()
        v[1:-1] = (u[:-2] + 2 * u[1:-1] + u[2:]) / 4
        u = v
    return u


def matmul_momentum_ref(a, b):
    prev = np.zeros((a.shape[0], b.shape[1]))
    prev2 = np.zeros_like(prev)
    for k in range(a.shape[1]):
        cur = prev * 0.625 + prev2 * 0.375 + np.multiply.outer(a[:, k], b[k, :])
        prev2, prev = prev, cur
    return prev


def pipeline_ref(a):
    return (a * 2.0 + 1.0) * 1.5 - 0.5


def rollingsum_ref(a):
    return np.cumsum(a)


def tridiagonal(packed):
    """The dense symmetric matrix of an ``Eig`` input ``T[2, n]``."""
    d, e = packed[0], packed[1, :-1]
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def poisson_residual(y, b):
    """max |L(y) - b| over interior points for the h^2-scaled
    five-point operator the Poisson app solves."""
    applied = (
        4.0 * y[1:-1, 1:-1]
        - y[:-2, 1:-1]
        - y[2:, 1:-1]
        - y[1:-1, :-2]
        - y[1:-1, 2:]
    )
    return float(np.max(np.abs(applied - b[1:-1, 1:-1])))


REFERENCES = {
    "blur": blur_ref,
    "heat": heat_ref,
    "matmul_momentum": matmul_momentum_ref,
    "pipeline": pipeline_ref,
    "rollingsum": rollingsum_ref,
    "sort": np.sort,
    # the paper app stores A[c, h] and B[w, c] column-first: AB = B @ A
    "matmul": lambda a, b: b @ a,
    # ascending eigenvalues, which Eig writes to row 0 of its output
    "eigen": lambda packed: np.linalg.eigvalsh(tridiagonal(packed)),
    # Poisson(x0, b) is checked by residual: the expectation is b
    "poisson": lambda x0, b: b,
}


def _close(output, expected):
    # atol: a partial sum of uniform(-1, 1) terms can land within 1e-3
    # of zero, where a 2e-15 reordering difference is 1e-12 relative
    return np.allclose(output, expected, rtol=1e-12, atol=1e-12)


MATCHES = {
    "blur": np.array_equal,
    "heat": np.array_equal,
    "matmul_momentum": _close,
    "pipeline": np.array_equal,
    "rollingsum": _close,
    "sort": np.array_equal,
    "matmul": lambda out, exp: np.allclose(out, exp, rtol=1e-10, atol=1e-12),
    "eigen": lambda out, exp: np.allclose(
        out[0, :], exp, rtol=1e-8, atol=1e-10),
    "poisson": lambda out, b: poisson_residual(out, b) < 1e-8,
}
