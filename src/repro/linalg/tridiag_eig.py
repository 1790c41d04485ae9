"""Symmetric tridiagonal eigensolvers (paper §4.2's three primitives).

All operate on ``(d, e)``: the diagonal (length n) and sub-diagonal
(length n-1) of a symmetric tridiagonal matrix ``T``, and return
``(lam, Q)`` with eigenvalues ascending and ``T @ Q == Q @ diag(lam)``.

* :func:`eig_qr` — QL/QR iteration with implicit Wilkinson shifts and
  accumulated rotations (LAPACK ``steqr`` stand-in, O(n^3)).
* :func:`eig_bisection` — Sturm-sequence bisection for the eigenvalues
  ("a simple formula to count the number of eigenvalues less than a
  given value") followed by inverse iteration for the eigenvectors;
  embarrassingly parallel across eigenpairs (``stebz``+``stein``).
* :func:`eig_divide_conquer` — Cuppen's divide and conquer with rank-one
  tearing, deflation, vectorized secular-equation bisection, and
  Löwner-formula eigenvector stabilization (``stevd`` stand-in).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

_EPS = np.finfo(float).eps


def _validate(d: np.ndarray, e: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or e.shape[0] != max(0, d.shape[0] - 1):
        raise ValueError(
            f"expected diagonal n and sub-diagonal n-1, got {d.shape}, {e.shape}"
        )
    return d, e


# ---------------------------------------------------------------------------
# QL/QR iteration
# ---------------------------------------------------------------------------


def eig_qr(
    d: np.ndarray, e: np.ndarray, max_sweeps: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Implicit-shift QL iteration with eigenvector accumulation (tql2)."""
    d, e = _validate(d, e)
    n = d.shape[0]
    if n == 0:
        return d.copy(), np.zeros((0, 0))
    diag = d.copy()
    off = np.zeros(n)
    off[: n - 1] = e
    Z = np.eye(n)

    for l in range(n):
        for iteration in range(max_sweeps + 1):
            # Find a small off-diagonal element to split at.
            m = l
            while m < n - 1:
                dd = abs(diag[m]) + abs(diag[m + 1])
                if abs(off[m]) <= _EPS * dd:
                    break
                m += 1
            if m == l:
                break
            if iteration == max_sweeps:
                raise RuntimeError("QL iteration failed to converge")
            # Wilkinson-style shift from the leading 2x2.
            g = (diag[l + 1] - diag[l]) / (2.0 * off[l])
            r = math.hypot(g, 1.0)
            g = diag[m] - diag[l] + off[l] / (g + math.copysign(r, g))
            s, c = 1.0, 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * off[i]
                b = c * off[i]
                r = math.hypot(f, g)
                off[i + 1] = r
                if r == 0.0:
                    diag[i + 1] -= p
                    off[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = diag[i + 1] - p
                r = (diag[i] - g) * s + 2.0 * c * b
                p = s * r
                diag[i + 1] = g + p
                g = c * r - b
                # Accumulate the rotation into the eigenvector matrix.
                col_next = Z[:, i + 1].copy()
                Z[:, i + 1] = s * Z[:, i] + c * col_next
                Z[:, i] = c * Z[:, i] - s * col_next
            else:
                diag[l] -= p
                off[l] = g
                off[m] = 0.0
                continue
            # Inner break (r == 0): retry the sweep.
            continue

    order = np.argsort(diag)
    return diag[order], Z[:, order]


# ---------------------------------------------------------------------------
# bisection + inverse iteration
# ---------------------------------------------------------------------------


def sturm_count(d: np.ndarray, e: np.ndarray, x) -> np.ndarray:
    """Number of eigenvalues of T strictly less than ``x``.

    ``x`` may be a scalar or an array of shifts; the count is computed for
    every shift simultaneously (one pass over the matrix, vectorized
    across shifts).
    """
    d, e = _validate(d, e)
    shifts = np.atleast_1d(np.asarray(x, dtype=float))
    n = d.shape[0]
    counts = np.zeros(shifts.shape, dtype=int)
    q = np.full(shifts.shape, 1.0)
    tiny = np.finfo(float).tiny
    prev = np.ones_like(shifts)
    for i in range(n):
        e2 = e[i - 1] ** 2 if i > 0 else 0.0
        q = d[i] - shifts - e2 / prev
        q = np.where(np.abs(q) < tiny, -tiny, q)
        counts += (q < 0).astype(int)
        prev = q
    return counts if np.ndim(x) else int(counts[0])


def eig_bisection(
    d: np.ndarray,
    e: np.ndarray,
    tol: float = 0.0,
    invit_steps: int = 3,
) -> Tuple[np.ndarray, np.ndarray]:
    """All eigenpairs by bisection (values) + inverse iteration (vectors).

    Every eigenvalue is refined independently (vectorized across the
    spectrum), which is what makes this algorithm "embarrassingly
    parallel" in the paper.  Eigenvectors come from inverse iteration on
    the shifted matrix, vectorized across eigenpairs, with Gram-Schmidt
    re-orthogonalization inside clusters of close eigenvalues.
    """
    d, e = _validate(d, e)
    n = d.shape[0]
    if n == 0:
        return d.copy(), np.zeros((0, 0))
    radius = np.zeros(n)
    radius[: n - 1] += np.abs(e)
    radius[1:] += np.abs(e)
    lo = np.full(n, float(np.min(d - radius)))
    hi = np.full(n, float(np.max(d + radius)))
    span = float(np.max(hi - lo)) or 1.0
    if tol <= 0.0:
        tol = _EPS * span * 4

    k = np.arange(n)
    while float(np.max(hi - lo)) > tol:
        mid = 0.5 * (lo + hi)
        counts = sturm_count(d, e, mid)
        go_right = counts <= k
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    lam = 0.5 * (lo + hi)

    Q = _inverse_iteration(d, e, lam, invit_steps)
    return lam, Q


def _inverse_iteration(
    d: np.ndarray, e: np.ndarray, lam: np.ndarray, steps: int
) -> np.ndarray:
    """Eigenvectors via inverse iteration, vectorized across eigenpairs.

    Solves ``(T - lam_k I) v = w`` with a guarded non-pivoting
    tridiagonal elimination (adequate for the well-separated spectra of
    the benchmark; clusters are re-orthogonalized afterwards)."""
    n = d.shape[0]
    m = lam.shape[0]
    rng = np.random.default_rng(1234)
    V = rng.standard_normal((n, m))
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    guard = _EPS * max(1.0, float(np.max(np.abs(d)) if n else 1.0))

    # Precompute the elimination (Thomas) coefficients per shift.
    for _ in range(steps):
        V = _solve_shifted(d, e, lam, V, guard)
        V /= np.linalg.norm(V, axis=0, keepdims=True)

    # Re-orthogonalize clusters of nearly equal eigenvalues.
    spread = max(float(lam[-1] - lam[0]), 1.0) if m else 1.0
    cluster_tol = 1e-8 * spread
    start = 0
    for idx in range(1, m + 1):
        if idx == m or lam[idx] - lam[idx - 1] > cluster_tol:
            if idx - start > 1:
                block, _ = np.linalg.qr(V[:, start:idx])
                V[:, start:idx] = block
            start = idx
    return V


def _solve_shifted(
    d: np.ndarray,
    e: np.ndarray,
    lam: np.ndarray,
    B: np.ndarray,
    guard: float,
) -> np.ndarray:
    """Solve (T - lam_k) x_k = b_k for every column k simultaneously."""
    n = d.shape[0]
    m = lam.shape[0]
    # Forward elimination.
    main = np.empty((n, m))
    rhs = np.array(B, copy=True)
    main[0] = d[0] - lam
    main[0] = np.where(np.abs(main[0]) < guard, guard, main[0])
    for i in range(1, n):
        factor = e[i - 1] / main[i - 1]
        main[i] = (d[i] - lam) - factor * e[i - 1]
        main[i] = np.where(np.abs(main[i]) < guard, guard, main[i])
        rhs[i] -= factor * rhs[i - 1]
    # Back substitution.
    X = np.empty_like(rhs)
    X[n - 1] = rhs[n - 1] / main[n - 1]
    for i in range(n - 2, -1, -1):
        X[i] = (rhs[i] - e[i] * X[i + 1]) / main[i]
    return X


# ---------------------------------------------------------------------------
# divide and conquer (Cuppen)
# ---------------------------------------------------------------------------


def eig_divide_conquer(
    d: np.ndarray,
    e: np.ndarray,
    base_size: int = 4,
    recurse: Optional[callable] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cuppen's divide-and-conquer.

    ``recurse`` overrides the recursive solver for the two halves —
    the PetaBricks eigenproblem benchmark routes it back through the
    transform so the autotuner can switch algorithms at every level.
    Defaults to self-recursion with :func:`eig_qr` below ``base_size``.
    """
    d, e = _validate(d, e)
    n = d.shape[0]
    if n <= max(1, base_size):
        return eig_qr(d, e)
    sub = recurse or (
        lambda dd, ee: eig_divide_conquer(dd, ee, base_size, recurse)
    )

    m = n // 2
    rho = e[m - 1]
    if rho == 0.0:  # already block diagonal: solve halves independently
        lam1, Q1 = sub(d[:m], e[: m - 1])
        lam2, Q2 = sub(d[m:], e[m:])
        lam = np.concatenate([lam1, lam2])
        Q = np.zeros((n, n))
        Q[:m, :m] = Q1
        Q[m:, m:] = Q2
        order = np.argsort(lam)
        return lam[order], Q[:, order]

    d1 = d[:m].copy()
    d1[m - 1] -= rho
    d2 = d[m:].copy()
    d2[0] -= rho
    lam1, Q1 = sub(d1, e[: m - 1])
    lam2, Q2 = sub(d2, e[m:])

    D = np.concatenate([lam1, lam2])
    z = np.concatenate([Q1[m - 1, :], Q2[0, :]])

    lam, U = rank_one_update(D, z, rho)
    Q = np.zeros((n, n))
    Q[:m, :] = Q1 @ U[:m, :]
    Q[m:, :] = Q2 @ U[m:, :]
    return lam, Q


def rank_one_update(
    D: np.ndarray, z: np.ndarray, rho: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of ``diag(D) + rho * z z^T``.

    Handles deflation (tiny ``z`` components and coincident ``D``
    entries via Givens rotations), solves the secular equation by
    vectorized bisection, and rebuilds ``z`` with the Löwner formula for
    numerically orthogonal eigenvectors.
    """
    n = D.shape[0]
    if rho < 0:  # normalize to rho > 0 by negation: eig(-A) = -eig(A)
        lam, U = rank_one_update(-D[::-1], z[::-1], -rho)
        return -lam[::-1], U[::-1, ::-1]

    order = np.argsort(D)
    D = D[order]
    z = z[order].copy()
    norm_scale = max(float(np.max(np.abs(D)) if n else 0.0), abs(rho) * float(z @ z), 1e-30)
    deflate_tol = 8 * _EPS * norm_scale

    # Givens rotations to merge (nearly) coincident diagonal entries.
    rotations = []  # (i, j, c, s) applied to pairs with D_i ~= D_j
    for i in range(n - 1):
        j = i + 1
        if abs(D[j] - D[i]) <= deflate_tol and z[i] != 0.0 and z[j] != 0.0:
            r = math.hypot(z[i], z[j])
            c, s = z[j] / r, z[i] / r
            z[j] = r
            z[i] = 0.0
            rotations.append((i, j, c, s))

    active = np.abs(z) > deflate_tol
    idx_active = np.nonzero(active)[0]
    idx_deflated = np.nonzero(~active)[0]

    lam = np.empty(n)
    U = np.zeros((n, n))
    # Deflated eigenpairs pass through unchanged.
    for i in idx_deflated:
        U[i, i] = 1.0
        lam[i] = D[i]

    if idx_active.size:
        Da = D[idx_active]
        za = z[idx_active]
        lam_active = _secular_roots(Da, za, rho)
        # Loewner formula: recompute z so that the computed lam are the
        # exact eigenvalues of a nearby problem (Gu-Eisenstat).
        za_hat = _loewner_z(Da, lam_active, rho)
        za_hat = np.copysign(za_hat, za)
        diffs = Da[:, None] - lam_active[None, :]
        # Guard exact zeros (can only occur after deflation slop).
        tiny = np.finfo(float).tiny
        diffs = np.where(np.abs(diffs) < tiny, tiny, diffs)
        vecs = za_hat[:, None] / diffs
        vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
        for col_pos, col in enumerate(idx_active):
            U[idx_active, col] = vecs[:, col_pos]
            lam[col] = lam_active[col_pos]

    # Undo the deflation rotations on the eigenvector rows.
    for i, j, c, s in reversed(rotations):
        row_i = U[i, :].copy()
        row_j = U[j, :].copy()
        U[i, :] = c * row_i + s * row_j
        U[j, :] = -s * row_i + c * row_j

    # Undo the initial sort.
    U_full = np.zeros_like(U)
    U_full[order, :] = U
    final = np.argsort(lam)
    return lam[final], U_full[:, final]


def _secular_roots(D: np.ndarray, z: np.ndarray, rho: float) -> np.ndarray:
    """Roots of 1 + rho * sum(z_i^2 / (D_i - x)) = 0, one per interval
    (D_k, D_{k+1}) plus one beyond D_max; vectorized bisection."""
    k = D.shape[0]
    z2 = z * z
    upper_bound = D[-1] + rho * float(z2.sum()) + 1e-30
    lo = D.copy()
    hi = np.empty(k)
    hi[:-1] = D[1:]
    hi[-1] = upper_bound
    # Open the brackets minimally inside the poles (one ulp), so roots
    # glued to a pole are still representable inside the bracket.
    lo = np.nextafter(lo, np.inf)
    hi = np.nextafter(hi, -np.inf)

    def secular(x: np.ndarray) -> np.ndarray:
        # x: (k,) evaluation points -> f(x) vectorized: (k,)
        diffs = D[:, None] - x[None, :]
        tiny = np.finfo(float).tiny
        diffs = np.where(diffs == 0.0, tiny, diffs)
        return 1.0 + rho * np.sum(z2[:, None] / diffs, axis=0)

    # f is increasing on each interval from -inf (right of pole D_k) to
    # +inf (left of pole D_{k+1}); 128 bisection steps reach ~1 ulp of
    # the bracket width.
    for _ in range(128):
        mid = 0.5 * (lo + hi)
        positive = secular(mid) > 0.0
        hi = np.where(positive, mid, hi)
        lo = np.where(positive, lo, mid)
    return 0.5 * (lo + hi)


def _loewner_z(D: np.ndarray, lam: np.ndarray, rho: float) -> np.ndarray:
    """|z_i| from the Loewner formula:
    z_i^2 = (prod_k (lam_k - D_i)) / (rho * prod_{k != i} (D_k - D_i)),
    computed in log space for stability."""
    k = D.shape[0]
    num = lam[None, :] - D[:, None]  # (i, k)
    den = D[None, :] - D[:, None]  # (i, k), zero on the diagonal
    tiny = np.finfo(float).tiny
    log_num = np.log(np.maximum(np.abs(num), tiny)).sum(axis=1)
    den_off = np.where(np.eye(k, dtype=bool), 1.0, den)
    log_den = np.log(np.maximum(np.abs(den_off), tiny)).sum(axis=1)
    log_z2 = log_num - log_den - math.log(abs(rho) if rho else 1.0)
    z2 = np.exp(np.clip(log_z2, -700, 700))
    return np.sqrt(z2)
