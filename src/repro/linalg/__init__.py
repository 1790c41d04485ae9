"""Dense/banded linear algebra substrate — the LAPACK stand-in.

The paper's benchmarks call LAPACK for the pieces that are not the point
of the algorithmic-choice story: band Cholesky (DPBSV) for the Poisson
direct solver, and the tridiagonal eigensolvers underlying the
eigenproblem benchmark (steqr/stebz+stein/stevd).  This package
implements those algorithms here, on top of numpy array primitives:

* :mod:`repro.linalg.banded` — symmetric positive-definite banded
  Cholesky factorization and solve (unblocked reference + blocked fast
  path).
* :mod:`repro.linalg.householder` — Householder reduction of a dense
  symmetric matrix to tridiagonal form.
* :mod:`repro.linalg.tridiag_eig` — the three primitive algorithms of
  paper §4.2: QR/QL iteration, bisection + inverse iteration, and
  Cuppen's divide-and-conquer.
"""

from repro.linalg.banded import (
    BandedCholesky,
    band_from_dense,
    dense_from_band,
    random_spd_band,
)
from repro.linalg.householder import tridiagonalize
from repro.linalg.tridiag_eig import (
    eig_bisection,
    eig_divide_conquer,
    eig_qr,
    sturm_count,
)

__all__ = [
    "BandedCholesky",
    "band_from_dense",
    "dense_from_band",
    "eig_bisection",
    "eig_divide_conquer",
    "eig_qr",
    "random_spd_band",
    "sturm_count",
    "tridiagonalize",
]
