"""Dense complex linear algebra kernel.

Conventions fixed once for the whole package:

* vectorization is column-stacking, so ``vec(A @ x @ B) = kron(B.T, A) @ vec(x)``;
* matrix functions of Hermitian positive matrices go through the
  eigendecomposition (principal branch of powers on the positive reals);
* tolerances are relative to the largest magnitude of the input.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
    NotPositiveDefinite,
)

__all__ = [
    "HermEig",
    "Superoperator",
    "QuotientMap",
    "herm_eig",
    "mat_power",
    "vec",
    "choi",
    "cluster",
    "quotient",
    "null_quotient",
    "matrix_units",
    "frob",
    "spectral_norm",
    "expm",
    "as_cmatrix",
    "as_cstack",
]


def as_cmatrix(x):
    """Coerce to a finite complex128 2-D array."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


def as_cstack(x):
    """Coerce to a finite complex128 matrix or stack of matrices (..., r, c)."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


def frob(x):
    return float(np.linalg.norm(x))


def spectral_norm(x):
    """Largest singular value of each matrix of a stack (..., r, c): the root
    of the largest eigenvalue of the c x c Gram x* x = a^T a + b^T b +
    i (a^T b - b^T a), x = a + ib, read off the real Gram of the float view of
    x, which copies x only if its last axis is strided (pass tall matrices)."""
    x = np.asarray(x, dtype=np.complex128)
    z = (x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)).view(np.float64)
    g = np.swapaxes(z, -1, -2) @ z
    gram = np.empty(g.shape[:-2] + (x.shape[-1],) * 2, dtype=np.complex128)
    gram.real = g[..., ::2, ::2] + g[..., 1::2, 1::2]
    gram.imag = g[..., ::2, 1::2] - g[..., 1::2, ::2]
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


# Pade-13 coefficients b_0..b_13 and the 1-norm up to which r_13 meets e^a to
# double precision: Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 26 (2005)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(a):
    """e^a of a square matrix by scaling and squaring: r_13(a / 2^s)^(2^s),
    with r_13 = (V - U)^{-1} (V + U) the [13/13] Pade approximant and s the
    least s >= 0 with ||a||_1 / 2^s <= theta_13."""
    a = as_cmatrix(a)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    a = a / 2.0 ** s
    b, eye = _PADE13, np.eye(len(a), dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def matrix_units(n):
    """The n^2 matrix units of M_n stacked row-major: E_ij at index i * n + j."""
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix or stack (eigenvalues ascending)."""

    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns


def herm_eig(h, tol=DEFAULT_TOL):
    """Hermitian eigendecomposition of a matrix or stack, with a relative
    Hermiticity gate on each matrix."""
    h = as_cstack(h)
    if h.shape[-1] != h.shape[-2]:
        raise DimensionMismatch(f"matrix is not square: {h.shape}")
    h_adj = np.swapaxes(h, -1, -2).conj()
    scale, resid = (np.linalg.norm(x, axis=(-2, -1)) for x in (h, h - h_adj))
    bad = resid > tol.hermitian * scale
    if bad.any():
        k = np.argmax(bad)
        raise NotHermitian(float(resid.flat[k] / scale.flat[k]), tol.hermitian)
    hs = 0.5 * (h + h_adj)
    try:
        w, u = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NoConvergence(str(exc)) from exc
    return HermEig(eigenvalues=w, eigenvectors=u)


def mat_power(h, z, tol=DEFAULT_TOL, _eig=None):
    """h**z for positive definite Hermitian h, principal branch.

    ``z`` may be complex; in particular ``mat_power(h, 1j*t)`` is the unitary
    h^{it}.  An array of exponents gives the stack of powers, shape
    z.shape + h.shape.  Accuracy degrades like exp(|Im z| * spread(log eig))
    for large imaginary parts; the supported range is |Im z| <= 4.
    """
    eig = _eig if _eig is not None else herm_eig(h, tol)
    w, u = eig.eigenvalues, eig.eigenvectors
    if w[-1] <= 0 or w[0] <= tol.decomp * w[-1]:
        raise NotPositiveDefinite(
            f"min eigenvalue {w[0]:.3e} vs max {w[-1]:.3e}"
        )
    powered = np.exp(np.multiply.outer(z, np.log(w.astype(np.float64))))
    return (u * powered[..., None, :]) @ u.conj().T


def vec(x):
    """Column-stacking vectorization, of each matrix of a stack (..., r, c)."""
    x = as_cstack(x)
    return np.swapaxes(x, -1, -2).reshape(x.shape[:-2] + (-1,))


@dataclass(frozen=True)
class Superoperator:
    """Linear map on M_n stored as an n^2 x n^2 matrix in vec coordinates."""

    n: int
    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, m):
        m = as_cmatrix(m)
        n = int(round(np.sqrt(m.shape[0])))
        if m.shape[0] != m.shape[1] or n * n != m.shape[0]:
            raise DimensionMismatch(f"superoperator matrix shape {m.shape}")
        return cls(n=n, matrix=m)

    def apply(self, x):
        """S(x), of each matrix of a stack (..., n, n) as one product with
        the matrix."""
        x = as_cstack(x)
        if x.shape[-2:] != (self.n, self.n):
            raise DimensionMismatch(f"expected {self.n}x{self.n} matrices, got {x.shape}")
        return np.swapaxes((vec(x) @ self.matrix.T).reshape(x.shape), -1, -2)


def choi(s):
    """Choi matrix C with C[(i,k),(j,l)] = S(E_ij)[k,l] = S[l*n+k, j*n+i].

    S is completely positive iff C is PSD.
    """
    n = s.n
    return s.matrix.reshape(n, n, n, n).transpose(3, 1, 2, 0).reshape(n * n, n * n)


@dataclass(frozen=True)
class QuotientMap:
    """Separation of a PSD Gram matrix by its (numerical) null space.

    ``embed`` maps spanning-set coefficient vectors to orthonormal quotient
    coordinates (embed = diag(sqrt(eig)) @ U*, U the kept eigenvectors),
    and ``lift`` is a right inverse of embed picking the minimal-norm
    coefficient representative.
    """

    rank: int
    eigenvalues: np.ndarray  # kept eigenvalues, descending
    embed: np.ndarray        # rank x N isometric coordinates
    lift: np.ndarray         # N x rank


def cluster(values, gap):
    """Cluster labels 0, 1, ... of a real array, in increasing value order.

    Sorted neighbours at most ``gap`` apart share a label, so clusters only
    ever merge close values (by chains) and equal values are never split.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="stable")
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = np.cumsum(np.diff(values[order], prepend=values[order[:1]]) > gap)
    return labels


def null_quotient(g, tol=DEFAULT_TOL):
    """Quotient a Hermitian PSD Gram matrix by eigenvalues below tol.decomp*max."""
    return quotient(herm_eig(as_cmatrix(g), tol), tol)


def quotient(eig: HermEig, tol=DEFAULT_TOL):
    """``null_quotient`` of the Gram matrix with eigendecomposition ``eig``
    (eigenvalues ascending): the rank cutoff and the PSD gate are taken
    against the largest eigenvalue."""
    w, u = eig.eigenvalues, eig.eigenvectors
    lam_max = max(w[-1], 0.0)
    if lam_max > 0 and w[0] < -tol.psd_gate * lam_max:
        raise NotPSD(w[0], -tol.psd_gate * lam_max)
    keep = w > tol.decomp * lam_max if lam_max > 0 else np.zeros_like(w, dtype=bool)
    # descending order for determinism
    idx = np.nonzero(keep)[0][::-1]
    lam = w[idx]
    uk = u[:, idx]
    sq = np.sqrt(lam)
    embed = (uk * sq).conj().T          # rank x N
    lift = uk / sq                      # N x rank
    return QuotientMap(
        rank=int(idx.size),
        eigenvalues=lam,
        embed=embed,
        lift=lift,
    )
