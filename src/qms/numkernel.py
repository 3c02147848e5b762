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
    "unvec",
    "choi",
    "null_quotient",
    "matrix_units",
    "frob",
    "as_cmatrix",
]


def as_cmatrix(x):
    """Coerce to a finite complex128 2-D array."""
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN/Inf entries")
    return a


def frob(x):
    return float(np.linalg.norm(x))


def matrix_units(n):
    """The n^2 matrix units of M_n stacked row-major: E_ij at index i * n + j."""
    return np.eye(n * n, dtype=np.complex128).reshape(n * n, n, n)


@dataclass(frozen=True)
class HermEig:
    """Eigendecomposition of a Hermitian matrix (eigenvalues ascending)."""

    eigenvalues: np.ndarray   # real, ascending
    eigenvectors: np.ndarray  # unitary, columns

    def reconstruct(self):
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def herm_eig(h, tol=DEFAULT_TOL):
    """Hermitian eigendecomposition with a relative Hermiticity gate."""
    h = as_cmatrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch(f"matrix is not square: {h.shape}")
    scale = frob(h)
    resid = frob(h - h.conj().T)
    if scale > 0 and resid > tol.hermitian * scale:
        raise NotHermitian(resid / scale, tol.hermitian)
    hs = 0.5 * (h + h.conj().T)
    try:
        w, u = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - backend failure
        raise NoConvergence(str(exc)) from exc
    return HermEig(eigenvalues=w, eigenvectors=u)


def mat_power(h, z, tol=DEFAULT_TOL, _eig=None):
    """h**z for positive definite Hermitian h, principal branch.

    ``z`` may be complex; in particular ``mat_power(h, 1j*t)`` is the unitary
    h^{it}.  Accuracy degrades like exp(|Im z| * spread(log eig)) for large
    imaginary parts; the supported range is |Im z| <= 4.
    """
    eig = _eig if _eig is not None else herm_eig(h, tol)
    w, u = eig.eigenvalues, eig.eigenvectors
    if w[-1] <= 0 or w[0] <= tol.decomp * w[-1]:
        raise NotPositiveDefinite(
            f"min eigenvalue {w[0]:.3e} vs max {w[-1]:.3e}"
        )
    powered = np.exp(z * np.log(w.astype(np.float64)))
    return (u * powered) @ u.conj().T


def vec(x):
    """Column-stacking vectorization."""
    x = as_cmatrix(x)
    return x.flatten(order="F")


def unvec(v, n=None):
    v = np.asarray(v, dtype=np.complex128).ravel()
    if n is None:
        n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionMismatch(f"vector of length {v.size} is not n*n")
    return v.reshape((n, n), order="F")


def _kron_action(a, b):
    """Matrix of x -> a @ x @ b in the vec convention."""
    return np.kron(b.T, a)


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

    @classmethod
    def identity(cls, n):
        return cls(n=n, matrix=np.eye(n * n, dtype=np.complex128))

    @classmethod
    def zero(cls, n):
        return cls(n=n, matrix=np.zeros((n * n, n * n), dtype=np.complex128))

    @classmethod
    def left_right(cls, a, b):
        """The map x -> a @ x @ b."""
        a = as_cmatrix(a)
        b = as_cmatrix(b)
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise DimensionMismatch("left/right factors must be square, same size")
        return cls(n=a.shape[0], matrix=_kron_action(a, b))

    def apply(self, x):
        x = as_cmatrix(x)
        if x.shape != (self.n, self.n):
            raise DimensionMismatch(f"expected {self.n}x{self.n}, got {x.shape}")
        return unvec(self.matrix @ vec(x), self.n)

    def __call__(self, x):
        return self.apply(x)

    def __add__(self, other):
        self._same(other)
        return Superoperator(self.n, self.matrix + other.matrix)

    def __sub__(self, other):
        self._same(other)
        return Superoperator(self.n, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return Superoperator(self.n, self.matrix * scalar)

    __rmul__ = __mul__

    def _same(self, other):
        if not isinstance(other, Superoperator) or other.n != self.n:
            raise DimensionMismatch("superoperator dimension mismatch")


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
    ``lift`` is a right inverse of embed picking the minimal-norm coefficient
    representative, and the columns of ``null`` span the dropped eigenspace.
    """

    rank: int
    eigenvalues: np.ndarray  # kept eigenvalues, descending
    embed: np.ndarray        # rank x N isometric coordinates
    lift: np.ndarray         # N x rank
    null: np.ndarray         # N x (N - rank), orthonormal columns

    def coords(self, coeff):
        return self.embed @ np.asarray(coeff, dtype=np.complex128)


def null_quotient(g, eps_rel=None, tol=DEFAULT_TOL):
    """Quotient a Hermitian PSD Gram matrix by eigenvalues below eps_rel*max."""
    if eps_rel is None:
        eps_rel = tol.decomp
    g = as_cmatrix(g)
    eig = herm_eig(g, tol)
    w, u = eig.eigenvalues, eig.eigenvectors
    lam_max = max(w[-1], 0.0)
    if lam_max > 0 and w[0] < -tol.psd_gate * lam_max:
        raise NotPSD(w[0], -tol.psd_gate * lam_max)
    keep = w > eps_rel * lam_max if lam_max > 0 else np.zeros_like(w, dtype=bool)
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
        null=u[:, ~keep],
    )
