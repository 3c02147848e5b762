"""Modular theory for (M_n(C), phi = tr(. h)).

The GNS space of the faithful state phi is identified with M_n itself,
carrying the weighted inner product <x, y>_h = tr(x* y h).  On it live

* the modular operator      Delta(x) = h x h^{-1},
* the modular group         U_z(x)  = h^{iz} x h^{-iz}  (entire in z),
* the modular conjugation   J(x)    = h^{1/2} x* h^{-1/2}.

``coords`` gives an orthonormal coordinate system (x -> vec(x h^{1/2})) in
which adjoints of linear maps are plain conjugate transposes.

The modular eigenbasis: with h = u diag(lam) u*, ``to_eig`` maps x to
x~ = u* x u, the coefficients of x over the units F_ab = u E_ab u*, and
``from_eig`` back.  There the modular maps are diagonal: sigma_z(x)~_ab =
e^{i z omega_ab} x~_ab with the Bohr frequencies omega_ab = log lam_a -
log lam_b (``bohr``), and (J x)~_ab = (lam_a / lam_b)^{1/2} conj(x~_ba).
Every layer reads the basis from here.
"""

import warnings

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, NotPositiveDefinite
from .numkernel import as_cmatrix, as_cstack, cluster, herm_eig, mat_power, vec

__all__ = ["WeightedAlgebra", "TomitaData", "bohr_classes"]

# Frequencies computed from the same eigenvalues, as sums of a few logs, agree
# to a few ulp of max |log lam| when equal; the exact frequencies of h are
# further off by the error of the computed eigenvalues, a few eps * lam_max
# each, so up to a few eps * lam_max / lam_min in log
_FREQ_GAP = 64 * np.finfo(np.float64).eps


class WeightedAlgebra:
    """Full matrix algebra M_n with a faithful state density h, tr(h) = 1.

    A density with trace != 1 is rescaled with a warning.  Densities with
    condition number above ``tol.cond_max`` are rejected: analytic
    continuations h^{iz} lose roughly exp(|Im z| * spread(log eig)) digits,
    so unbounded spreads make every downstream identity meaningless.
    """

    def __init__(self, h, tol=DEFAULT_TOL):
        h = as_cmatrix(h)
        eig = herm_eig(h, tol)
        tr = float(np.trace(h).real)
        if abs(np.trace(h).imag) > tol.check:
            raise NotPositiveDefinite("density has non-real trace")
        if tr <= 0:
            raise NotPositiveDefinite("density has non-positive trace")
        if abs(tr - 1.0) > 1e-12:
            warnings.warn(
                f"density trace {tr:.6g} != 1; rescaling to a state",
                stacklevel=2,
            )
            h = h / tr
            eig = herm_eig(h, tol)
        w = eig.eigenvalues
        if w[0] <= 0 or w[-1] / w[0] > tol.cond_max:
            raise NotPositiveDefinite(
                f"density not faithful enough: eigen-range [{w[0]:.3e}, {w[-1]:.3e}]"
            )
        self.tol = tol
        self.n = h.shape[0]
        # herm_eig symmetrizes its input the same way, so eig is the
        # eigendecomposition of exactly this matrix
        self.h = 0.5 * (h + h.conj().T)
        self.eig = eig
        self.h_sqrt, self.h_isqrt, self.h_inv = (
            mat_power(self.h, z, tol, _eig=eig) for z in (0.5, -0.5, -1.0))
        log_lam = np.log(w)
        self.bohr = np.subtract.outer(log_lam, log_lam)
        self._j_scale = np.sqrt(np.divide.outer(w, w))

    # --- the modular eigenbasis -----------------------------------------------

    def to_eig(self, x):
        """u* x u of each matrix of a stack: x over the eigenbasis units."""
        u = self.eig.eigenvectors
        return u.conj().T @ self._check_stack(x) @ u

    def from_eig(self, x):
        """u x u* of each matrix of a stack, the inverse of ``to_eig``."""
        u = self.eig.eigenvectors
        return u @ self._check_stack(x) @ u.conj().T

    def sigma_eig(self, z, x):
        """sigma_z(x) = h^{iz} x h^{-iz} of eigenbasis matrices; z a scalar
        or an array of the stack's leading shape."""
        return np.exp(1j * np.multiply.outer(z, self.bohr)) * x

    def conj_eig(self, x):
        """J x = h^{1/2} x* h^{-1/2} of eigenbasis matrices."""
        return self._j_scale * np.swapaxes(x, -1, -2).conj()

    # --- GNS structure and orthonormal coordinates --------------------------

    def norm(self, x):
        """|x|_h = tr(x* x h)^{1/2}."""
        return float(np.sqrt(max(np.trace(x.conj().T @ x @ self.h).real, 0.0)))

    def coords(self, x):
        """Isometric coordinates: coords(x)^* coords(y) = <x, y>_h; of each
        matrix of a stack (..., n, n)."""
        return vec(self._check_stack(x) @ self.h_sqrt)

    def op_matrix(self, s):
        """Matrix K S K^{-1} of a superoperator in the orthonormal coordinates,
        with K = kron(h^{1/2}.T, 1) the matrix of x -> x h^{1/2}."""
        eye = np.eye(self.n)
        return np.kron(self.h_sqrt.T, eye) @ s.matrix @ np.kron(self.h_isqrt.T, eye)

    def _check_stack(self, x):
        """An n x n matrix or a stack (..., n, n) of them."""
        x = as_cstack(x)
        if x.shape[-2:] != (self.n, self.n):
            raise DimensionMismatch(
                f"expected {self.n}x{self.n} matrices, got {x.shape}"
            )
        return x


def bohr_classes(w: WeightedAlgebra, triple=False):
    """Classes of the Bohr frequencies omega_ab (``WeightedAlgebra.bohr``) of
    F_ab = u E_ab u* (index a n + b) of h = u diag(lam) u* (lam ascending),
    or, if ``triple``, of the frequencies omega_ab + log lam_c of the triples
    (a, b, c) at index a n^2 + b n + c: F_ab (x) F_cd has the frequency of
    its triple (a, b, c) less log lam_d.

    Returns (same, freq, equal): the class of each index among those whose
    computed frequencies agree up to rounding, the mean frequency of each
    such class, and the coarser class among those whose exact frequencies
    may agree.  Classes (``numkernel.cluster``) only merge, so equal
    frequencies are never split.
    """
    lam, freq = w.eig.eigenvalues, w.bohr.ravel()
    log_lam = np.log(lam)
    if triple:
        freq = np.add.outer(freq, log_lam).ravel()
    rounding = _FREQ_GAP * (1.0 + np.abs(log_lam).max())
    same = cluster(freq, rounding)
    return (same, np.bincount(same, freq) / np.bincount(same),
            cluster(freq, rounding + _FREQ_GAP * lam[-1] / lam[0]))


class TomitaData:
    """The modular group of a WeightedAlgebra, on each matrix of a stack
    (..., n, n); the exponent z may be an array of the stack's leading
    shape."""

    def __init__(self, w: WeightedAlgebra):
        self.W = w

    def modular_group(self, z, x):
        """U_z(x) = h^{iz} x h^{-iz}, through the modular eigenbasis;
        U_{-i} = Delta."""
        z = np.asarray(z)
        im_z = np.max(np.abs(z.imag))
        if im_z > self.W.tol.im_z_max:
            warnings.warn(
                f"|Im z| = {im_z:.3g} beyond supported range 4; "
                "accuracy is not guaranteed",
                stacklevel=2,
            )
        w = self.W
        return w.from_eig(w.sigma_eig(z, w.to_eig(x)))
