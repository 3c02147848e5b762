"""Modular theory for (M_n(C), phi = tr(. h)).

The GNS space of the faithful state phi is identified with M_n itself,
carrying the weighted inner product <x, y>_h = tr(x* y h).  On it live

* the modular operator      Delta(x) = h x h^{-1},
* the modular group         U_z(x)  = h^{iz} x h^{-iz}  (entire in z),
* the modular conjugation   J(x)    = h^{1/2} x* h^{-1/2},
* the involutions           sharp(x) = x*   and   flat(x) = h x* h^{-1},

with S = J Delta^{1/2} realizing sharp.  ``coords``/``from_coords`` expose an
orthonormal coordinate system (x -> vec(x h^{1/2})) in which adjoints of
linear maps are plain conjugate transposes.
"""

import warnings

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, NotPositiveDefinite
from .numkernel import Superoperator, as_cmatrix, frob, herm_eig, mat_power, unvec, vec

__all__ = ["WeightedAlgebra", "TomitaData"]


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
        self.h = 0.5 * (h + h.conj().T)
        self.eig = herm_eig(self.h, tol)
        self.h_sqrt = self._power(0.5)
        self.h_isqrt = self._power(-0.5)
        self.h_qrt = self._power(0.25)
        self.h_iqrt = self._power(-0.25)
        self.h_inv = self._power(-1.0)

    def _power(self, z):
        return mat_power(self.h, z, self.tol, _eig=self.eig)

    def power(self, z):
        """h**z (principal branch; z may be complex)."""
        return self._power(z)

    # --- GNS structure --------------------------------------------------------

    def inner(self, x, y):
        """<x, y>_h = tr(x* y h)."""
        x = self._check(x)
        y = self._check(y)
        return complex(np.trace(x.conj().T @ y @ self.h))

    def norm(self, x):
        return float(np.sqrt(max(self.inner(x, x).real, 0.0)))

    def state(self, x):
        """phi(x) = tr(x h)."""
        return complex(np.trace(self._check(x) @ self.h))

    # --- orthonormal coordinates ---------------------------------------------

    def coords(self, x):
        """Isometric coordinates: coords(x)^* coords(y) = <x, y>_h."""
        return vec(self._check(x) @ self.h_sqrt)

    def from_coords(self, c):
        return unvec(c, self.n) @ self.h_isqrt

    def op_matrix(self, s):
        """Matrix K S K^{-1} of a superoperator in the orthonormal coordinates,
        with K = kron(h^{1/2}.T, 1) the matrix of x -> x h^{1/2}."""
        eye = np.eye(self.n)
        return np.kron(self.h_sqrt.T, eye) @ s.matrix @ np.kron(self.h_isqrt.T, eye)

    def _check(self, x):
        x = as_cmatrix(x)
        if x.shape != (self.n, self.n):
            raise DimensionMismatch(
                f"expected {self.n}x{self.n}, got {x.shape}"
            )
        return x


class TomitaData:
    """Modular maps of a WeightedAlgebra; everything computed on demand."""

    def __init__(self, w: WeightedAlgebra):
        self.W = w

    def modular_op(self):
        """Delta as a superoperator: Delta(x) = h x h^{-1}."""
        return Superoperator.left_right(self.W.h, self.W.h_inv)

    def modular_group(self, z, x):
        """U_z(x) = h^{iz} x h^{-iz}; U_{-i} = Delta."""
        if abs(np.imag(z)) > self.W.tol.im_z_max:
            warnings.warn(
                f"|Im z| = {abs(np.imag(z)):.3g} beyond supported range 4; "
                "accuracy is not guaranteed",
                stacklevel=2,
            )
        left = self.W.power(1j * z)
        right = self.W.power(-1j * z)
        return left @ self.W._check(x) @ right

    def conj_J(self, x):
        """J(x) = h^{1/2} x* h^{-1/2} (antiunitary involution)."""
        return self.W.h_sqrt @ self.W._check(x).conj().T @ self.W.h_isqrt

    def sharp(self, x):
        """x -> x*, the adjoint for left multiplication."""
        return self.W._check(x).conj().T

    def flat(self, x):
        """x -> h x* h^{-1} = U_{-i}(x*), the adjoint for right multiplication."""
        return self.W.h @ self.W._check(x).conj().T @ self.W.h_inv

    def s_residual(self, x):
        """|| J(Delta^{1/2} x) - x* || — the polar decomposition S = J Delta^{1/2}."""
        d_half = self.W.h_sqrt @ self.W._check(x) @ self.W.h_isqrt
        return frob(self.conj_J(d_half) - x.conj().T)

