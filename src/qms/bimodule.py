"""The explicit Tomita bimodule of a jump system and its derivation.

Carrier: H^{+m} = (L_2(M, phi))^m with inner product
<xi, eta> = sum_j tr(xi_j* eta_j h).  Structure maps:

* left/right actions     (a xi)_j = a xi_j,  (xi a)_j = xi_j a,
* modular group          (U_z xi)_j = e^{i omega_j z} h^{iz} xi_j h^{-iz},
* derivation             delta(a)_j = i e^{-omega_j/4} [v_j, a].

The conjugation is NOT taken from a closed-form display.  It is defined on
generator-form vectors sum_i R(b_i) delta(a_i) by

    conj(sum_i R(b_i) delta(a_i)) = sum_i L(J b_i) delta(J a_i)

and extended to the generated span by least squares; this pins the map
uniquely whenever it is well defined at all, which the axiom checker
verifies numerically.  On that span it agrees with the componentwise
display ``conj_ambient``, conj(xi)_j = J(xi_{j*}), which the test suite
asserts.

Stacked samples: a ``BimoduleVector`` may hold a stack of vectors, comps of
shape (..., m, n, n), and every structure map acts on each vector of a
stack at once: the actions and ``delta`` take a matrix or a stack
(..., n, n), ``mod_group`` a scalar z or an array of them (per-sample
phases lam^{iz} in the eigenbasis of h), ``inner``/``norm`` return one value
per vector and ``conj`` solves for the whole stack with one pseudo-inverse
product.  A single vector is the case without leading axes, so each map has
one implementation.  The sampled checks (``axioms_check``,
``Derivation.check``) draw all their samples first, with the generator
calls of a loop that draws sample by sample (``sampling.draw_samples``),
then evaluate every residual on the stacks.
"""

from functools import cached_property, partial

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, NotInGeneratedSpan, NotInvariantVector
from .lindblad import DirichletForm, JumpSystem
from .modular import TomitaData
from .numkernel import Superoperator, matrix_units
from .reconstruct import gram_entry
from .sampling import (draw_samples, random_disk_point, random_matrix,
                       sample_blocks, worst)

__all__ = ["FinBimodule", "BimoduleVector", "Derivation",
           "inner_derivation_generator", "carre_du_champ"]


class BimoduleVector:
    """Element of H^{+m}: m matrices of size n x n, comps of shape (m, n, n);
    or a stack of such elements, comps of shape (..., m, n, n)."""

    def __init__(self, comps):
        comps = np.asarray(comps, dtype=np.complex128)
        if comps.ndim == 2:
            comps = comps[None, :, :]
        if comps.ndim < 3 or comps.shape[-2] != comps.shape[-1]:
            raise DimensionMismatch(f"bad component shape {comps.shape}")
        self.comps = comps

    @property
    def m(self):
        return self.comps.shape[-3]

    @property
    def n(self):
        return self.comps.shape[-1]

    def __add__(self, other):
        return BimoduleVector(self.comps + other.comps)

    def __sub__(self, other):
        return BimoduleVector(self.comps - other.comps)

    def __mul__(self, scalar):
        return BimoduleVector(self.comps * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return BimoduleVector(-self.comps)


class FinBimodule:
    """H^{+m} with the componentwise Tomita-bimodule structure."""

    def __init__(self, system: JumpSystem, tol=DEFAULT_TOL, validate=True):
        if validate:
            system.check_valid()
        self.system = system
        self.W = system.W
        self.tol = tol
        self.tomita = TomitaData(self.W)
        self.m = system.m
        self.n = self.W.n
        self.omegas = np.array([w for _, w in system.jumps])
        self._jumps = np.array([v for v, _ in system.jumps]).reshape(
            self.m, self.n, self.n)
        self.pairing = list(system.pairing)

    # --- inner product and coordinates ---------------------------------------

    def inner(self, xi: BimoduleVector, eta: BimoduleVector):
        """<xi, eta>, one value per vector of a stack."""
        return np.sum(xi.comps.conj() * (eta.comps @ self.W.h), axis=(-3, -2, -1))

    def norm(self, xi):
        return np.sqrt(np.maximum(self.inner(xi, xi).real, 0.0))

    def coords(self, xi: BimoduleVector):
        """Stacked orthonormal coordinates (componentwise vec(xi_j h^{1/2}))."""
        c = np.swapaxes(xi.comps @ self.W.h_sqrt, -1, -2)
        return c.reshape(c.shape[:-3] + (self.m * self.n * self.n,))

    def from_coords(self, c):
        n = self.n
        comps = np.swapaxes(c.reshape(c.shape[:-1] + (self.m, n, n)), -1, -2)
        return BimoduleVector(comps @ self.W.h_isqrt)

    def zero(self):
        return BimoduleVector(np.zeros((self.m, self.n, self.n), dtype=np.complex128))

    # --- actions and modular structure ---------------------------------------

    def act_left(self, a, xi: BimoduleVector) -> BimoduleVector:
        a = self.W._check_stack(a)
        return BimoduleVector(a[..., None, :, :] @ xi.comps)

    def act_right(self, a, xi: BimoduleVector) -> BimoduleVector:
        a = self.W._check_stack(a)
        return BimoduleVector(xi.comps @ a[..., None, :, :])

    def mod_group(self, z, xi: BimoduleVector) -> BimoduleVector:
        z = np.asarray(z)
        left = self.W.power(1j * z)[..., None, :, :]
        right = self.W.power(-1j * z)[..., None, :, :]
        phases = np.exp(1j * np.multiply.outer(z, self.omegas))
        return BimoduleVector(phases[..., None, None] * (left @ xi.comps @ right))

    def _commutators(self, a):
        """[v_j, a] over the jumps, for a matrix or a stack (..., n, n) of a."""
        a = self.W._check_stack(a)[..., None, :, :]
        return self._jumps @ a - a @ self._jumps

    def delta(self, a) -> BimoduleVector:
        """delta(a) = (i e^{-omega_j/4} [v_j, a])_j."""
        weights = 1j * np.exp(-self.omegas / 4.0)
        return BimoduleVector(weights[:, None, None] * self._commutators(a))

    # --- conjugation via generator forms --------------------------------------

    @cached_property
    def _span(self):
        """Spanning family R(b_q) delta(a_p) over matrix-unit pairs.

        Returns (G, JG): column p * n^2 + q of G holds the coordinates of
        R(E_q) delta(E_p), and the same column of JG those of its image
        L(J E_q) delta(J E_p) under the abstract conjugation rule.
        """
        n, w = self.n, self.W
        units = matrix_units(n)
        j_units = self.tomita.conj_J(units)
        # coordinates vec(xi_j h^{1/2}), stacked over j, column-major per j
        g = np.einsum("pjrs,qsx,xt->jtrpq", self.delta(units).comps, units,
                      w.h_sqrt, optimize=True).reshape(self.m * n * n, n ** 4)
        jg = np.einsum("qrs,pjsx,xt->jtrpq", j_units, self.delta(j_units).comps,
                       w.h_sqrt, optimize=True).reshape(self.m * n * n, n ** 4)
        return g, jg

    @cached_property
    def _span_pinv(self):
        """pinv(G) of the spanning family, for ``conj``."""
        u, sv, vh = np.linalg.svd(self._span[0], full_matrices=False)
        keep = sv > 1e-10 * np.max(sv, initial=0.0)
        return (vh[keep].conj().T / sv[keep]) @ u[:, keep].conj().T

    def conj_ambient(self, xi: BimoduleVector) -> BimoduleVector:
        """Componentwise extension of the conjugation to all of H^{+m}:
        conj(xi)_j = J(xi_{j*}).  Agrees with the abstract generator-form
        map on the generated span (asserted by the test suite); used where a
        vector need not lie in that span (e.g. representing vectors)."""
        return BimoduleVector(self.tomita.conj_J(xi.comps[..., self.pairing, :, :]))

    def conj(self, xi: BimoduleVector) -> BimoduleVector:
        """Antilinear conjugation, extended to the generated span.

        A vector outside the span raises ``NotInGeneratedSpan``; in a stack,
        the first such vector in row-major order of the leading axes.
        """
        g, jg = self._span
        c = self.coords(xi)
        coeff = c @ self._span_pinv.T
        resid = np.linalg.norm(coeff @ g.T - c, axis=-1)
        scale = np.maximum(np.linalg.norm(c, axis=-1), 1e-300)
        outside = (resid > self.tol.span * scale).ravel()
        if outside.any():
            k = np.argmax(outside)
            raise NotInGeneratedSpan(float(resid.ravel()[k] / scale.ravel()[k]),
                                     self.tol.span)
        return self.from_coords(coeff.conj() @ jg.T)

    # --- axiom checker ---------------------------------------------------------

    def axioms_check(self, n_vectors=200, seed=11):
        """One residual per Tomita-bimodule axiom (a)-(f).

        Test vectors are random generator-form combinations; z samples are
        drawn from the disk |z| <= 1.  Axiom (e) is evaluated in the form
        U_z(delta(a) b) = delta(U_z a) U_z b: given (a)-(d) exact by
        construction, the covariance of the generator family is the only
        content of (e) that the concrete model can violate.  A wrong stored
        weight shows up here and in (f), U_z conj = conj U_conj(z); (a)-(d)
        stay exact.

        Each sample draws a, b, the right factor and the delta argument of
        eta, z, c, z2.
        """
        rng = np.random.default_rng(seed)
        res = {k: 0.0 for k in "abcdef"}
        if self.m == 0:
            return res
        mat = partial(random_matrix, self.n)
        samples = draw_samples(rng, n_vectors, mat, mat, mat, mat,
                               random_disk_point, mat, random_disk_point)
        # a sample holds the three n^4-wide coefficient rows of its ``conj``
        # call and four vectors of m n x n components
        n2 = self.n ** 2
        for block in sample_blocks(n_vectors, 16 * (3 * n2 ** 2 + 4 * self.m * n2)):
            self._axioms_block(res, *(x[block] for x in samples))
        return res

    def _axioms_block(self, res, a, b, eta_r, eta_a, z, c, z2):
        """Raise ``res`` to the residuals of one block of samples."""
        mg = self.tomita.modular_group
        xi = self.act_right(b, self.delta(a))
        eta = self.act_right(eta_r, self.delta(eta_a))
        norm_xi = self.norm(xi)
        nrm_xi = np.maximum(norm_xi, 1e-300)
        nrm_eta = np.maximum(self.norm(eta), 1e-300)

        # (a) boundedness: |L(c)| <= |pi_l(c)| = |c| and
        # |R(c)| <= |pi_r(c)| = |h^{-1/2} c h^{1/2}| (right GNS action norm)
        opn_l = np.linalg.norm(c, 2, axis=(-2, -1))
        opn_r = np.linalg.norm(self.W.h_isqrt @ c @ self.W.h_sqrt, 2, axis=(-2, -1))
        c_xi = self.act_left(c, xi)
        res["a"] = worst(res["a"], (self.norm(c_xi) - opn_l * norm_xi) / nrm_xi,
                         (self.norm(self.act_right(c, xi)) - opn_r * norm_xi)
                         / nrm_xi)

        # the conjugations of (b) and (f), stacked per sample in the order a
        # loop over samples calls them, so a vector outside the span raises
        # where the loop would
        conjugated = self.conj(BimoduleVector(np.stack(
            [c_xi.comps, xi.comps, self.mod_group(np.conj(z), xi).comps], axis=1)))
        lhs_b, conj_xi, rhs_f = (BimoduleVector(conjugated.comps[:, k])
                                 for k in range(3))

        # (b) conj L(a) = R(Ja) conj
        rhs = self.act_right(self.tomita.conj_J(c), conj_xi)
        res["b"] = worst(res["b"], self.norm(lhs_b - rhs) / (opn_l * nrm_xi))

        # (c) analyticity proxy: group law of z -> U_z
        lhs = self.mod_group(z, self.mod_group(z2, xi))
        rhs = self.mod_group(z + z2, xi)
        res["c"] = worst(res["c"], self.norm(lhs - rhs) / nrm_xi)

        # (d) <xi, U_z eta> = <U_{-conj(z)} xi, eta>
        lhs_ip = self.inner(xi, self.mod_group(z, eta))
        rhs_ip = self.inner(self.mod_group(-np.conj(z), xi), eta)
        res["d"] = worst(res["d"], np.abs(lhs_ip - rhs_ip) / (nrm_xi * nrm_eta))

        # (e) U_z L(a) U_{-z} = L(U_z a) on generators:
        #     U_z(delta(a) b) = delta(U_z a) U_z b
        lhs = self.mod_group(z, xi)
        rhs = self.act_right(mg(z, b), self.delta(mg(z, a)))
        res["e"] = worst(res["e"], self.norm(lhs - rhs) / nrm_xi)

        # (f) U_z conj = conj U_{conj(z)}
        lhs = self.mod_group(z, conj_xi)
        res["f"] = worst(res["f"], self.norm(lhs - rhs_f) / nrm_xi)


class Derivation:
    """delta of a FinBimodule together with its self-checks."""

    def __init__(self, bimodule: FinBimodule):
        self.B = bimodule

    def __call__(self, a):
        return self.B.delta(a)

    def check(self, form: DirichletForm = None, n_samples=100, seed=13):
        """Residuals: product rule, conj/delta and U_z/delta intertwining,
        energy identity against the Dirichlet form (if given).

        Each sample draws x, y, then the real and imaginary part of z.
        """
        b = self.B
        rng = np.random.default_rng(seed)
        mat = partial(random_matrix, b.n)
        x, y, z = draw_samples(rng, n_samples, mat, mat,
                               lambda r: r.uniform(-1, 1) + 1j * r.uniform(-1, 1))
        res = {"product_rule": 0.0, "conj_intertwine": 0.0,
               "mod_intertwine": 0.0, "energy_identity": 0.0}
        dx, dy = b.delta(x), b.delta(y)
        scale = np.maximum(b.norm(dx) * np.linalg.norm(y, axis=(-2, -1)), 1e-300)
        lhs = b.delta(x @ y)
        rhs = b.act_left(x, dy) + b.act_right(y, dx)
        res["product_rule"] = worst(0.0, b.norm(lhs - rhs) / scale)

        rhs = b.delta(b.tomita.conj_J(x))
        res["conj_intertwine"] = worst(
            0.0, b.norm(b.conj(dx) - rhs) / np.maximum(b.norm(rhs), 1e-300))

        rhs = b.delta(b.tomita.modular_group(z, x))
        res["mod_intertwine"] = worst(
            0.0, b.norm(b.mod_group(z, dx) - rhs) / np.maximum(b.norm(rhs), 1e-300))

        if form is not None:
            rhs_ip = form(x, y)
            res["energy_identity"] = worst(
                0.0, np.abs(b.inner(dx, dy) - rhs_ip)
                / np.maximum(np.abs(rhs_ip), 1.0))
        return res


def inner_derivation_generator(b: FinBimodule, xi: BimoduleVector,
                               tol=DEFAULT_TOL) -> Superoperator:
    """L_xi(x) = (xi|xi) x + x (xi|xi) - 2 (xi| x xi) for an invariant vector.

    (xi|eta) = sum_j xi_j* eta_j is the algebra-valued pairing.  The vector
    must be fixed by the modular group and by the conjugation.
    """
    nrm = max(b.norm(xi), 1e-300)
    for t in (0.5, 1.0):
        if b.norm(b.mod_group(t, xi) - xi) > tol.axiom * nrm:
            raise NotInvariantVector(f"U_{t} xi != xi")
    if b.m > 0 and b.norm(b.conj_ambient(xi) - xi) > tol.axiom * nrm:
        raise NotInvariantVector("conj xi != xi")
    n = b.n
    eye = np.eye(n, dtype=np.complex128)
    q = np.zeros((n, n), dtype=np.complex128)
    total = Superoperator.zero(n)
    for j in range(b.m):
        c = xi.comps[j]
        q += c.conj().T @ c
        total = total - 2.0 * Superoperator.left_right(c.conj().T, c)
    total = total + Superoperator.left_right(q, eye) + Superoperator.left_right(eye, q)
    return total


def carre_du_champ(form: DirichletForm, a, b):
    """Carre du champ Gamma(a, b) as a matrix, computed from the form alone.

    Defined by tr(Gamma(a,b) . h^{1/2} c h^{1/2}) = <a (x) 1, b (x) c>
    (``gram_entry``) for all c.  Gamma(a, a) has real nonnegative spectrum:
    it equals h^{1/2} (sum_j delta(a)_j* delta(a)_j) h^{-1/2}, a similarity
    transform of a positive matrix (Hermitian only when h commutes with the sum).
    For stacks (..., n, n) of a and b, one matrix per pair.
    """
    w = form.W
    n = w.n
    a = w._check_stack(a)[..., None, :, :]
    b = w._check_stack(b)[..., None, :, :]
    eye = np.eye(n, dtype=np.complex128)
    m = gram_entry(form, a, eye, b, matrix_units(n))    # (..., c = E_ij)
    return w.h_isqrt @ np.swapaxes(m.reshape(m.shape[:-1] + (n, n)), -1, -2) @ w.h_isqrt
