"""The explicit Tomita bimodule of a jump system and its derivation.

Carrier: H^{+m} = (L_2(M, phi))^m with inner product
<xi, eta> = sum_j tr(xi_j* eta_j h).  Structure maps:

* left/right actions     (a xi)_j = a xi_j,  (xi a)_j = xi_j a,
* modular group          (U_z xi)_j = e^{i omega_j z} h^{iz} xi_j h^{-iz},
* derivation             delta(a)_j = i e^{-omega_j/4} [v_j, a].

A vector of a ``FinBimodule`` is the array (m, n, n) of its components in
the modular eigenbasis of h = u diag(lam) u*, xi'_j = u* xi_j u
(``WeightedAlgebra.to_eig``), where the modular maps are diagonal: U_z
multiplies xi'_jab by exp(iz(omega_j + omega_ab)), omega_ab the Bohr
frequency log lam_a - log lam_b, <xi, eta> = sum_jab conj(xi'_jab) eta'_jab
lam_b, and J acts as ``WeightedAlgebra.conj_eig``.  The actions and
``delta`` rotate their matrix argument once, to u* a u; ``W.from_eig`` gives
the standard-basis components, and ``coords``/``from_coords`` are the
standard-basis coordinates vec(xi_j h^{1/2}).

The conjugation is NOT taken from a closed-form display.  It is defined on
generator-form vectors sum_i R(b_i) delta(a_i) by

    conj(sum_i R(b_i) delta(a_i)) = sum_i L(J b_i) delta(J a_i)

and extended to the generated span by least squares; this pins the map
uniquely whenever it is well defined at all, which the axiom checker
verifies numerically.  On that span it agrees with the componentwise
display ``conj_ambient``, conj(xi)_j = J(xi_{j*}), which the test suite
asserts.  In the coordinates xi'_jab lam_b^{1/2}, R(F_kl) delta(F_p) over
the eigenbasis units F_p = u E_p u* is lam_l^{1/2} times column (p, k) of the
m n x n^3 matrix D[(j, a), (p, k)] = delta(F_p)'_jak (``span_block``) in the
rows b = l, and its image L(J F_kl) delta(J F_p) lies in the rows a = l,
where lam_l^{1/2} cancels.  So one m n x n^3 least squares serves all n
blocks: ``conj`` applies the projector D D^+ (its residual decides
``NotInGeneratedSpan``) and the antilinear K = E conj(D^+), E the images, to
the n columns of a vector's coordinates.

Stacked samples: an array (..., m, n, n) is a stack of vectors.  Every structure map acts on each vector of a stack at once
(the actions and ``delta`` take a matrix or a stack (..., n, n),
``mod_group`` a scalar z or an array of them), so each map has one
implementation.  The sampled checks draw all their samples first
(``sampling.draw_samples``), rotate each drawn matrix once, then evaluate
every residual on the stacks.
"""

from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL
from .errors import NotInGeneratedSpan
from .lindblad import DirichletForm, JumpSystem
from .numkernel import matrix_units, spectral_norm
from .reconstruct import gram_entry
from .sampling import (_BLOCK_BYTES, _SMALL_BYTES, DISK, SQUARE, check_stage_bytes,
                       draw_samples, matrices, sample_blocks, worst)

__all__ = ["FinBimodule", "Derivation", "carre_du_champ"]


class FinBimodule:
    """H^{+m} with the componentwise Tomita-bimodule structure; a vector is
    the array (m, n, n) of its components in the eigenbasis of h."""

    def __init__(self, system: JumpSystem, tol=DEFAULT_TOL, validate=True):
        if validate:
            system.check_valid()
        self.W = system.W
        self.tol = tol
        self.m = system.m
        self.n = self.W.n
        jumps, self.omegas = system._stack()
        lam = self.W.eig.eigenvalues
        self._lam, self._sqrt_lam = lam, np.sqrt(lam)
        self._lam_parts = np.repeat(lam, 2)
        # (U_z xi)'_jab = e^{i z freq_jab} xi'_jab
        self._freq = self.omegas[:, None, None] + self.W.bohr
        self._jumps = self.W.to_eig(jumps)
        self.pairing = list(system.pairing)

    # --- inner product and coordinates ----------------------------------------

    def inner(self, xi, eta):
        """<xi, eta>, one value per vector of a stack (complex also for real
        components)."""
        xi = np.asarray(xi, dtype=np.complex128)
        return np.sum(xi.conj() * eta * self._lam, axis=(-3, -2, -1))

    def norm(self, xi):
        """|xi| = (sum_jab lam_b |xi'_jab|^2)^{1/2} of each vector of a stack,
        in one pass over the real and imaginary parts of the components."""
        v = np.ascontiguousarray(xi, dtype=np.complex128).view(np.float64)
        return np.sqrt(np.einsum("...jab,...jab,b->...", v, v, self._lam_parts))

    def coords(self, xi):
        """Stacked orthonormal coordinates (componentwise vec(xi_j h^{1/2}))."""
        c = np.swapaxes(self.W.from_eig(xi) @ self.W.h_sqrt, -1, -2)
        return c.reshape(c.shape[:-3] + (self.m * self.n * self.n,))

    def from_coords(self, c):
        n = self.n
        comps = np.swapaxes(c.reshape(c.shape[:-1] + (self.m, n, n)), -1, -2)
        return self.W.to_eig(comps @ self.W.h_isqrt)

    # --- actions and modular structure ---------------------------------------

    def act_left(self, a, xi):
        return self.W.to_eig(a)[..., None, :, :] @ xi

    def act_right(self, a, xi):
        return xi @ self.W.to_eig(a)[..., None, :, :]

    def mod_group(self, z, xi):
        """U_z xi: z a scalar, or an array of the stack's leading shape."""
        return np.exp(1j * np.multiply.outer(z, self._freq)) * xi

    def _delta(self, ar):
        """delta of eigenbasis matrices ar, a matrix or a stack (..., n, n)."""
        ar = ar[..., None, :, :]
        weights = 1j * np.exp(-self.omegas / 4.0)
        return weights[:, None, None] * (self._jumps @ ar - ar @ self._jumps)

    def delta(self, a):
        """delta(a) = (i e^{-omega_j/4} [v_j, a])_j."""
        return self._delta(self.W.to_eig(a))

    # --- conjugation via generator forms --------------------------------------

    @cached_property
    def span_block(self):
        """D[(j, a), (p, k)] = delta(F_p)'_jak over the eigenbasis units F_p:
        the spanning family's block at each right index l, up to lam_l^{1/2}."""
        n = self.n
        d = self._delta(matrix_units(n))
        return d.transpose(1, 2, 0, 3).reshape(self.m * n, n ** 3)

    @cached_property
    def _conj_maps(self):
        """(D D^+, K = E conj(D^+)) for ``conj``, with
        E[(j, b), (p, k)] = lam_b^{1/2} lam_k^{-1/2} delta(J F_p)'_jkb the
        images of the block's columns at each left index l."""
        n, s = self.n, self._sqrt_lam
        images = self._delta(self.W.conj_eig(matrix_units(n))) * s / s[:, None]
        images = images.transpose(1, 3, 0, 2).reshape(self.m * n, n ** 3)
        u, sv, vh = np.linalg.svd(self.span_block, full_matrices=False)
        keep = sv > 1e-10 * np.max(sv, initial=0.0)
        u = u[:, keep]
        pinv = (vh[keep].conj().T / sv[keep]) @ u.conj().T
        return u @ u.conj().T, images @ pinv.conj()

    def conj_ambient(self, xi):
        """Componentwise extension of the conjugation to all of H^{+m}:
        conj(xi)_j = J(xi_{j*}).  Agrees with the abstract generator-form
        map on the generated span (asserted by the test suite); used where a
        vector need not lie in that span (e.g. representing vectors)."""
        return self.W.conj_eig(xi[..., self.pairing, :, :])

    def conj(self, xi):
        """Antilinear conjugation, extended to the generated span.

        A vector outside the span raises ``NotInGeneratedSpan``; in a stack,
        the first such vector in row-major order of the leading axes.
        """
        proj, antilinear = self._conj_maps
        n, lead = self.n, xi.shape[:-3]
        # coordinates xi'_jab lam_b^{1/2}: rows (j, a), a column per right index
        x = (xi * self._sqrt_lam).reshape(lead + (self.m * n, n))
        resid = np.linalg.norm(proj @ x - x, axis=(-2, -1))
        scale = np.maximum(np.linalg.norm(x, axis=(-2, -1)), 1e-300)
        outside = (resid > self.tol.span * scale).ravel()
        if outside.any():
            k = np.argmax(outside)
            raise NotInGeneratedSpan(float(resid.ravel()[k] / scale.ravel()[k]),
                                     self.tol.span)
        # column l goes to the rows of left index l: y[(j, b), l]
        y = (antilinear @ x.conj()).reshape(lead + (self.m, n, n))
        return np.swapaxes(y, -1, -2) / self._sqrt_lam

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
        n = self.n
        # the delta images of the n^2 units and their products, D, its SVD
        # and K (10 m n^4 entries), the samples and one block of them
        check_stage_bytes(16 * (10 * self.m * n ** 4 + n_vectors * (5 * n * n + 2))
                          + _BLOCK_BYTES + _SMALL_BYTES,
                          f"the bimodule axioms at n = {n}, m = {self.m}")
        mat = matrices(n)
        samples = draw_samples(rng, n_vectors, mat, mat, mat, mat, DISK, mat, DISK)
        # a sample holds about twelve vectors of m n x n components at once:
        # the three its ``conj`` call stacks, their coordinates, projection
        # and image, and xi, eta and L(c) xi
        for block in sample_blocks(n_vectors, 16 * 12 * self.m * n * n):
            self._axioms_block(res, *(x[block] for x in samples))
        return res

    def _axioms_block(self, res, a, b, eta_r, eta_a, z, c, z2):
        """Raise ``res`` to the residuals of one block of samples."""
        w = self.W
        a, b, eta_r, eta_a, c = w.to_eig(np.stack([a, b, eta_r, eta_a, c]))
        xi = self._delta(a) @ b[:, None]
        eta = self._delta(eta_a) @ eta_r[:, None]
        norm_xi = self.norm(xi)
        nrm_xi = np.maximum(norm_xi, 1e-300)
        nrm_eta = np.maximum(self.norm(eta), 1e-300)

        # (a) boundedness: |L(c)| <= |pi_l(c)| = |c| and
        # |R(c)| <= |pi_r(c)| = |h^{-1/2} c h^{1/2}| (right GNS action norm)
        s = self._sqrt_lam
        opn_l = spectral_norm(c)
        opn_r = spectral_norm(c * s / s[:, None])
        c_xi = c[:, None] @ xi
        res["a"] = worst(res["a"], (self.norm(c_xi) - opn_l * norm_xi) / nrm_xi,
                         (self.norm(xi @ c[:, None]) - opn_r * norm_xi) / nrm_xi)

        # the conjugations of (b) and (f), stacked per sample in the order a
        # loop over samples calls them, so a vector outside the span raises
        # where the loop would
        conjugated = self.conj(np.stack([c_xi, xi, self.mod_group(np.conj(z), xi)],
                                        axis=1))
        lhs_b, conj_xi, rhs_f = (conjugated[:, k] for k in range(3))

        # (b) conj L(c) = R(Jc) conj
        rhs = conj_xi @ w.conj_eig(c)[:, None]
        res["b"] = worst(res["b"], self.norm(lhs_b - rhs) / (opn_l * nrm_xi))

        # U_z may stretch xi far beyond |xi|, so (c)-(f) are relative to the
        # larger of the two sides and |xi| (in (d), |xi| |eta| and the
        # Cauchy-Schwarz bounds of both pairings)
        def gap(lhs, rhs):
            return self.norm(lhs - rhs) / np.maximum.reduce([self.norm(lhs), self.norm(rhs),
                                                             nrm_xi])

        # (c) analyticity proxy: group law of z -> U_z
        lhs = self.mod_group(z, self.mod_group(z2, xi))
        res["c"] = worst(res["c"], gap(lhs, self.mod_group(z + z2, xi)))

        # (d) <xi, U_z eta> = <U_{-conj(z)} xi, eta>
        u_eta, u_xi = self.mod_group(z, eta), self.mod_group(-np.conj(z), xi)
        scale = np.maximum.reduce([nrm_xi * self.norm(u_eta), self.norm(u_xi) * nrm_eta,
                                   nrm_xi * nrm_eta])
        res["d"] = worst(res["d"], np.abs(self.inner(xi, u_eta) - self.inner(u_xi, eta))
                         / scale)

        # (e) U_z L(a) U_{-z} = L(U_z a) on generators:
        #     U_z(delta(a) b) = delta(U_z a) U_z b
        lhs = self.mod_group(z, xi)
        rhs = self._delta(w.sigma_eig(z, a)) @ w.sigma_eig(z, b)[:, None]
        res["e"] = worst(res["e"], gap(lhs, rhs))

        # (f) U_z conj = conj U_{conj(z)}
        res["f"] = worst(res["f"], gap(self.mod_group(z, conj_xi), rhs_f))


class Derivation:
    """delta of a FinBimodule together with its self-checks."""

    def __init__(self, bimodule: FinBimodule):
        self.B = bimodule

    def check(self, form: DirichletForm = None, n_samples=100, seed=13):
        """Residuals: product rule, conj/delta and U_z/delta intertwining,
        energy identity against the Dirichlet form (if given).

        Each sample draws x, y, then the real and imaginary part of z.
        """
        b, n = self.B, self.B.n
        # the maps of ``conj`` as in ``axioms_check``, and twelve stacks of
        # m n x n components
        check_stage_bytes(16 * b.m * n * n * (10 * n * n + 12 * n_samples) + _SMALL_BYTES,
                          f"the derivation check at n = {n}, m = {b.m}")
        rng = np.random.default_rng(seed)
        mat = matrices(n)
        x, y, z = draw_samples(rng, n_samples, mat, mat, SQUARE)
        res = {"product_rule": 0.0, "conj_intertwine": 0.0,
               "mod_intertwine": 0.0, "energy_identity": 0.0}
        xr, yr = b.W.to_eig(np.stack([x, y]))
        dx, dy = b._delta(xr), b._delta(yr)
        scale = np.maximum(b.norm(dx) * np.linalg.norm(y, axis=(-2, -1)), 1e-300)
        lhs = b._delta(xr @ yr)
        rhs = xr[:, None] @ dy + dx @ yr[:, None]
        res["product_rule"] = worst(0.0, b.norm(lhs - rhs) / scale)

        rhs = b._delta(b.W.conj_eig(xr))
        res["conj_intertwine"] = worst(
            0.0, b.norm(b.conj(dx) - rhs) / np.maximum(b.norm(rhs), 1e-300))

        rhs = b._delta(b.W.sigma_eig(z, xr))
        res["mod_intertwine"] = worst(
            0.0, b.norm(b.mod_group(z, dx) - rhs) / np.maximum(b.norm(rhs), 1e-300))

        if form is not None:
            rhs_ip = form(x, y)
            res["energy_identity"] = worst(
                0.0, np.abs(b.inner(dx, dy) - rhs_ip)
                / np.maximum(np.abs(rhs_ip), 1.0))
        return res


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
