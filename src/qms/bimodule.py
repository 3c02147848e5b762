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
verifies numerically.  ``conj_display_residual`` compares against candidate
closed forms (see its docstring).
"""

import numpy as np

from .config import DEFAULT_TOL
from .errors import DimensionMismatch, NotInGeneratedSpan, NotInvariantVector
from .lindblad import DirichletForm, JumpSystem
from .modular import TomitaData
from .numkernel import Superoperator, matrix_units, unvec, vec
from .reconstruct import gram_entry
from .sampling import random_disk_point, random_matrix

__all__ = ["FinBimodule", "BimoduleVector", "Derivation",
           "inner_derivation_generator", "carre_du_champ"]


class BimoduleVector:
    """Element of H^{+m}: a stack of m matrices of size n x n."""

    def __init__(self, comps):
        comps = np.asarray(comps, dtype=np.complex128)
        if comps.ndim == 2:
            comps = comps[None, :, :]
        if comps.ndim != 3 or comps.shape[1] != comps.shape[2]:
            raise DimensionMismatch(f"bad component shape {comps.shape}")
        self.comps = comps

    @property
    def m(self):
        return self.comps.shape[0]

    @property
    def n(self):
        return self.comps.shape[1]

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
        self.pairing = list(system.pairing)
        self._span_cache = None

    # --- inner product and coordinates ---------------------------------------

    def inner(self, xi: BimoduleVector, eta: BimoduleVector) -> complex:
        acc = 0.0 + 0.0j
        for j in range(self.m):
            acc += np.trace(xi.comps[j].conj().T @ eta.comps[j] @ self.W.h)
        return complex(acc)

    def norm(self, xi):
        return float(np.sqrt(max(self.inner(xi, xi).real, 0.0)))

    def coords(self, xi: BimoduleVector):
        """Stacked orthonormal coordinates (componentwise vec(xi_j h^{1/2}))."""
        return np.concatenate(
            [vec(xi.comps[j] @ self.W.h_sqrt) for j in range(self.m)]
        ) if self.m else np.zeros(0, dtype=np.complex128)

    def from_coords(self, c):
        n2 = self.n * self.n
        comps = [
            unvec(c[j * n2 : (j + 1) * n2], self.n) @ self.W.h_isqrt
            for j in range(self.m)
        ]
        return BimoduleVector(np.array(comps)) if self.m else self.zero()

    def zero(self):
        return BimoduleVector(
            np.zeros((max(self.m, 1), self.n, self.n), dtype=np.complex128)
        )

    # --- actions and modular structure ---------------------------------------

    def act_left(self, a, xi: BimoduleVector) -> BimoduleVector:
        a = self.W._check(a)
        return BimoduleVector(np.einsum("rs,jsk->jrk", a, xi.comps))

    def act_right(self, a, xi: BimoduleVector) -> BimoduleVector:
        a = self.W._check(a)
        return BimoduleVector(np.einsum("jrs,sk->jrk", xi.comps, a))

    def mod_group(self, z, xi: BimoduleVector) -> BimoduleVector:
        left = self.W.power(1j * z)
        right = self.W.power(-1j * z)
        phases = np.exp(1j * self.omegas * z)
        comps = np.einsum(
            "j,rs,jsk,kl->jrl", phases, left, xi.comps, right
        ) if self.m else xi.comps
        return BimoduleVector(comps)

    def delta(self, a) -> BimoduleVector:
        """delta(a) = (i e^{-omega_j/4} [v_j, a])_j."""
        a = self.W._check(a)
        comps = np.zeros((max(self.m, 1), self.n, self.n), dtype=np.complex128)
        for j, (v, w) in enumerate(self.system.jumps):
            comps[j] = 1j * np.exp(-w / 4.0) * (v @ a - a @ v)
        return BimoduleVector(comps)

    # --- conjugation via generator forms --------------------------------------

    def _span(self):
        """Spanning family R(b_q) delta(a_p) over matrix-unit pairs.

        Returns (G, JG, pinv(G), singular values of G): column p * n^2 + q of
        G holds the coordinates of R(E_q) delta(E_p), and the same column of
        JG those of its image L(J E_q) delta(J E_p) under the abstract
        conjugation rule.
        """
        if self._span_cache is not None:
            return self._span_cache
        n, w = self.n, self.W
        units = matrix_units(n)
        j_units = np.einsum("xj,iy->ijxy", w.h_sqrt, w.h_isqrt).reshape(-1, n, n)
        jumps = np.array([v for v, _ in self.system.jumps]).reshape(-1, n, n)
        weights = 1j * np.exp(-self.omegas / 4.0)

        def deltas(mats):   # delta(a)_j for a stack of matrices, [a, j, r, s]
            return weights[:, None, None] * (
                np.einsum("jrs,asx->ajrx", jumps, mats)
                - np.einsum("ars,jsx->ajrx", mats, jumps))

        # coordinates vec(xi_j h^{1/2}), stacked over j, column-major per j
        g = np.einsum("pjrs,qsx,xt->jtrpq", deltas(units), units, w.h_sqrt,
                      optimize=True).reshape(self.m * n * n, n ** 4)
        jg = np.einsum("qrs,pjsx,xt->jtrpq", j_units, deltas(j_units), w.h_sqrt,
                       optimize=True).reshape(self.m * n * n, n ** 4)
        u, sv, vh = np.linalg.svd(g, full_matrices=False)
        keep = sv > 1e-10 * np.max(sv, initial=0.0)
        pinv = (vh[keep].conj().T / sv[keep]) @ u[:, keep].conj().T
        self._span_cache = (g, jg, pinv, sv)
        return self._span_cache

    def conj_ambient(self, xi: BimoduleVector) -> BimoduleVector:
        """Componentwise extension of the conjugation to all of H^{+m}:
        conj(xi)_j = J(xi_{j*}).  Agrees with the abstract generator-form
        map on the generated span (asserted by the test suite); used where a
        vector need not lie in that span (e.g. representing vectors)."""
        out = np.zeros_like(xi.comps)
        for j in range(self.m):
            out[j] = self.tomita.conj_J(xi.comps[self.pairing[j]])
        return BimoduleVector(out) if self.m else xi

    def conj(self, xi: BimoduleVector) -> BimoduleVector:
        """Antilinear conjugation, extended to the generated span."""
        g, jg, pinv, _ = self._span()
        c = self.coords(xi)
        coeff = pinv @ c
        resid = float(np.linalg.norm(g @ coeff - c))
        scale = max(float(np.linalg.norm(c)), 1e-300)
        if resid > self.tol.span * scale:
            raise NotInGeneratedSpan(resid / scale, self.tol.span)
        return self.from_coords(jg @ coeff.conj())

    def conj_display_residual(self, sign=-1, n_samples=20, seed=7):
        """Compare the abstract conjugation with the closed-form candidate

            conj(xi)_j = h^{1/2} (b* [v_{j*}, a]*) h^{sign/2}

        on vectors xi = ([v_j, a] b)_j.  ``sign=+1`` is the symmetric-weight
        variant, ``sign=-1`` the one matching J(x) = h^{1/2} x* h^{-1/2}.
        Returns the max relative deviation from the abstract map.
        """
        rng = np.random.default_rng(seed)
        hr = self.W.h_sqrt if sign > 0 else self.W.h_isqrt
        worst = 0.0
        for _ in range(n_samples):
            a, b = random_matrix(self.n, rng), random_matrix(self.n, rng)
            comps = np.zeros((self.m, self.n, self.n), dtype=np.complex128)
            for j, (v, _) in enumerate(self.system.jumps):
                comps[j] = (v @ a - a @ v) @ b
            xi = BimoduleVector(comps)
            abstract = self.conj(xi)
            cand = np.zeros_like(comps)
            for j in range(self.m):
                vjs = self.system.jumps[self.pairing[j]][0]
                comm = vjs @ a - a @ vjs
                cand[j] = self.W.h_sqrt @ (b.conj().T @ comm.conj().T) @ hr
            diff = self.norm(abstract - BimoduleVector(cand))
            worst = max(worst, diff / max(self.norm(xi), 1e-300))
        return worst

    # --- axiom checker ---------------------------------------------------------

    def axioms_check(self, n_vectors=200, seed=11):
        """One residual per Tomita-bimodule axiom (a)-(f).

        Test vectors are random generator-form combinations; z samples are
        drawn from the disk |z| <= 1.  Axiom (e) is evaluated in the form
        U_z(delta(a) b) = delta(U_z a) U_z b: given (a)-(d) exact by
        construction, the covariance of the generator family is the only
        content of (e) that the concrete model can violate (a wrong stored
        weight shows up here and nowhere else).
        """
        rng = np.random.default_rng(seed)
        res = {k: 0.0 for k in "abcdef"}
        if self.m == 0:
            return res
        n = self.n
        mg = self.tomita.modular_group
        for _ in range(n_vectors):
            a, b = random_matrix(n, rng), random_matrix(n, rng)
            xi = self.act_right(b, self.delta(a))
            eta = self.act_right(random_matrix(n, rng),
                                 self.delta(random_matrix(n, rng)))
            z = random_disk_point(rng)
            norm_xi = self.norm(xi)
            nrm_xi = max(norm_xi, 1e-300)
            nrm_eta = max(self.norm(eta), 1e-300)

            # (a) boundedness: |L(c)| <= |pi_l(c)| = |c| and
            # |R(c)| <= |pi_r(c)| = |h^{-1/2} c h^{1/2}| (right GNS action norm)
            c = random_matrix(n, rng)
            opn_l = float(np.linalg.norm(c, 2))
            opn_r = float(np.linalg.norm(
                self.W.h_isqrt @ c @ self.W.h_sqrt, 2))
            res["a"] = max(
                res["a"],
                (self.norm(self.act_left(c, xi)) - opn_l * norm_xi) / nrm_xi,
                (self.norm(self.act_right(c, xi)) - opn_r * norm_xi) / nrm_xi,
            )

            # (b) conj L(a) = R(Ja) conj
            lhs = self.conj(self.act_left(c, xi))
            conj_xi = self.conj(xi)
            rhs = self.act_right(self.tomita.conj_J(c), conj_xi)
            res["b"] = max(res["b"], self.norm(lhs - rhs) / (opn_l * nrm_xi))

            # (c) analyticity proxy: group law of z -> U_z
            z2 = random_disk_point(rng)
            lhs = self.mod_group(z, self.mod_group(z2, xi))
            rhs = self.mod_group(z + z2, xi)
            res["c"] = max(res["c"], self.norm(lhs - rhs) / nrm_xi)

            # (d) <xi, U_z eta> = <U_{-conj(z)} xi, eta>
            lhs_ip = self.inner(xi, self.mod_group(z, eta))
            rhs_ip = self.inner(self.mod_group(-np.conj(z), xi), eta)
            res["d"] = max(res["d"], abs(lhs_ip - rhs_ip) / (nrm_xi * nrm_eta))

            # (e) U_z L(a) U_{-z} = L(U_z a) on generators:
            #     U_z(delta(a) b) = delta(U_z a) U_z b
            lhs = self.mod_group(z, xi)
            rhs = self.act_right(mg(z, b), self.delta(mg(z, a)))
            res["e"] = max(res["e"], self.norm(lhs - rhs) / nrm_xi)

            # (f) U_z conj = conj U_{conj(z)}
            lhs = self.mod_group(z, conj_xi)
            rhs = self.conj(self.mod_group(np.conj(z), xi))
            res["f"] = max(res["f"], self.norm(lhs - rhs) / nrm_xi)
        return res


class Derivation:
    """delta of a FinBimodule together with its self-checks."""

    def __init__(self, bimodule: FinBimodule):
        self.B = bimodule

    def __call__(self, a):
        return self.B.delta(a)

    def check(self, form: DirichletForm = None, n_samples=100, seed=13):
        """Residuals: product rule, conj/delta and U_z/delta intertwining,
        energy identity against the Dirichlet form (if given)."""
        b = self.B
        rng = np.random.default_rng(seed)
        n = b.n
        res = {"product_rule": 0.0, "conj_intertwine": 0.0,
               "mod_intertwine": 0.0, "energy_identity": 0.0}
        for _ in range(n_samples):
            x, y = random_matrix(n, rng), random_matrix(n, rng)
            dx, dy = b.delta(x), b.delta(y)
            scale = max(b.norm(dx) * np.linalg.norm(y), 1e-300)
            lhs = b.delta(x @ y)
            rhs = b.act_left(x, dy) + b.act_right(y, dx)
            res["product_rule"] = max(res["product_rule"], b.norm(lhs - rhs) / scale)

            lhs = b.conj(dx)
            rhs = b.delta(b.tomita.conj_J(x))
            res["conj_intertwine"] = max(
                res["conj_intertwine"], b.norm(lhs - rhs) / max(b.norm(rhs), 1e-300)
            )

            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            lhs = b.mod_group(z, dx)
            rhs = b.delta(b.tomita.modular_group(z, x))
            res["mod_intertwine"] = max(
                res["mod_intertwine"], b.norm(lhs - rhs) / max(b.norm(rhs), 1e-300)
            )

            if form is not None:
                lhs_ip = b.inner(dx, dy)
                rhs_ip = form(x, y)
                res["energy_identity"] = max(
                    res["energy_identity"],
                    abs(lhs_ip - rhs_ip) / max(abs(rhs_ip), 1.0),
                )
        return res

    def twisted_rule_residual(self, n_samples=50, seed=17):
        """Residual of the twisted product rule in correspondence form.

        With the right action of the ambient algebra on the bimodule given by
        xi . y = xi sigma_{-i/2}(y) (the normal right action on L_2 copies),
        the derivation satisfies

            delta(xy) = x delta(y) + delta(x) . sigma_{i/2}(y),

        which is the componentwise form the abstract twisted rule takes here;
        the half-step twists cancel against the action's own twist.
        """
        b = self.B
        rng = np.random.default_rng(seed)
        n = b.n
        worst = 0.0
        for _ in range(n_samples):
            x, y = random_matrix(n, rng), random_matrix(n, rng)
            lhs = b.delta(x @ y)
            sig_y = b.tomita.modular_group(0.5j, y)
            # right action of sigma_{i/2}(y) as correspondence action:
            # plain right multiplication by sigma_{-i/2}(sigma_{i/2}(y)) = y
            twist = b.act_right(
                b.tomita.modular_group(-0.5j, sig_y), b.delta(x)
            )
            rhs = b.act_left(x, b.delta(y)) + twist
            scale = max(b.norm(lhs), 1e-300)
            worst = max(worst, b.norm(lhs - rhs) / scale)
        return worst


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
    """
    w = form.W
    n = w.n
    a = w._check(a)
    b = w._check(b)
    eye = np.eye(n, dtype=np.complex128)
    m = np.array([gram_entry(form, a, eye, b, e) for e in matrix_units(n)])
    return w.h_isqrt @ m.reshape(n, n).T @ w.h_isqrt
