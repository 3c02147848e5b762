"""Rebuilding the bimodule and derivation from the Dirichlet form alone.

Gram route: on the algebraic tensor square spanned by all matrix-unit pairs
a_p (x) b_p, the inner product

  <a(x)b, c(x)d> = ( E(a, c d b^flat) + E(a b d^flat, c) - E(b d^flat, a^sharp c) ) / 2

is assembled from the form, the null space is quotiented away, and the
bimodule operations become matrices on the quotient:

  L(a)[b(x)c] = [ab(x)c] - [a(x)bc],   R(a)[b(x)c] = [b(x)ca],
  U_z[a(x)b]  = [U_z a (x) U_z b],     J[a(x)b] = [Jb.Ja (x) 1] - [Jb (x) Ja],
  delta(a)    = [a(x)1].

Stinespring route: the same space from a single unital CP GNS-symmetric map
Phi with Gram (1/2) sum y_j* Phi(x_j* x_k) y_k and boundary
del(x) = x(x)1 - 1(x)x; feeding Phi = P_t and scaling by 1/t recovers the
form at first order in t.
"""

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL
from .errors import (GramNotPSD, NoSolution, NotGNSSymmetric, NotPSD, NotUCP,
                     SizeLimitExceeded)
from .lindblad import DirichletForm, semigroup
from .modular import TomitaData, WeightedAlgebra
from .numkernel import (Superoperator, as_cmatrix, choi, frob, herm_eig,
                        matrix_units, null_quotient)
from .sampling import random_disk_point, random_matrix

__all__ = [
    "GramSpace",
    "StinespringBimodule",
    "gram_entry",
    "build_gram_space",
    "gram_axioms_check",
    "uniqueness_isometry",
    "boundary_pairing",
    "stinespring_route",
    "stinespring_rate",
    "rep_vector",
]

_MAX_DEFAULT_DIM = 4


def _coeff(x):
    """Matrix-unit coefficients of x (row-major, matching matrix_units order)."""
    return np.asarray(x, dtype=np.complex128).flatten(order="C")


def gram_entry(form: DirichletForm, a, b, c, d):
    """<a(x)b, c(x)d> from the form alone."""
    td = TomitaData(form.W)
    b_flat = td.flat(b)
    d_flat = td.flat(d)
    return 0.5 * (
        form(a, c @ d @ b_flat)
        + form(a @ b @ d_flat, c)
        - form(b @ d_flat, td.sharp(a) @ c)
    )


@dataclass
class GramSpace:
    """Quotient realization of the reconstructed bimodule."""

    W: WeightedAlgebra
    gram: np.ndarray      # n^4 x n^4 over unit pairs (p, q) at index p * n^2 + q
    qmap: object          # numkernel.QuotientMap

    # -- embeddings ------------------------------------------------------------

    @property
    def rank(self):
        return self.qmap.rank

    def pair_coeff(self, a, b):
        return np.kron(_coeff(a), _coeff(b))

    def embed_pair(self, a, b):
        """Quotient coordinates of the class [a (x) b]."""
        return self.qmap.coords(self.pair_coeff(a, b))

    def delta(self, a):
        eye = np.eye(self.W.n, dtype=np.complex128)
        return self.embed_pair(a, eye)

    def inner(self, x, y):
        return complex(np.vdot(x, y))

    # -- operators on the quotient ---------------------------------------------

    def _descend(self, coeff_matrix):
        return self.qmap.embed @ coeff_matrix @ self.qmap.lift

    def _descend_antilinear(self, coeff_matrix):
        # antilinear T: y -> M @ conj(y) with M below
        return self.qmap.embed @ coeff_matrix @ self.qmap.lift.conj()

    def _mult_map(self):
        """coeff(b (x) c) -> coeff(bc), the multiplication on unit pairs:
        E_ij E_kl = [j = k] E_il."""
        n = self.W.n
        eye = np.eye(n)
        return np.einsum("xi,jk,ly->xyijkl", eye, eye, eye).reshape(n * n, -1)

    def _op_coeff_left(self, a):
        n = self.W.n
        n2 = n * n
        return np.kron(np.kron(as_cmatrix(a), np.eye(n)), np.eye(n2)) - np.kron(
            _coeff(a).reshape(-1, 1), self._mult_map()
        )

    def _op_coeff_right(self, a):
        n = self.W.n
        n2 = n * n
        return np.kron(np.eye(n2), np.kron(np.eye(n), as_cmatrix(a).T))

    def op_left(self, a):
        """Matrix of L(a) on quotient coordinates."""
        return self._descend(self._op_coeff_left(a))

    def op_right(self, a):
        return self._descend(self._op_coeff_right(a))

    def op_group(self, z):
        hz = self.W.power(1j * z)
        hzi = self.W.power(-1j * z)
        f = np.kron(hz, hzi.T)  # row-major action m -> hz m hzi
        return self._descend(np.kron(f, f))

    def op_conj(self):
        """Antilinear conjugation: y -> op_conj() @ conj(y).

        Column (a, b) holds the coefficients of [Jb.Ja (x) 1] - [Jb (x) Ja],
        with J E_ij = h^{1/2} E_ji h^{-1/2} and Jb.Ja = J(ab).
        """
        n = self.W.n
        eye = np.eye(n)
        j_units = np.einsum("xj,iy->xyij", self.W.h_sqrt, self.W.h_isqrt)
        cols = (np.einsum("xyil,jk,uv->xyuvijkl", j_units, eye, eye)
                - np.einsum("xykl,uvij->xyuvijkl", j_units, j_units))
        return self._descend_antilinear(cols.reshape(n ** 4, n ** 4))

    # -- diagnostics -----------------------------------------------------------

    def well_definedness_residual(self, n_samples=20, seed=23):
        """Max change of quotient images when a representative is shifted by
        a random Gram-null vector (Step-7 well-definedness probe)."""
        null = self.qmap.null
        if null.shape[1] == 0:
            return 0.0
        rng = np.random.default_rng(seed)
        n2 = self.W.n ** 2
        units = matrix_units(self.W.n)
        worst = 0.0
        scale = np.sqrt(max(self.qmap.eigenvalues[0], 1e-300))
        for _ in range(n_samples):
            z = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(
                null.shape[1]
            )
            null_vec = null @ z
            nrm = max(np.linalg.norm(null_vec), 1e-300)
            # the class of the null vector is zero; so must be its images
            for op_coeff in (self._op_coeff_left, self._op_coeff_right):
                a = units[int(rng.integers(0, n2))]
                img = self.qmap.coords(op_coeff(a) @ null_vec)
                worst = max(worst, np.linalg.norm(img) / (nrm * scale))
            worst = max(
                worst,
                np.linalg.norm(self.qmap.coords(null_vec)) / (nrm * scale),
            )
        return worst


def build_gram_space(form: DirichletForm, w: WeightedAlgebra = None,
                     tol=DEFAULT_TOL, allow_large=False) -> GramSpace:
    """Assemble the n^4 Gram matrix over matrix-unit pairs and quotient it."""
    w = w if w is not None else form.W
    n = w.n
    if n > _MAX_DEFAULT_DIM and not allow_large:
        raise SizeLimitExceeded(
            f"n = {n} exceeds the default spanning-set limit {_MAX_DEFAULT_DIM}; "
            "pass allow_large=True to override"
        )
    # f[i,j,k,l] = E(E_ij, E_kl), from the form in vec coordinates
    eye = np.eye(n)
    to_coords = np.kron(w.h_sqrt.T, eye)
    f = to_coords.conj().T @ form.matrix @ to_coords
    f = f.reshape(n, n, n, n).transpose(1, 0, 3, 2)
    # units a = E_ij, b = E_kl, c = E_rs, d = E_tu; every term of the Gram
    # formula carries h[u, l] from d^flat = h E_ut h^{-1}:
    #   E(a, c d b^flat) = [s = t] h[u,l] E(E_ij, E_rk h^{-1}),
    #   E(a b d^flat, c) = [j = k] h[u,l] E(E_it h^{-1}, E_rs),
    #   E(b d^flat, a^sharp c) = [i = r] h[u,l] E(E_kt h^{-1}, E_js).
    e_right = np.einsum("ijrb,kb->ijkr", f, w.h_inv)
    e_left = np.einsum("xbys,bt->xtys", f, w.h_inv)
    terms = 0.5 * (np.einsum("ijkr,st->ijkrst", e_right, eye)
                   + np.einsum("jk,itrs->ijkrst", eye, e_left)
                   - np.einsum("ir,ktjs->ijkrst", eye, e_left))
    gram = np.einsum("ijkrst,ul->ijklrstu", terms, w.h).reshape(n ** 4, n ** 4)
    gram = 0.5 * (gram + gram.conj().T)

    try:
        qmap = null_quotient(gram, tol)
    except NotPSD as exc:
        raise GramNotPSD(str(exc)) from exc
    return GramSpace(W=w, gram=gram, qmap=qmap)


def gram_axioms_check(g: GramSpace, n_samples=200, seed=29):
    """Tomita-bimodule axioms (a)-(f) for the quotient matrices."""
    rng = np.random.default_rng(seed)
    n = g.W.n
    td = TomitaData(g.W)
    res = {k: 0.0 for k in "abcdef"}
    if g.rank == 0:
        return res
    jq = g.op_conj()
    for _ in range(n_samples):
        a = random_matrix(n, rng)
        la = g.op_left(a)
        ra = g.op_right(a)
        z, z2 = random_disk_point(rng), random_disk_point(rng)
        uz = g.op_group(z)
        norm_l = np.linalg.norm(la, 2)

        # (a) boundedness: |L(a)| <= |pi_l(a)| = |a|,
        # |R(a)| <= |pi_r(a)| = |h^{-1/2} a h^{1/2}|
        opn_l = float(np.linalg.norm(a, 2))
        opn_r = float(np.linalg.norm(g.W.h_isqrt @ a @ g.W.h_sqrt, 2))
        res["a"] = max(res["a"], (norm_l - opn_l) / opn_l,
                       (np.linalg.norm(ra, 2) - opn_r) / opn_r)
        # (b) J L(a) = R(Ja) J  (J antilinear: J L(a) y = jq conj(la) conj(y))
        rja = g.op_right(td.conj_J(a))
        res["b"] = max(res["b"], np.linalg.norm(jq @ la.conj() - rja @ jq)
                       / max(norm_l, 1e-300))
        # (c) group law
        uzz = g.op_group(z + z2)
        res["c"] = max(res["c"], np.linalg.norm(uz @ g.op_group(z2) - uzz)
                       / max(np.linalg.norm(uzz), 1e-300))
        # (d) adjoint relation U_z^* = U_{-conj(z)}
        res["d"] = max(res["d"], np.linalg.norm(
            uz.conj().T - g.op_group(-np.conj(z)))
            / max(np.linalg.norm(uz), 1e-300))
        # (e) U_z L(a) U_{-z} = L(U_z a)
        lhs = uz @ la @ g.op_group(-z)
        rhs = g.op_left(td.modular_group(z, a))
        res["e"] = max(res["e"], np.linalg.norm(lhs - rhs)
                       / max(np.linalg.norm(rhs), 1e-300))
        # (f) U_z J = J U_{conj(z)}  (compose with conjugation correctly)
        res["f"] = max(res["f"], np.linalg.norm(
            uz @ jq - jq @ g.op_group(np.conj(z)).conj())
            / max(np.linalg.norm(uz @ jq), 1e-300))
    return res


def uniqueness_isometry(g: GramSpace, bimodule, tol=DEFAULT_TOL):
    """Match the reconstructed Gram against the explicit bimodule pairing.

    The map R(b) delta_K(a) -> R(b) delta_B(a) on the common spanning set is
    isometric iff the two Gram matrices coincide; ranks must also agree.
    """
    span_g, _, _ = bimodule._span()
    gram_b = span_g.conj().T @ span_g
    scale = max(np.abs(g.gram).max(), np.abs(gram_b).max(), 1e-300)
    max_resid = float(np.abs(g.gram - gram_b).max())
    # the eigenvalues of gram_b are the squared singular values of the span
    sv = np.linalg.svd(span_g, compute_uv=False)
    rank_b = int(np.sum(sv ** 2 > tol.decomp * np.max(sv, initial=0.0) ** 2))
    return {
        "max_residual": max_resid,
        "relative_residual": max_resid / scale,
        "rank_gram": g.rank,
        "rank_bimodule": rank_b,
        "ranks_agree": g.rank == rank_b,
    }


# --- Stinespring route --------------------------------------------------------

@dataclass
class StinespringBimodule:
    phi: Superoperator
    W: WeightedAlgebra
    gram: np.ndarray
    qmap: object

    @property
    def rank(self):
        return self.qmap.rank

    def pair_coeff(self, x, y):
        return np.kron(_coeff(x), _coeff(y))

    def embed_pair(self, x, y):
        return self.qmap.coords(self.pair_coeff(x, y))

    def boundary(self, x):
        """del(x) = [x (x) 1] - [1 (x) x] in quotient coordinates."""
        eye = np.eye(self.W.n, dtype=np.complex128)
        return self.embed_pair(x, eye) - self.embed_pair(eye, x)

    def pairing_from_gram(self, x, y):
        """(del x | del y) expanded through the four-term Gram display."""
        x = as_cmatrix(x)
        y = as_cmatrix(y)
        eye = np.eye(self.W.n, dtype=np.complex128)
        terms = [(x, eye, 1.0), (eye, x, -1.0)]
        terms2 = [(y, eye, 1.0), (eye, y, -1.0)]
        out = np.zeros_like(x)
        for xa, ya, sa in terms:
            for xb, yb, sb in terms2:
                out += sa * sb * 0.5 * (
                    ya.conj().T @ self.phi.apply(xa.conj().T @ xb) @ yb
                )
        return out


def boundary_pairing(phi: Superoperator, x, y):
    """(del x | del y) in the Stinespring bimodule of Phi, from the M-valued
    identity (1/2)((I-Phi)(x)*y + x*(I-Phi)(y) - (I-Phi)(x*y)); it needs no
    Gram matrix."""
    x = as_cmatrix(x)
    y = as_cmatrix(y)
    ix = x - phi.apply(x)
    iy = y - phi.apply(y)
    ixy = x.conj().T @ y - phi.apply(x.conj().T @ y)
    return 0.5 * (ix.conj().T @ y + x.conj().T @ iy - ixy)


def stinespring_route(phi: Superoperator, w: WeightedAlgebra,
                      tol=DEFAULT_TOL) -> StinespringBimodule:
    """Gram space of a unital CP GNS-symmetric map."""
    n = w.n
    eye = np.eye(n, dtype=np.complex128)
    if w.norm(phi.apply(eye) - eye) > 1e-8:
        raise NotUCP("map is not unital")
    ch = choi(phi)
    ch_eig = herm_eig(0.5 * (ch + ch.conj().T), tol)
    if ch_eig.eigenvalues[0] < -tol.choi * max(ch_eig.eigenvalues[-1], 1.0):
        raise NotUCP(f"Choi matrix eigenvalue {ch_eig.eigenvalues[0]:.3e} < 0")
    m = w.op_matrix(phi)
    if frob(m - m.conj().T) > 1e-8 * max(frob(m), 1e-300):
        raise NotGNSSymmetric("map is not self-adjoint for <.,.>_h")

    # x_p = E_ij, y_q = E_kl, x_c = E_ab, y_d = E_gd: x_p* x_c = [i = a] E_jb
    # and (1/2) phi(E_lk Phi(E_jb) E_gd) = (1/2) Phi(E_jb)[k,g] h[d,l], where
    # Phi(E_jb)[k,g] = phi.matrix[g*n+k, b*n+j]
    gram = 0.5 * np.einsum("ia,gkbj,dl->ijklabgd", np.eye(n),
                           phi.matrix.reshape(n, n, n, n), w.h).reshape(n ** 4, n ** 4)
    gram = 0.5 * (gram + gram.conj().T)
    try:
        qmap = null_quotient(gram, tol)
    except NotPSD as exc:
        raise NotUCP(f"Stinespring Gram not PSD: {exc}") from exc
    return StinespringBimodule(phi=phi, W=w, gram=gram, qmap=qmap)


def stinespring_rate(l: Superoperator, w: WeightedAlgebra,
                     form: DirichletForm, ts=(1e-1, 1e-2, 1e-3)):
    """Deviation |E_t(a) - E(a)| over matrix units and its log-log slope.

    E_t(a) = (1/t) <a - P_t a, a>_h; both routes to E_t (direct, and
    phi((del a | del a))/t through the Stinespring bimodule of P_t) are
    evaluated and must agree.  The pairing is read off P_t alone, so the
    Stinespring quotient is never built here.
    """
    units = matrix_units(w.n)
    devs = []
    route_gap = 0.0
    for t in ts:
        p_t = semigroup(l, t)
        worst = 0.0
        for a in units:
            direct = (w.inner(a - p_t.apply(a), a) / t).real
            via_pairing = (w.state(boundary_pairing(p_t, a, a)) / t).real
            route_gap = max(route_gap, abs(direct - via_pairing))
            worst = max(worst, abs(direct - form(a, a).real))
        devs.append(worst)
    lt = np.log(np.asarray(ts))
    ld = np.log(np.maximum(np.asarray(devs), 1e-300))
    slope = float(np.polyfit(lt, ld, 1)[0])
    return {"ts": list(ts), "deviations": devs, "slope": slope,
            "route_gap": route_gap}


# --- representing vector ------------------------------------------------------

def rep_vector(bimodule, derivation, tol=DEFAULT_TOL):
    """Invariant representing vector of an (always inner) derivation.

    Minimal-norm solve of a xi - xi a = delta(a) over the matrix-unit basis,
    followed by discretized averaging over U_t, a global phase adjustment
    making the vector conjugation-fixed rather than anti-fixed, and the
    symmetrization (xi + conj(xi)) / 2.  The returned xi satisfies
    delta(a) = mu (a xi - xi a) for a unit scalar mu (recorded in the result
    of ``inner_derivation_generator`` only through |mu| = 1, so the rebuilt
    generator is phase-independent).
    """
    from .bimodule import BimoduleVector  # local import to avoid a cycle

    b = bimodule
    n, m = b.n, b.m
    if m == 0:
        return b.zero()
    n2 = n * n
    units = matrix_units(n)
    rows = []
    rhs = []
    eye = np.eye(n, dtype=np.complex128)
    for a in units:
        da = derivation(a)
        blk = np.kron(eye, a) - np.kron(a.T, eye)  # vec(a xi_j - xi_j a)
        for j in range(m):
            row = np.zeros((n2, m * n2), dtype=np.complex128)
            row[:, j * n2 : (j + 1) * n2] = blk
            rows.append(row)
            rhs.append(da.comps[j].flatten(order="F"))
    big = np.vstack(rows)
    target = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(big, target, rcond=None)
    resid = np.linalg.norm(big @ sol - target)
    if resid > 1e-8 * max(np.linalg.norm(target), 1e-300):
        raise NoSolution(f"inner-derivation solve residual {resid:.3e}")
    comps = np.array([
        sol[j * n2 : (j + 1) * n2].reshape((n, n), order="F") for j in range(m)
    ])
    xi = BimoduleVector(comps)

    # discretized group averaging (a no-op on the exact solution)
    avg = b.zero()
    t_grid = np.linspace(0.0, 1.5, 4)
    for t in t_grid:
        avg = avg + b.mod_group(t, xi)
    xi = (1.0 / len(t_grid)) * avg

    nrm2 = b.inner(xi, xi).real
    if nrm2 > 0:
        lam = b.inner(xi, b.conj_ambient(xi)) / nrm2
        if abs(abs(lam) - 1.0) < 1e-6:
            xi = np.sqrt(lam) * xi
    xi = 0.5 * (xi + b.conj_ambient(xi))
    return xi
