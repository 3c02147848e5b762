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
from .errors import GramNotPSD, NoSolution, NotGNSSymmetric, NotPSD, NotUCP
from .lindblad import DirichletForm, certify, semigroup
from .modular import TomitaData, WeightedAlgebra
from .numkernel import (Superoperator, as_cmatrix, choi, frob, herm_eig,
                        matrix_units, null_quotient)

__all__ = [
    "GramSpace",
    "StinespringBimodule",
    "gram_entry",
    "build_gram_space",
    "gram_axioms_check",
    "uniqueness_isometry",
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


def psi_functional(form: DirichletForm, a, b, c):
    """Step-3 style functional psi_a(b (x) c); equals <delta(a), [b(x)c]>."""
    td = TomitaData(form.W)
    c_flat = td.flat(c)
    return 0.5 * (
        form(a, b @ c)
        + form(a @ c_flat, b)
        - form(c_flat, td.sharp(a) @ b)
    )


@dataclass
class GramSpace:
    """Quotient realization of the reconstructed bimodule."""

    W: WeightedAlgebra
    form: DirichletForm
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
        """coeff(b (x) c) -> coeff(bc), the multiplication on unit pairs."""
        n = self.W.n
        n2 = n * n
        units = matrix_units(n)
        m = np.zeros((n2, n2 * n2), dtype=np.complex128)
        for p in range(n2):
            for q in range(n2):
                m[:, p * n2 + q] = _coeff(units[p] @ units[q])
        return m

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
        """Antilinear conjugation: y -> op_conj() @ conj(y)."""
        n = self.W.n
        n2 = n * n
        units = matrix_units(n)
        td = TomitaData(self.W)
        eye = np.eye(n, dtype=np.complex128)
        cols = np.zeros((n2 * n2, n2 * n2), dtype=np.complex128)
        for p in range(n2):
            ja = td.conj_J(units[p])
            for q in range(n2):
                jb = td.conj_J(units[q])
                cols[:, p * n2 + q] = np.kron(_coeff(jb @ ja), _coeff(eye)) - np.kron(
                    _coeff(jb), _coeff(ja)
                )
        return self._descend_antilinear(cols)

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
        raise ValueError(
            f"n = {n} exceeds the default spanning-set limit {_MAX_DEFAULT_DIM}; "
            "pass allow_large=True to override"
        )
    n2 = n * n
    units = matrix_units(n)
    td = TomitaData(w)
    hsq = w.h_sqrt
    me = form.matrix

    flats = [td.flat(u) for u in units]
    # products of units, CD[p, q] = units[p] @ units[q]
    cd = np.zeros((n2, n2, n, n), dtype=np.complex128)
    for p in range(n2):
        for q in range(n2):
            cd[p, q] = units[p] @ units[q]
    ucoords = np.array([w.coords(u) for u in units])  # (n2, n2)

    def coords_stack(mats):
        # vec(m @ h^{1/2}) for a stacked array of matrices, column-stacking
        mh = mats @ hsq
        return np.swapaxes(mh, -1, -2).reshape(*mats.shape[:-2], n2)

    gram = np.zeros((n2 * n2, n2 * n2), dtype=np.complex128)
    for p in range(n2):
        a = units[p]
        ca = ucoords[p]
        a_sharp = td.sharp(a)
        for q in range(n2):
            b = units[q]
            b_flat = flats[q]
            ab = a @ b
            # term 1: E(a, (c d) b^flat) over all (c, d)
            x1 = coords_stack(cd @ b_flat)
            t1 = np.einsum("i,ij,cdj->cd", ca.conj(), me, x1)
            # term 2: E(a b d^flat, c)
            y = coords_stack(np.stack([ab @ f for f in flats]))
            t2 = np.einsum("dj,ji,ci->cd", y.conj(), me, ucoords)
            # term 3: E(b d^flat, a^sharp c)
            zz = coords_stack(np.stack([b @ f for f in flats]))
            ac = coords_stack(np.stack([a_sharp @ c for c in units]))
            t3 = np.einsum("dj,ji,ci->cd", zz.conj(), me, ac)
            gram[p * n2 + q, :] = 0.5 * (t1 + t2 - t3).reshape(-1)
    gram = 0.5 * (gram + gram.conj().T)

    try:
        qmap = null_quotient(gram, eps_rel=tol.decomp, tol=tol)
    except NotPSD as exc:
        raise GramNotPSD(str(exc)) from exc
    return GramSpace(W=w, form=form, gram=gram, qmap=qmap)


def gram_axioms_check(g: GramSpace, n_samples=200, seed=29):
    """Tomita-bimodule axioms (a)-(f) for the quotient matrices."""
    rng = np.random.default_rng(seed)
    n = g.W.n
    td = TomitaData(g.W)
    res = {k: 0.0 for k in "abcdef"}
    if g.rank == 0:
        return res
    jq = g.op_conj()

    def rand_mat():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def rand_z():
        r = np.sqrt(rng.uniform())
        return r * np.exp(2j * np.pi * rng.uniform())

    for _ in range(n_samples):
        a = rand_mat()
        la = g.op_left(a)
        ra = g.op_right(a)
        z, z2 = rand_z(), rand_z()
        uz = g.op_group(z)
        scale_l = max(np.linalg.norm(la, 2), 1e-300)

        # (a) boundedness: |L(a)| <= |pi_l(a)| = |a|,
        # |R(a)| <= |pi_r(a)| = |h^{-1/2} a h^{1/2}|
        opn_l = float(np.linalg.norm(a, 2))
        opn_r = float(np.linalg.norm(g.W.h_isqrt @ a @ g.W.h_sqrt, 2))
        res["a"] = max(res["a"], (np.linalg.norm(la, 2) - opn_l) / opn_l,
                       (np.linalg.norm(ra, 2) - opn_r) / opn_r)
        # (b) J L(a) = R(Ja) J  (J antilinear: J L(a) y = jq conj(la) conj(y))
        rja = g.op_right(td.conj_J(a))
        res["b"] = max(res["b"],
                       np.linalg.norm(jq @ la.conj() - rja @ jq) / scale_l)
        # (c) group law
        res["c"] = max(res["c"], np.linalg.norm(
            g.op_group(z) @ g.op_group(z2) - g.op_group(z + z2))
            / max(np.linalg.norm(g.op_group(z + z2)), 1e-300))
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
    rank_b = null_quotient(gram_b, eps_rel=tol.decomp, tol=tol).rank
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

    def pairing(self, x, y):
        """(del x | del y) from the M-valued identity (1/2)((I-Phi)(x)*y +
        x*(I-Phi)(y) - (I-Phi)(x*y))."""
        x = as_cmatrix(x)
        y = as_cmatrix(y)
        ix = x - self.phi.apply(x)
        iy = y - self.phi.apply(y)
        ixy = x.conj().T @ y - self.phi.apply(x.conj().T @ y)
        return 0.5 * (ix.conj().T @ y + x.conj().T @ iy - ixy)

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
    m = w.op_matrix(phi.apply)
    if frob(m - m.conj().T) > 1e-8 * max(frob(m), 1e-300):
        raise NotGNSSymmetric("map is not self-adjoint for <.,.>_h")

    n2 = n * n
    units = matrix_units(n)
    # Phi(x_p* x_c) for all unit pairs
    phi_tab = np.zeros((n2, n2, n, n), dtype=np.complex128)
    for p in range(n2):
        for c in range(n2):
            phi_tab[p, c] = phi.apply(units[p].conj().T @ units[c])
    gram = np.zeros((n2 * n2, n2 * n2), dtype=np.complex128)
    h = w.h
    for p in range(n2):
        for q in range(n2):
            yp = units[q]
            # row over (c, d): (1/2) phi(y_p* Phi(x_p* x_c) y_d), phi = tr(. h)
            block = np.einsum(
                "crs,dsr->cd",
                yp.conj().T @ phi_tab[p],
                np.stack([u @ h for u in units]),
                optimize=True,
            )
            gram[p * n2 + q, :] = 0.5 * block.reshape(-1)
    gram = 0.5 * (gram + gram.conj().T)
    try:
        qmap = null_quotient(gram, eps_rel=tol.decomp, tol=tol)
    except NotPSD as exc:
        raise NotUCP(f"Stinespring Gram not PSD: {exc}") from exc
    return StinespringBimodule(phi=phi, W=w, gram=gram, qmap=qmap)


def stinespring_rate(l: Superoperator, w: WeightedAlgebra,
                     form: DirichletForm, ts=(1e-1, 1e-2, 1e-3)):
    """Deviation |E_t(a) - E(a)| over matrix units and its log-log slope.

    E_t(a) = (1/t) <a - P_t a, a>_h; both routes to E_t (direct, and
    phi((del a | del a))/t through the Stinespring bimodule of P_t) are
    evaluated and must agree.
    """
    units = matrix_units(w.n)
    devs = []
    route_gap = 0.0
    for t in ts:
        p_t = semigroup(l, t)
        sb = stinespring_route(p_t, w)
        worst = 0.0
        for a in units:
            direct = (w.inner(a - p_t.apply(a), a) / t).real
            via_pairing = (w.state(sb.pairing(a, a)) / t).real
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
