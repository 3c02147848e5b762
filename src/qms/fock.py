"""Truncated Fock-space realization over finite-dimensional correspondences.

A correspondence here is a finite-dimensional Hilbert space with commuting
normal left/right actions of (M_n, phi), optionally carrying a Tomita
structure (antiunitary conjugation and one-parameter group).  The full Fock
space

  F(H) = L2(M, phi) (+) H (+) H (x)_phi H (+) ...

is truncated at a maximal depth; creation from the top layer maps to zero,
so every identity is checked only on layers inside its declared safe zone.
Operators are applied layer block by layer block: a creation operator maps
layer k to layer k + 1 by a reshape and one einsum, and the checks read only
the coordinates they need (the safe columns of [s, t], layer 0 of pi_l(x)
Omega); the dense D x D matrices are assembled from the same blocks.

``TruncatedFock`` takes H = C^m (x) L2(M, phi), the form of every jump
correspondence.  Layer k is then C^{m^k} (x) L2(M) in closed form:
(e_i (x) X) (x)_phi (e_j (x) Y) -> e_i (x) e_j (x) X h^{-1/2} Y on coordinate
matrices X = x h^{1/2}.  ``rel_tensor`` is the general Gram-quotient route
and serves as a cross-check of that identification.

The scalar case M = C (``ScalarFock``, n = 1) recovers free Araki-Woods:
layers are plain tensor powers, the modular group acts as (V_{-t})^{(x)n}
with V_t = A^{it}, the number operator generates the Ornstein-Uhlenbeck
semigroup, and Wick words reconstruct vectors from polynomials in the field
operators s(e_k).
"""

import functools

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL
from .errors import (AlgebraMismatch, DimensionMismatch, NotFixedPoint,
                     NotPositiveDefinite, NotRepresentable, SizeLimitExceeded)
from .modular import TomitaData, WeightedAlgebra
from .numkernel import as_cmatrix, herm_eig, matrix_units, null_quotient
from .sampling import random_matrix

__all__ = [
    "Correspondence",
    "l2_correspondence",
    "weighted_sum_correspondence",
    "correspondence_from_jumps",
    "validate_correspondence",
    "left_bounded_map",
    "mvalued_pairing",
    "rel_tensor",
    "unit_law_residuals",
    "assoc_residual",
    "TruncatedFock",
    "fock_build",
    "ScalarFock",
    "free_aw",
    "wick",
]


# bytes one array of the scalar model may take
_MAX_SCALAR_FOCK_BYTES = 1 << 27
# bytes one array of a TruncatedFock check may take
_MAX_FOCK_CHECK_BYTES = 1 << 27


def _scalar_fock_bytes(d, depth):
    """Bytes of the largest complex arrays of the scalar model over C^d: the
    D x D matrices with D = 1 + d + ... + d^depth, and delta of a top-layer
    vector, (2d)^depth entries."""
    dim = sum(d ** k for k in range(depth + 1))
    return 16 * max(dim * dim, (2 * d) ** depth)


def _transpose_perm(n):
    """Permutation matrix T with T vec(m) = vec(m^T) (column-stacking)."""
    t = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            t[j * n + i, i * n + j] = 1.0
    return t


def _antilinear_fixed_basis(a):
    """Real-orthonormal basis of {xi in C^d : A conj(xi) = xi}."""
    d = len(a)
    # A conj(u + iv) = A u - i A v; solve A conj(xi) = xi
    ar, ai = a.real, a.imag
    eye = np.eye(d)
    big = np.block([[ar - eye, ai], [ai, -ar - eye]])
    _, sv, vt = np.linalg.svd(big)
    rank = int(np.sum(sv > np.max(sv, initial=1.0) * 1e-10))
    null = vt.T[:, rank:]
    vecs = [null[:d, k] + 1j * null[d:, k] for k in range(null.shape[1])]
    return [v for v in vecs if np.linalg.norm(v) > 1e-8]


class Correspondence:
    """Hilbert space with left/right (M, phi)-actions in orthonormal coords.

    ``left``/``right`` return matrices; the right action is a *-representation
    of the opposite algebra (anti-multiplicative).  If present, the Tomita
    structure consists of ``group_gen`` (Hermitian G with U_z = exp(izG),
    entire in z) and ``conj_mat`` (the antiunitary conjugation applied as
    xi -> conj_mat @ conj(xi)).
    """

    def __init__(self, w, d, left, right, group_gen=None, conj_mat=None,
                 label=""):
        self.W = w
        self.d = d
        self.left = left
        self.right = right
        self.group_gen = group_gen
        self.conj_mat = conj_mat
        self.label = label
        self.qmap = None       # set for relative tensor products

    def group(self, z):
        if self.group_gen is None:
            raise NotFixedPoint("correspondence has no Tomita structure")
        return scipy.linalg.expm(1j * z * self.group_gen)

    def conj_apply(self, xi):
        if self.conj_mat is None:
            raise NotFixedPoint("correspondence has no Tomita structure")
        return self.conj_mat @ np.conj(xi)

    @functools.cached_property
    def _s0_mat(self):
        """A with S_0 xi = A conj(xi)."""
        return self.conj_apply(self.group(-0.5j))

    @functools.cached_property
    def _f0_mat(self):
        """A with F_0 xi = A conj(xi)."""
        return self.conj_apply(self.group(0.5j))

    def s0(self, xi):
        """S_0 xi = J U_{-i/2} xi (antilinear)."""
        return self._s0_mat @ np.conj(xi)

    def f0(self, xi):
        """F_0 xi = J U_{i/2} xi (antilinear)."""
        return self._f0_mat @ np.conj(xi)

    def s_fixed_basis(self):
        return _antilinear_fixed_basis(self._s0_mat)

    def f_fixed_basis(self):
        return _antilinear_fixed_basis(self._f0_mat)


def l2_correspondence(w: WeightedAlgebra) -> Correspondence:
    """L2(M, phi) itself, coordinates vec(x h^{1/2})."""
    n = w.n
    eye = np.eye(n)
    logh = w.eig.eigenvectors @ np.diag(np.log(w.eig.eigenvalues)) \
        @ w.eig.eigenvectors.conj().T

    def left(x):
        return np.kron(eye, as_cmatrix(x))

    def right(y):
        # module action x -> x sigma_{-i/2}(y): coords multiply by y on the
        # right of x h^{1/2}
        return np.kron(as_cmatrix(y).T, eye)

    g = np.kron(eye, logh) - np.kron(logh.T, eye)
    return Correspondence(w, n * n, left, right, group_gen=g,
                          conj_mat=_transpose_perm(n).astype(np.complex128),
                          label="L2")


def weighted_sum_correspondence(w: WeightedAlgebra, omegas, pairing=None
                                ) -> Correspondence:
    """Direct sum of copies of L2(M, phi) with modular weights omega_j.

    The group acts as e^{i omega_j z} on copy j (on top of the modular
    group), and the conjugation maps copy j to its partner pairing[j]
    (default: self-paired, requiring omega_j = 0 for exactness only when
    used; the jump-system constructor supplies the correct pairing).
    """
    base = l2_correspondence(w)
    m = len(omegas)
    if pairing is None:
        pairing = list(range(m))
    eye_m = np.eye(m)

    def left(x):
        return np.kron(eye_m, base.left(x))

    def right(y):
        return np.kron(eye_m, base.right(y))

    g = np.kron(np.diag(np.asarray(omegas, dtype=float)),
                np.eye(base.d)) + np.kron(eye_m, base.group_gen)
    conj = np.zeros((m * base.d, m * base.d), dtype=np.complex128)
    for j in range(m):
        conj[j * base.d:(j + 1) * base.d,
             pairing[j] * base.d:(pairing[j] + 1) * base.d] = base.conj_mat
    c = Correspondence(w, m * base.d, left, right, group_gen=g,
                       conj_mat=conj, label=f"L2^{m}")
    c.omegas = list(omegas)
    c.pairing = list(pairing)
    return c


def correspondence_from_jumps(system) -> Correspondence:
    """The explicit bimodule of a jump system as a Tomita correspondence."""
    omegas = [om for _, om in system.jumps]
    return weighted_sum_correspondence(system.W, omegas, system.pairing)


def plain_right(c: Correspondence, x):
    """Plain right multiplication xi -> xi . x; equals right(sigma_{i/2}(x)).

    The module action ``right`` carries a half-twist (it is J pi_r(x)* J on
    each L2 component); composing with sigma_{i/2} undoes it, giving the
    operator that intertwines the right actions of L2 and the carrier.
    """
    return c.right(TomitaData(c.W).modular_group(0.5j, x))


def left_bounded_map(c: Correspondence, xi):
    """Matrix of L_phi(xi): L2(M, phi) -> carrier, x phi^{1/2} -> xi . x."""
    w = c.W
    n2 = w.n * w.n
    out = np.zeros((c.d, n2), dtype=np.complex128)
    basis = np.eye(n2, dtype=np.complex128)
    for k in range(n2):
        out[:, k] = plain_right(c, w.from_coords(basis[:, k])) @ xi
    return out


def mvalued_pairing(c: Correspondence, xi, eta, return_residual=False):
    """(xi|eta) in M: L_phi(xi)^* L_phi(eta) projected onto left
    multiplications; the projection residual certifies membership in M."""
    n = c.W.n
    x = left_bounded_map(c, xi).conj().T @ left_bounded_map(c, eta)
    blocks = x.reshape(n, n, n, n)  # kron(I, m): [i, k, j, l] = delta_ij m_kl
    m = np.einsum("ikil->kl", blocks) / n
    if not return_residual:
        return m
    resid = np.linalg.norm(x - np.kron(np.eye(n), m)) / max(
        np.linalg.norm(x), 1e-300)
    return m, resid


def validate_correspondence(c: Correspondence, n_samples=25, seed=31):
    """Residuals for the correspondence contracts (and Tomita axioms)."""
    rng = np.random.default_rng(seed)
    n = c.W.n
    res = {"commute": 0.0, "left_star": 0.0, "right_star": 0.0,
           "left_mult": 0.0, "right_antimult": 0.0, "unital": 0.0,
           "pairing_in_m": 0.0}
    eye = np.eye(n)
    res["unital"] = max(
        np.linalg.norm(c.left(eye) - np.eye(c.d)),
        np.linalg.norm(c.right(eye) - np.eye(c.d)),
    )
    has_tomita = c.group_gen is not None and c.conj_mat is not None
    if has_tomita:
        res.update({"tomita_conj": 0.0, "tomita_group": 0.0,
                    "tomita_jcommute": 0.0})
    for _ in range(n_samples):
        x, y = random_matrix(n, rng), random_matrix(n, rng)
        lx, ry = c.left(x), c.right(y)
        scale = max(np.linalg.norm(lx) * np.linalg.norm(ry), 1e-300)
        res["commute"] = max(res["commute"],
                             np.linalg.norm(lx @ ry - ry @ lx) / scale)
        res["left_star"] = max(res["left_star"], np.linalg.norm(
            lx.conj().T - c.left(x.conj().T)) / max(np.linalg.norm(lx), 1e-300))
        res["right_star"] = max(res["right_star"], np.linalg.norm(
            ry.conj().T - c.right(y.conj().T)) / max(np.linalg.norm(ry), 1e-300))
        res["left_mult"] = max(res["left_mult"], np.linalg.norm(
            c.left(x @ y) - c.left(x) @ c.left(y)) / scale)
        res["right_antimult"] = max(res["right_antimult"], np.linalg.norm(
            c.right(x @ y) - c.right(y) @ c.right(x)) / scale)
        xi = rng.standard_normal(c.d) + 1j * rng.standard_normal(c.d)
        _, pr = mvalued_pairing(c, xi, xi, return_residual=True)
        res["pairing_in_m"] = max(res["pairing_in_m"], pr)
        if has_tomita:
            td = TomitaData(c.W)
            t = rng.uniform(-1.5, 1.5)
            ut = c.group(t)
            nrm = max(np.linalg.norm(xi), 1e-300)
            # (a) J(x xi y) = y* (J xi) x*
            lhs = c.conj_apply(lx @ ry @ xi)
            rhs = c.left(y.conj().T) @ c.right(x.conj().T) @ c.conj_apply(xi)
            res["tomita_conj"] = max(res["tomita_conj"], np.linalg.norm(
                lhs - rhs) / (np.linalg.norm(x, 2) * np.linalg.norm(y, 2) * nrm))
            # (b) U_t(x xi y) = sigma_t(x) (U_t xi) sigma_t(y)
            lhs = ut @ lx @ ry @ xi
            rhs = c.left(td.modular_group(t, x)) @ c.right(
                td.modular_group(t, y)) @ ut @ xi
            res["tomita_group"] = max(res["tomita_group"], np.linalg.norm(
                lhs - rhs) / (np.linalg.norm(x, 2) * np.linalg.norm(y, 2) * nrm))
            # (c) J U_t = U_t J for real t
            lhs = c.conj_apply(ut @ xi)
            rhs = ut @ c.conj_apply(xi)
            res["tomita_jcommute"] = max(res["tomita_jcommute"],
                                         np.linalg.norm(lhs - rhs) / nrm)
    return res


def _pairing_table(c: Correspondence):
    """(e_i | e_j) in M for the coordinate basis; flattened coefficients."""
    n = c.W.n
    n2 = n * n
    lmaps = np.zeros((c.d, n2, c.d), dtype=np.complex128)  # [:, k, i]
    basis = np.eye(n2, dtype=np.complex128)
    rights = [plain_right(c, c.W.from_coords(basis[:, k])) for k in range(n2)]
    for k in range(n2):
        lmaps[:, k, :] = rights[k]
    # L_i = lmaps[:, :, i]; X_ij = L_i^* L_j
    x_all = np.einsum("aki,alj->ijkl", lmaps.conj(), lmaps)
    blocks = x_all.reshape(c.d, c.d, n, n, n, n)
    return np.einsum("ijakal->ijkl", blocks) / n  # (i, j, n, n)


def rel_tensor(c1: Correspondence, c2: Correspondence, tol=DEFAULT_TOL
               ) -> Correspondence:
    """Relative tensor product H (x)_phi K over the common algebra."""
    if c1.W.n != c2.W.n or np.linalg.norm(c1.W.h - c2.W.h) > 1e-12:
        raise AlgebraMismatch("correspondences live over different algebras")
    w = c1.W
    n = w.n
    tab = _pairing_table(c1)          # (d1, d1, n, n)
    units_left = np.stack([
        c2.left(u) for u in matrix_units(n)
    ])                                 # (n^2, d2, d2)
    coeffs = tab.reshape(c1.d, c1.d, n * n)
    gram = np.einsum("ikU,Uab->iakb", coeffs, units_left,
                     optimize=True).reshape(c1.d * c2.d, c1.d * c2.d)
    gram = 0.5 * (gram + gram.conj().T)
    qmap = null_quotient(gram, tol)

    def left(x):
        return qmap.embed @ np.kron(c1.left(x), np.eye(c2.d)) @ qmap.lift

    def right(y):
        return qmap.embed @ np.kron(np.eye(c1.d), c2.right(y)) @ qmap.lift

    g = None
    if c1.group_gen is not None and c2.group_gen is not None:
        g_pair = np.kron(c1.group_gen, np.eye(c2.d)) + np.kron(
            np.eye(c1.d), c2.group_gen)
        g = qmap.embed @ g_pair @ qmap.lift
        g = 0.5 * (g + g.conj().T)
    out = Correspondence(w, qmap.rank, left, right, group_gen=g,
                         label=f"({c1.label})(x)({c2.label})")
    out.qmap = qmap
    return out


def embed_pair(t: Correspondence, xi, eta):
    """Quotient coordinates of xi (x) eta in a rel_tensor product."""
    if t.qmap is None:
        raise DimensionMismatch("not a relative tensor product")
    return t.qmap.coords(np.kron(xi, eta))


def unit_law_residuals(c: Correspondence, tol=DEFAULT_TOL):
    """Isometry defect of L2 (x)_phi H ~ H and H (x)_phi L2 ~ H."""
    w = c.W
    l2 = l2_correspondence(w)
    n2 = l2.d
    basis_l2 = np.eye(n2, dtype=np.complex128)
    basis_h = np.eye(c.d, dtype=np.complex128)

    lt = rel_tensor(l2, c, tol)
    worst_l = 0.0
    for i in range(n2):
        x = w.from_coords(basis_l2[:, i])
        for j in range(c.d):
            v = embed_pair(lt, basis_l2[:, i], basis_h[:, j])
            img = c.left(x) @ basis_h[:, j]
            for i2 in range(n2):
                x2 = w.from_coords(basis_l2[:, i2])
                for j2 in range(c.d):
                    v2 = embed_pair(lt, basis_l2[:, i2], basis_h[:, j2])
                    img2 = c.left(x2) @ basis_h[:, j2]
                    worst_l = max(worst_l, abs(np.vdot(v, v2)
                                               - np.vdot(img, img2)))

    rt = rel_tensor(c, l2, tol)
    worst_r = 0.0
    for i in range(c.d):
        for j in range(n2):
            x = w.from_coords(basis_l2[:, j])
            v = embed_pair(rt, basis_h[:, i], basis_l2[:, j])
            img = plain_right(c, x) @ basis_h[:, i]
            for i2 in range(c.d):
                for j2 in range(n2):
                    x2 = w.from_coords(basis_l2[:, j2])
                    v2 = embed_pair(rt, basis_h[:, i2], basis_l2[:, j2])
                    img2 = plain_right(c, x2) @ basis_h[:, i2]
                    worst_r = max(worst_r, abs(np.vdot(v, v2)
                                               - np.vdot(img, img2)))
    return {"left_unit": worst_l, "right_unit": worst_r,
            "left_rank": (lt.d, c.d), "right_rank": (rt.d, c.d)}


def assoc_residual(c1, c2, c3, tol=DEFAULT_TOL, n_samples=40, seed=37):
    """Gram mismatch between (C1 (x) C2) (x) C3 and C1 (x) (C2 (x) C3)."""
    t12 = rel_tensor(c1, c2, tol)
    ta = rel_tensor(t12, c3, tol)
    t23 = rel_tensor(c2, c3, tol)
    tb = rel_tensor(c1, t23, tol)
    rng = np.random.default_rng(seed)
    worst = 0.0
    samples = []
    for _ in range(n_samples):
        x1 = rng.standard_normal(c1.d) + 1j * rng.standard_normal(c1.d)
        x2 = rng.standard_normal(c2.d) + 1j * rng.standard_normal(c2.d)
        x3 = rng.standard_normal(c3.d) + 1j * rng.standard_normal(c3.d)
        va = embed_pair(ta, embed_pair(t12, x1, x2), x3)
        vb = embed_pair(tb, x1, embed_pair(t23, x2, x3))
        samples.append((va, vb))
    for va, vb in samples:
        for va2, vb2 in samples:
            scale = max(abs(np.vdot(va, va2)), abs(np.vdot(vb, vb2)), 1.0)
            worst = max(worst, abs(np.vdot(va, va2) - np.vdot(vb, vb2)) / scale)
    return {"residual": worst, "rank_left": ta.d, "rank_right": tb.d}


class TruncatedFock:
    """L2 (+) H (+) ... (+) H^{(x)_phi d_max} with block operators.

    H must be C^m (x) L2(M, phi), the componentwise sum of m copies of L2
    (as built by ``weighted_sum_correspondence``).  With X = x h^{1/2} the
    coordinate matrix of an L2 vector, the unitary

      (e_i (x) X) (x)_phi (e_j (x) Y) -> e_i (x) e_j (x) X h^{-1/2} Y

    identifies layer k with C^{m^k} (x) L2(M), of dimension m^k n^2, so no
    layer needs a Gram quotient.  With lambda(B) = kron(I_n, B) and
    rho(B) = kron(B^T, I_n), the blocks from layer k to layer k + 1 are

      a(xi) = sum_j e_j (x) I_{m^k} (x) lambda(X_j h^{-1/2}),
      b(xi) = I_{m^k} (x) sum_j e_j (x) rho(h^{-1/2} X_j),

    and M acts on layer k as I_{m^k} (x) lambda(x).  Creation from the top
    layer is truncated to zero; the safe zone of an operator product of total
    layer shift s is the set of layers <= d_max - s.
    """

    def __init__(self, h: Correspondence, d_max, tol=DEFAULT_TOL):
        n = h.W.n
        m = h.d // (n * n)
        l2 = l2_correspondence(h.W)
        eye_m = np.eye(m)
        if h.d != m * n * n or any(
                np.linalg.norm(act(u) - np.kron(eye_m, base(u))) > tol.check
                for u in matrix_units(n)
                for act, base in ((h.left, l2.left), (h.right, l2.right))):
            raise DimensionMismatch(
                f"Fock layers need a correspondence C^m (x) L2(M_{n}, phi); "
                f"got one of dimension {h.d} that is not of this form")
        self.H = h
        self.W = h.W
        self.m = m
        self.d_max = int(d_max)
        self.tol = tol
        self.dims = [m ** k * n * n for k in range(self.d_max + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.D = int(self.offsets[-1])
        # the last nonzero layer: with m = 0 (H = 0) every layer above L2(M)
        # is empty
        self._top = self.d_max if m else 0

    # -- vectors ---------------------------------------------------------------

    def vacuum(self):
        v = np.zeros(self.D, dtype=np.complex128)
        v[: self.dims[0]] = self.W.coords(np.eye(self.W.n))
        return v

    def inject(self, layer, vec):
        out = np.zeros(self.D, dtype=np.complex128)
        o = self.offsets[layer]
        out[o : o + self.dims[layer]] = vec
        return out

    def layer_block(self, full_vec, layer):
        o = self.offsets[layer]
        return full_vec[o : o + self.dims[layer]]

    def safe_projector(self, max_layer):
        p = np.zeros(self.D)
        p[: self.offsets[max_layer + 1]] = 1.0
        return np.diag(p)

    # -- operators, applied layer block by layer block ------------------------
    #
    # A column stack holds the coordinates of layers 0..L of some vectors:
    # its rows are offsets[0]..offsets[L + 1], one column per vector.

    def _coord_mats(self, xi):
        """X_j: the coordinate matrices of the m L2 components of xi."""
        n = self.W.n
        return np.reshape(xi, (self.m, n, n)).transpose(0, 2, 1)

    def _creator(self, xi, right=False):
        """Block maps (up, down) of a(xi), or of b(xi) with right=True.

        up maps the columns of layer k to layer k + 1; down is its adjoint.
        Layer k is read as V[I, col, row]: V_I is the coordinate matrix of
        the L2 factor at the C^{m^k} index I.  a(xi) puts A_j V_I at (j, I)
        with A_j = X_j h^{-1/2}; b(xi) puts V_I B_j at (I, j) with
        B_j = h^{-1/2} X_j.
        """
        n, m = self.W.n, self.m
        x = self._coord_mats(xi)
        if right:
            f, split = self.W.h_isqrt @ x, (-1, m)
            sub_up, sub_down = "jsc,Isrk->Ijcrk", "jsc,Ijcrk->Isrk"
        else:
            f, split = x @ self.W.h_isqrt, (m, -1)
            sub_up, sub_down = "jrs,Icsk->jIcrk", "jrs,jIcrk->Icsk"

        def up(v):
            k = v.shape[1]
            return np.einsum(sub_up, f, v.reshape(-1, n, n, k)).reshape(-1, k)

        def down(w):
            k = w.shape[1]
            return np.einsum(sub_down, f.conj(),
                             w.reshape(*split, n, n, k)).reshape(-1, k)
        return up, down

    def _apply(self, creator, v):
        """(c + c*) v for the block maps (up, down) of a creator c and a column
        stack v of layers 0..L; the result holds layers 0..min(L + 1, top)."""
        up, down = creator
        off = self.offsets
        last = int(np.searchsorted(off, len(v))) - 1
        new = min(last + 1, self._top)
        out = np.zeros((off[new + 1], v.shape[1]), dtype=np.complex128)
        for k in range(last + 1):
            blk = v[off[k]:off[k + 1]]
            if k < new:
                out[off[k + 1]:off[k + 2]] = up(blk)
            if k > 0:
                out[off[k - 1]:off[k]] += down(blk)
        return out

    def _raising(self, up):
        """Dense operator whose block from layer k to layer k + 1 is up(I)."""
        out = np.zeros((self.D, self.D), dtype=np.complex128)
        off = self.offsets
        for k in range(self._top):
            out[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = up(
                np.eye(self.dims[k]))
        return out

    def _left(self, x, v):
        """pi_l(x) on a column stack: x on each n-block of every layer."""
        n, c = self.W.n, v.shape[1]
        return (as_cmatrix(x) @ v.reshape(-1, n, c)).reshape(-1, c)

    def pi_left(self, x):
        """Left action of M on the whole truncated Fock space."""
        # I_{m^k} (x) lambda(x) on every layer is I_{D/n} (x) x overall
        return self._left(x, np.eye(self.D))

    def creation(self, xi):
        """a(xi): prepends xi; layer k -> k + 1 (top layer to zero)."""
        return self._raising(self._creator(xi)[0])

    def s_op(self, xi):
        a = self.creation(xi)
        return a + a.conj().T

    def b_creation(self, xi):
        """b(xi): appends xi on the right; layer k -> k + 1."""
        return self._raising(self._creator(xi, right=True)[0])

    def t_op(self, xi):
        b = self.b_creation(xi)
        return b + b.conj().T

    # -- checks ----------------------------------------------------------------

    def _check_budget(self, nbytes, what):
        if nbytes > _MAX_FOCK_CHECK_BYTES:
            raise SizeLimitExceeded(
                f"{what} on the Fock space of {self.m} copies of "
                f"L2(M_{self.W.n}) at depth {self.d_max} needs "
                f"{nbytes / 2 ** 20:.0f} MiB for one array; the limit is "
                f"{_MAX_FOCK_CHECK_BYTES / 2 ** 20:.0f} MiB")

    def commutant_check(self, xi, eta):
        """||[s(xi), t(eta)] P|| / (||s(xi) P|| ||t(eta) P||) with P the
        projection onto the safe zone; S0 xi = xi and F0 eta = eta must hold
        to ``tol.axiom`` relative.

        ||X P||_2 = ||X[:, :K]||_2 with K = offsets[safe + 1], so each norm is
        the SVD of the images of the first K basis vectors; rows of layers
        that these images cannot reach are zero and left out.
        """
        safe = max(self.d_max - 2, 0)
        k = int(self.offsets[safe + 1])
        rows = int(self.offsets[min(safe + 2, self._top) + 1])
        self._check_budget(16 * rows * k, "the commutant check")
        gate = self.tol.axiom
        nrm_xi = max(np.linalg.norm(xi), 1e-300)
        nrm_eta = max(np.linalg.norm(eta), 1e-300)
        if np.linalg.norm(self.H.s0(xi) - xi) > gate * nrm_xi:
            raise NotFixedPoint("xi is not S0-fixed")
        if np.linalg.norm(self.H.f0(eta) - eta) > gate * nrm_eta:
            raise NotFixedPoint("eta is not F0-fixed")
        s, t = self._creator(xi), self._creator(eta, right=True)
        cols = np.eye(k)
        s_cols, t_cols = self._apply(s, cols), self._apply(t, cols)
        comm = self._apply(s, t_cols)
        comm -= self._apply(t, s_cols)
        resid = np.linalg.norm(comm, 2)
        scale = max(np.linalg.norm(s_cols, 2) * np.linalg.norm(t_cols, 2),
                    1e-300)
        return resid / scale

    def vacuum_expectation(self, x_mat):
        """E(X) = I* X I in M (layer-0 block projected onto left
        multiplications) and the weight phi_hat(X) = phi(E(X))."""
        n = self.W.n
        x00 = x_mat[: self.dims[0], : self.dims[0]]
        blocks = x00.reshape(n, n, n, n)
        e = np.einsum("ikil->kl", blocks) / n
        return e, complex(np.trace(e @ self.W.h))

    def lambda_identities(self, xs, xis):
        """Residuals of pi_l(x) Omega = x phi^{1/2} and s(xi) Omega = xi.

        Omega lies in layer 0, so pi_l(x) Omega is layer 0 alone and
        s(xi) Omega = a(xi) Omega is layer 1 alone.
        """
        rows = int(self.offsets[min(1, self._top) + 1])
        self._check_budget(16 * rows, "the vacuum identities")
        omega = self.W.coords(np.eye(self.W.n)).reshape(-1, 1)
        worst_x = 0.0
        for x in xs:
            got = self._left(x, omega)[:, 0]
            worst_x = max(worst_x, np.linalg.norm(got - self.W.coords(x))
                          / max(np.linalg.norm(self.W.coords(x)), 1e-300))
        worst_xi = 0.0
        for xi in xis:
            got = self._apply(self._creator(xi), omega)[:, 0]
            want = np.zeros_like(got)
            want[self.dims[0]:] = xi
            worst_xi = max(worst_xi, np.linalg.norm(got - want)
                           / max(np.linalg.norm(xi), 1e-300))
        return {"pi_left": worst_x, "s_vector": worst_xi}


def fock_build(h: Correspondence, d_max=3, tol=DEFAULT_TOL) -> TruncatedFock:
    return TruncatedFock(h, d_max, tol)


# --- scalar case: free Araki-Woods --------------------------------------------

class ScalarFock(TruncatedFock):
    """The M = C case: free Araki-Woods over C^d with modular data (A, I).

    H = C^d over the trivial algebra carries group_gen = -log A and the
    conjugation I, so T = I A^{-1/2} is ``H.s0`` and V_t = A^{it} is
    ``H.group(-t)``.  Layer k is the plain tensor power C^{d^k}; the modular
    group acts on it as (V_{-t})^{(x)k}, J as I^{(x)k} followed by tensor
    reversal; N is the number operator and exp(-tN) the Ornstein-Uhlenbeck
    semigroup.
    """

    def __init__(self, a_matrix, conj_i=None, d_max=4, tol=DEFAULT_TOL):
        need = _scalar_fock_bytes(len(a_matrix), int(d_max))
        if need > _MAX_SCALAR_FOCK_BYTES:
            raise SizeLimitExceeded(
                f"free Araki-Woods model over C^{len(a_matrix)} at depth {d_max} "
                f"needs {need / 2 ** 20:.0f} MiB for one array; the "
                f"limit is {_MAX_SCALAR_FOCK_BYTES / 2 ** 20:.0f} MiB")
        a = as_cmatrix(a_matrix)
        eig = herm_eig(a, tol)
        if eig.eigenvalues[0] <= 0:
            raise NotPositiveDefinite("A must be positive definite")
        d = a.shape[0]
        imat = np.eye(d, dtype=np.complex128) if conj_i is None \
            else as_cmatrix(conj_i)
        # commutation V_t I = I V_t  <=>  I conj(A) conj(I) = A^{-1}
        self.commutation_residual = float(np.linalg.norm(
            imat @ a.conj() @ imat.conj() - np.linalg.inv(a)))
        u = eig.eigenvectors
        g = -(u * np.log(eig.eigenvalues)) @ u.conj().T

        def scalar(x):
            return np.kron(np.eye(d), as_cmatrix(x))

        h = Correspondence(WeightedAlgebra(np.eye(1)), d, scalar, scalar,
                           group_gen=0.5 * (g + g.conj().T), conj_mat=imat,
                           label=f"C^{d}")
        super().__init__(h, d_max, tol)

    # -- structure maps --------------------------------------------------------

    def modular_unitary(self, t):
        """Delta^{it} = (+)_k (V_{-t})^{(x)k}."""
        v = self.H.group(t)
        mats = [np.eye(1, dtype=np.complex128)]
        for _ in range(self.d_max):
            mats.append(np.kron(mats[-1], v))
        return scipy.linalg.block_diag(*mats)

    def conj_j(self):
        """Antiunitary part of J: apply as conj_j() @ conj(vec)."""
        mats = []
        ik = np.eye(1, dtype=np.complex128)
        for k, dk in enumerate(self.dims):
            # tensor reversal e_{i1..ik} -> e_{ik..i1}: reverse the digit axes
            rev = np.eye(dk).reshape((self.m,) * k + (dk,)).transpose(
                list(range(k))[::-1] + [k]).reshape(dk, dk)
            mats.append(ik @ rev)
            ik = np.kron(ik, self.H.conj_mat)
        return scipy.linalg.block_diag(*mats)

    def _levels(self):
        """The layer index of each coordinate: N and exp(-tN) are diagonal."""
        return np.repeat(np.arange(self.d_max + 1.0), self.dims)

    def ou_semigroup(self, t):
        return np.diag(np.exp(-t * self._levels()))

    # -- derivation ------------------------------------------------------------

    def delta(self, vec, layer):
        """delta(xi) in (H (+) H)^{(x)layer}, H (+) H = C^{2d} with the top
        copy first: the sum over positions k of xi with factor k moved to the
        bottom copy.  The k-th term fills its own slab, so each is a copy."""
        d = self.m
        out = np.zeros((2, d) * layer, dtype=np.complex128)
        xi = np.reshape(vec, (d,) * layer)
        for k in range(layer):
            out[tuple(ix for p in range(layer)
                      for ix in (int(p == k), slice(None)))] = xi
        return out.reshape(-1)

    def derivation_pairing(self, xi, m_layer, eta, n_layer):
        """<delta(xi), delta(eta)> (zero across different layers)."""
        if m_layer != n_layer:
            return 0.0 + 0.0j
        return complex(np.vdot(self.delta(xi, m_layer),
                               self.delta(eta, n_layer)))

    def energy(self, xi):
        """E(xi) = <xi, N xi> over the full truncated space."""
        return complex(np.vdot(xi, self._levels() * xi))


def free_aw(a_matrix, conj_i=None, d_max=4, tol=DEFAULT_TOL) -> ScalarFock:
    return ScalarFock(a_matrix, conj_i, d_max, tol)


def wick(f: ScalarFock, eta, tol=DEFAULT_TOL):
    """Wick word W(eta): polynomial in {s(e_k)} with W(eta) Omega = eta.

    eta is a full Fock vector supported on layers <= d_max; e_k is the
    T-fixed real orthonormal family.  Recursion:
    W(e_k (x) mu) = s(e_k) W(mu) - W(a*(e_k) mu).
    """
    basis = f.H.s_fixed_basis()
    if len(basis) < f.m:
        raise NotRepresentable(
            f"T-fixed real subspace has dimension {len(basis)} < {f.m}"
        )
    e_mat = np.column_stack(basis)
    try:
        e_inv = np.linalg.inv(e_mat)
    except np.linalg.LinAlgError as exc:
        raise NotRepresentable("T-fixed family is numerically singular") from exc
    s_ops = [f.s_op(e) for e in basis]
    eye = np.eye(f.D, dtype=np.complex128)

    def w_layer(layer, vec):
        if layer == 0:
            return complex(vec[0]) * eye
        # vec in C^{d^layer}; split off the first factor in the e-basis
        mu_rows = e_inv @ vec.reshape(f.m, -1)  # row k: vec = sum e_k (x) mu_k
        out = np.zeros((f.D, f.D), dtype=np.complex128)
        for k in range(f.m):
            mu = mu_rows[k]
            if np.linalg.norm(mu) < 1e-300:
                continue
            out += s_ops[k] @ w_layer(layer - 1, mu)
            if layer >= 2:
                # a*(e_k) removes the (new) first factor of mu
                ann_mu = basis[k].conj() @ mu.reshape(f.m, -1)
                out -= w_layer(layer - 2, ann_mu.reshape(-1))
        return out

    # careful: for layer 1, a*(e_k) mu with mu on layer 0 vanishes
    total = np.zeros((f.D, f.D), dtype=np.complex128)
    any_support = False
    for layer in range(f.d_max + 1):
        blk = f.layer_block(eta, layer)
        if np.linalg.norm(blk) == 0:
            continue
        any_support = True
        total += w_layer(layer, blk)
    if not any_support:
        return np.zeros((f.D, f.D), dtype=np.complex128)
    omega = f.vacuum()
    resid = np.linalg.norm(total @ omega - eta) / max(np.linalg.norm(eta),
                                                      1e-300)
    if resid > 1e-6:
        raise NotRepresentable(f"Wick reconstruction residual {resid:.3e}")
    return total
