"""Rebuilding the bimodule and derivation from the Dirichlet form alone.

Gram route: on the algebraic tensor square spanned by all matrix-unit pairs
a_p (x) b_p, the inner product

  <a(x)b, c(x)d> = ( E(a, c d b^flat) + E(a b d^flat, c) - E(b d^flat, a^sharp c) ) / 2

is assembled from the form, the null space is quotiented away, and the
bimodule operations become matrices on the quotient:

  L(a)[b(x)c] = [ab(x)c] - [a(x)bc],   R(a)[b(x)c] = [b(x)ca],
  U_z[a(x)b]  = [U_z a (x) U_z b],     J[a(x)b] = [Jb.Ja (x) 1] - [Jb (x) Ja],
  delta(a)    = [a(x)1].

Everything lives on the pairs of the modular eigenbasis F_ab = u E_ab u* of
h = u diag(lam) u*: sigma_z(F_ab) = e^{i z omega_ab} F_ab, omega_ab =
log lam_a - log lam_b, and J F_ab = (lam_b / lam_a)^{1/2} F_ba.  The right
factors enter the inner product only through phi(b* X d), so the Gram is
kron(T, diag(lam)): that of F_ij (x) F_kl against F_rs (x) F_tu is
T[ijk, rst] lam_l [u = l].  Only T, of side n^3, is assembled and
quotiented; the quotient coordinates are the pairs (r, l) of a T coordinate
r and a right block l, of Gram eigenvalue mu_r lam_l, and (r, l) is kept iff
mu_r lam_l > tol.decomp mu_max lam_max.  A mu_r kept for some l and dropped
for others raises ``RankUndecided``: no kron(T, diag(lam)) has that rank.
T vanishes between triples of different frequency omega_ij + log lam_k (U_z
is unitary for real z), so it is eigendecomposed one sector at a time.
Sectors only merge: triples whose frequencies may be equal, given the
rounding of the computed eigenvalues, share one, and so do triples that
differ only in indices of eigenvalues closer than 1e-4 lam_max (rounding
mixes their eigenvectors).  The operators are read off the factors:
L(a) = kron(L_T(a), 1), L_T a sum of n^2 sparse matrix-unit images;
R(a) = kron(1, lam^{1/2} a~^T lam^{-1/2}), a~ = u* a u, in closed form; and
U_z = kron(U_T(z), diag(lam)^{-iz}), U_T(z) = sum_k e^{i z nu_k} P_k over the
triple frequencies, kept as one phase per T coordinate and a small block
per wide sector (of several classes, near-degenerate spectra).  J joins the
right blocks and is sparse (about two nonzero entries a row); J and the
images are kept as their nonzero entries (``GramSpace._products``).  The
Gram axioms that involve J form no rank x rank matrix per sample: (b)
J L(a) = R(Ja) J is conjugate-linear in a, so its defect is
sum_p conj(c_p) D_p over the n^2 eigenbasis units F_p (a = sum_p c_p F_p),
and each sample reads c^T <D_p, D_q> conj(c) off one n^2 x n^2 Gram; (f)
U_z J = J conj(U_conj(z)) is evaluated only where its terms Q_A J and
J conj(Q_B) are nonzero, Q_A the (class, right block) pieces of U_z.  Gram
axioms (c), (d), (f) hold up to rounding, so each also reports the largest
entry of T between sectors relative to the largest entry: what a form
without modular covariance would show.  The jump bimodule's Gram over the
same pairs is kron(T_B, diag(lam)) as well, so uniqueness compares T_B with
the quotient's Gram of T and reads its rank by the same sector quotient
and rank rule; no n^4 x n^4 matrix is formed on either side.

Stinespring route: the same space from a single unital CP GNS-symmetric map
Phi with <x(x)y, c(x)d> = (1/2) phi(y* Phi(x* c) d) and boundary
del(x) = x(x)1 - 1(x)x; feeding Phi = P_t and scaling by 1/t recovers the
form at first order in t.  No Gram matrix is quotiented: with the Kraus
form Phi(x) = sum_r V_r* x V_r from the eigendecomposition of the Choi
matrix, x(x)y -> 2^{-1/2} (x V_r y)_r is an isometry onto C^R (x) L2(M, phi),
the carrier of the jump bimodule, so the rank is n^2 R and
del(x) = 2^{-1/2} ([x, V_r])_r.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .config import DEFAULT_TOL
from .errors import (GramNotPSD, NotGNSSymmetric, NotPSD, NotUCP,
                     RankUndecided)
from .lindblad import DirichletForm, semigroup
from .modular import TomitaData, WeightedAlgebra, bohr_classes
from .numkernel import (HermEig, Superoperator, as_cmatrix, as_cstack, choi,
                        cluster, frob, herm_eig, matrix_units, quotient,
                        spectral_norm)
from .sampling import (_BLOCK_BYTES, _SMALL_BYTES, DISK, check_stage_bytes,
                       draw_samples, matrices, sample_blocks, worst)

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
]

# Rounding mixes the eigenvectors of eigenvalues of h closer than
# _EIG_GAP * lam_max by about eps / _EIG_GAP: such eigenvalues form one group
_EIG_GAP = 1e-4
# pairs of J and image entries the (b) defect joins at once, besides one T row
_JOIN_PAIRS = 1 << 16


def _coeff(x):
    """Matrix-unit coefficients of x (row-major, matching matrix_units order),
    of each matrix of a stack."""
    x = np.asarray(x, dtype=np.complex128)
    return x.reshape(x.shape[:-2] + (-1,))


def gram_entry(form: DirichletForm, a, b, c, d):
    """<a(x)b, c(x)d> from the form alone; for stacks (..., n, n) of the
    four (broadcast against each other), one value per quadruple."""
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
    """Quotient realization of the reconstructed bimodule.

    The Gram over the eigenbasis pairs F_ij (x) F_kl (index (ijk) n + l) is
    kron(T, diag(lam)); ``qmap`` quotients T over the triples (i, j, k) at
    index i n^2 + j n + k.  The quotient coordinates are the pairs (r, l) at
    index r n + l of a T coordinate r and a right block l, embedded by
    kron(qmap.embed, diag(lam)^{1/2}).
    """

    W: WeightedAlgebra
    qmap: object          # numkernel.QuotientMap of T, vectors zero off their sector
    sector: np.ndarray    # sector label 0, 1, ... of each triple
    bohr_class: np.ndarray   # class of each triple by its frequency
    bohr: np.ndarray      # the frequency omega_ij + log lam_k of each class
    coord_sector: np.ndarray  # the sector of each T coordinate
    off_sector: float     # max |T entry| between sectors / max |T entry|

    # -- embeddings ------------------------------------------------------------

    @property
    def rank(self):
        return self.W.n * self.qmap.rank

    @property
    def eigenvalues(self):
        """The kept Gram eigenvalues mu_r lam_l, descending."""
        return np.sort(np.outer(self.qmap.eigenvalues,
                                self.W.eig.eigenvalues).ravel())[::-1]

    def embed_pair(self, a, b):
        """Quotient coordinates of the class [a (x) b], one row per pair of
        stacks of a and b: sum_ijk embed_T[r, ijk] a~_ij b~_kl lam_l^{1/2}."""
        n = self.W.n
        embed = self.qmap.embed.reshape(-1, n * n, n)
        left = np.einsum("rpk,...p->...rk", embed, _coeff(self.W.to_eig(a)))
        out = left @ self.W.to_eig(b) * np.sqrt(self.W.eig.eigenvalues)
        return out.reshape(out.shape[:-2] + (self.rank,))

    def delta(self, a):
        return self.embed_pair(a, np.eye(self.W.n))

    # -- operators on the quotient ---------------------------------------------

    def _image_factor(self):
        """N[j, k, b] = lift_T[bjk] - [j = b] sum_i lift_T[kii], so that
        L_T(F_ab) = embed_a N[:, :, b]: [F_ab F_ij (x) F_kl] - [F_ab (x) F_ij F_kl]
        takes the triple (b, j, k) to (a, j, k) and (k, i, i) to (a, b, k)."""
        n, rt = self.W.n, self.qmap.rank
        lift = self.qmap.lift.reshape(n, n, n, rt)
        out = lift.transpose(1, 2, 0, 3).copy()
        out[np.arange(n), :, np.arange(n)] -= np.einsum("kiir->kr", lift)
        return out

    def _products(self, right):
        """The nonzero entries (a, row, (b, column), value) of the products
        embed_a right[:, :, b], embed_a the columns of embed_T on the triples
        (a, j, k) and right (n, n, n, rt) over (j, k, b): embed_a times right
        on the nonzero rows and columns of both; exact zeros are dropped."""
        n, rt = self.W.n, self.qmap.rank
        right = right.reshape(n * n, n * rt)
        parts = []
        for a, x in enumerate(self.qmap.embed.reshape(rt, n, n * n).swapaxes(0, 1)):
            rows, keys = (np.flatnonzero(x.any(axis=k)) for k in (1, 0))
            cols = np.flatnonzero(right[keys].any(axis=0))
            block = x[np.ix_(rows, keys)] @ right[np.ix_(keys, cols)]
            r, c = np.nonzero(block)
            parts.append((np.full(r.size, a), rows[r], cols[c], block[r, c]))
        return [np.concatenate(x) for x in zip(*parts)]

    @cached_property
    def _images(self):
        """Nonzero entries of the quotient images L_T(F_p), F_p = u E_p u*, as
        ``_by_position`` gives them, by p and flat position in L_T(F_p): an
        image joins only sectors whose frequencies differ by omega_p."""
        n, rt = self.W.n, self.qmap.rank
        a, row, col, val = self._products(self._image_factor())
        return _by_position(a * n + col // rt, row * rt + col % rt, val)

    @cached_property
    def _group(self):
        """U_T by sector: the frequency of each T coordinate, whether its
        sector holds a single class (there P_k = embed_s lift_s is the
        identity, so U_T is the phase e^{i z nu}) and, per wide sector,
        (its coordinates, its class frequencies, its blocks of the P_k)."""
        embed, lift = self.qmap.embed, self.qmap.lift
        coord = self.coord_sector
        lo, hi = (np.full(self.sector.max() + 1, k) for k in (self.bohr.size, -1))
        np.minimum.at(lo, self.sector, self.bohr_class)
        np.maximum.at(hi, self.sector, self.bohr_class)
        wide = []
        for s in np.unique(coord[lo[coord] < hi[coord]]):
            idx, triples = np.flatnonzero(coord == s), np.flatnonzero(self.sector == s)
            classes = np.unique(self.bohr_class[triples])
            proj = [embed[np.ix_(idx, m)] @ lift[np.ix_(m, idx)]
                    for m in (triples[self.bohr_class[triples] == k] for k in classes)]
            wide.append((idx, self.bohr[classes], np.array(proj)[:, None]))
        return self.bohr[lo[coord]], lo[coord] == hi[coord], wide

    def _op_left_t(self, a):
        """L_T(a) from the images, for each eigenbasis matrix a~ of a stack."""
        index, val, pos, starts = self._images
        coeff = _coeff(a)
        lead, rt = coeff.shape[:-1], self.qmap.rank
        out = np.zeros(lead + (rt * rt,), dtype=np.complex128)
        out[..., pos[starts]] = np.add.reduceat(coeff[..., index] * val, starts, -1)
        return out.reshape(lead + (rt, rt))

    def _right_factor(self, a):
        """rho(a) = lam^{1/2} a~^T lam^{-1/2} of an eigenbasis matrix a~, with
        R(a) = kron(1, rho(a))."""
        s = np.sqrt(self.W.eig.eigenvalues)
        return np.swapaxes(a, -1, -2) * s[:, None] / s

    def _group_blocks(self, z):
        """The diagonal blocks of U_T(z): the phases (..., rt, 1, 1), zero on
        wide sectors, then (..., 1, s, s) per wide sector."""
        freq, single, wide = self._group
        phase = np.exp(1j * np.multiply.outer(z, freq)) * single
        return [phase[..., None, None]] + [
            np.einsum("...k,kbij->...bij", np.exp(1j * np.multiply.outer(z, nu)), proj)
            for _, nu, proj in wide]

    def _group_apply(self, blocks, x, right=False, z=None):
        """U x, or x U if ``right``, for U by its ``_group_blocks`` and x a
        stack; with ``z``, for kron(U, diag(lam)^{-iz}) on the quotient."""
        if right:
            swap = partial(np.swapaxes, axis1=-1, axis2=-2)
            return swap(self._group_apply([swap(b) for b in blocks], swap(x), z=z))
        if z is not None:
            rt, cols = self.qmap.rank, x.shape[-1]
            phase = np.exp(-1j * np.multiply.outer(z, np.log(self.W.eig.eigenvalues)))
            y = x.reshape(x.shape[:-2] + (rt, -1, cols)) * phase[..., None, :, None]
            out = self._group_apply(blocks, y.reshape(y.shape[:-3] + (rt, -1)))
            return out.reshape(out.shape[:-2] + (self.rank, cols))
        out = blocks[0][..., 0] * x
        for (idx, _, _), b in zip(self._group[2], blocks[1:]):
            out[..., idx, :] = b[..., 0, :, :] @ x[..., idx, :]
        return out

    def _by_class(self, row, col, val, adjoint=False):
        """The nonzero entries of Q_A x over the (class, right block) pairs A
        of U_z = sum_A e^{i z alpha_A} Q_A, Q_A = kron(P_k, e_l e_l^T) and
        alpha_A = nu_k - log lam_l, for x by its entries (of Q_A^* x with
        ``adjoint``): (alpha_A, value, row, column) of each.  Q_A keeps or
        drops an entry of a single-class coordinate; a wide sector's P_k
        mixes its rows, made dense first."""
        freq, single, wide = self._group
        n, log_lam = self.W.n, np.log(self.W.eig.eigenvalues)
        r, l = np.divmod(row, n)
        keep = single[r]
        parts = [(freq[r[keep]] - log_lam[l[keep]], val[keep], row[keep], col[keep])]
        for idx, nu, proj in wide:
            p = proj[:, 0].conj().swapaxes(-1, -2) if adjoint else proj[:, 0]
            at = np.isin(r, idx)
            x = np.zeros((idx.size, n, self.rank), dtype=np.complex128)
            x[np.searchsorted(idx, r[at]), l[at], col[at]] = val[at]
            y = np.einsum("kab,blc->kalc", p, x)
            k, i, j, c = np.nonzero(y)
            parts.append((nu[k] - log_lam[j], y[k, i, j, c], idx[i] * n + j, c))
        return [np.concatenate(t) for t in zip(*parts)]

    def op_group(self, z):
        """U_z = kron(U_T(z), diag(lam)^{-iz}), U_T(z) from its sector
        blocks.  An array of z gives the stack of U_z."""
        return self._group_apply(self._group_blocks(z), np.eye(self.rank), z=z)

    def op_conj(self):
        """Antilinear conjugation y -> Jq conj(y), as the nonzero entries
        (row, column, value) of Jq in row-major order.

        J[a (x) b] = [Jb.Ja (x) 1] - [Jb (x) Ja] with J a = h^{1/2} a* h^{-1/2},
        so J F_ij = c_ij F_ji with c_ij = (lam_j / lam_i)^{1/2}, and
        J[F_ij (x) F_kl] = c_il [j = k] [F_li (x) 1] - c_ij c_kl [F_lk (x) F_ji]:
        through the factors, entry ((x, l), (r, m)) is -(embed_m M)[x, (l, r)]
        with M[k, j, l] = c_kj conj(N[j, k, l]), N of ``_image_factor``.
        """
        n, rt, s = self.W.n, self.qmap.rank, np.sqrt(self.W.eig.eigenvalues)
        right = np.einsum("kj,jklr->kjlr", s / s[:, None], self._image_factor())
        m, x, col, val = self._products(np.conj(right, out=right))
        key = (x * n + col // rt) * self.rank + col % rt * n + m
        order = np.argsort(key)
        return (*np.divmod(key[order], self.rank), -val[order])


def _by_position(index, pos, val):
    """Entries (index, flat position, value) in position order, as (index,
    value, position) of each and where each position's entries start."""
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    return index[order], val[order], pos, np.flatnonzero(np.diff(pos, prepend=-1))


def _gram(f, lam):
    """T, the n^3 x n^3 factor of the Gram over eigenbasis pairs, from
    f[ij, kl] = E(F_ij, F_kl) with h = diag(lam): the Gram of F_ij (x) F_kl
    against F_rs (x) F_tu is T[ijk, rst] h[u, l]."""
    n = lam.size
    eye = np.eye(n)
    f = f.reshape(n, n, n, n)
    # units a = F_ij, b = F_kl, c = F_rs, d = F_tu; every term of the Gram
    # formula carries h[u, l] from d^flat = h F_ut h^{-1}:
    #   E(a, c d b^flat) = [s = t] h[u,l] E(F_ij, F_rk h^{-1}),
    #   E(a b d^flat, c) = [j = k] h[u,l] E(F_it h^{-1}, F_rs),
    #   E(b d^flat, a^sharp c) = [i = r] h[u,l] E(F_kt h^{-1}, F_js).
    e_right = f.transpose(0, 1, 3, 2) / lam[:, None]     # [i, j, k, r]
    e_left = f / lam[:, None, None]                       # [x, t, y, s]
    terms = 0.5 * (np.einsum("ijkr,st->ijkrst", e_right, eye)
                   + np.einsum("jk,itrs->ijkrst", eye, e_left)
                   - np.einsum("ir,ktjs->ijkrst", eye, e_left))
    terms = terms.reshape(n ** 3, n ** 3)
    return 0.5 * (terms + terms.conj().T)


def _sectors(w: WeightedAlgebra):
    """Bohr classes and sectors of the triples (i, j, k) of h = u diag(lam) u*
    (lam ascending): (class of each triple, frequency omega_ij + log lam_k of
    each class, sector label 0, 1, ... of each triple).  The sectors are the
    finest partition that keeps together triples whose exact frequencies
    may agree and triples that differ only in indices of eigenvalues closer
    than _EIG_GAP lam_max: merging is always safe, splitting either is not.
    """
    n, lam = w.n, w.eig.eigenvalues
    bohr_class, bohr, by_freq = bohr_classes(w, triple=True)
    groups = cluster(lam / lam[-1], _EIG_GAP)
    by_group = np.ravel_multi_index(
        np.meshgrid(groups, groups, groups, indexing="ij"), (n,) * 3).ravel()
    # connected components: spread the least triple index over both labels
    comp = np.arange(n ** 3)
    while True:
        prev = comp
        for label in (by_freq, by_group):
            least = np.full(comp.size, comp.size)
            np.minimum.at(least, label, comp)
            comp = least[label]
        if np.array_equal(comp, prev):
            return bohr_class, bohr, np.unique(comp, return_inverse=True)[1]


def build_gram_space(form: DirichletForm, w: WeightedAlgebra = None,
                     tol=DEFAULT_TOL, allow_large=False) -> GramSpace:
    """Assemble the n^3 x n^3 factor T of the Gram over the eigenbasis pairs
    and quotient it one sector at a time; ``allow_large`` skips its count."""
    w = w if w is not None else form.W
    n = w.n
    # 5 n^6 entries: T, its eigenvectors and the quotient's 3
    if not allow_large:
        check_stage_bytes(16 * 5 * n ** 6 + _SMALL_BYTES, f"the Gram T at n = {n}")
    # f[p, q] = E(F_p, F_q) over the units F_p = u E_p u* of the modular
    # eigenbasis, where h is diagonal and T vanishes between triples of
    # different frequency omega_ij + log lam_k
    lam = w.eig.eigenvalues
    c = w.coords(w.from_eig(matrix_units(n)))
    t = _gram(c.conj() @ form.matrix @ c.T, lam)
    bohr_class, bohr, sector = _sectors(w)
    qmap, coord_sector, off_sector = _quotient_sectors(t, sector, lam, tol)
    return GramSpace(W=w, qmap=qmap, sector=sector, bohr_class=bohr_class,
                     bohr=bohr, coord_sector=coord_sector, off_sector=off_sector)


def _quotient_sectors(t, sector, lam, tol):
    """Quotient the factor t of a Gram kron(t, diag(lam)) one sector at a
    time.  (r, l) is kept iff mu_r lam_l > tol.decomp mu_max lam_max; a mu_r
    kept for some l and dropped for others raises ``RankUndecided``.

    Returns the ``QuotientMap`` of t, the sector of each of its coordinates
    and the largest |t| entry between sectors relative to the largest entry.
    """
    # one eigendecomposition per sector, batched by size, its eigenvectors in
    # the columns of its own triples; what is left of |t| is off-sector
    eigvals = np.empty(t.shape[0])
    eigvecs = np.zeros(t.shape, dtype=np.complex128)
    mag = np.abs(t)
    scale = mag.max()
    size, by_sector = np.bincount(sector), np.argsort(sector, kind="stable")
    for side in np.unique(size):
        start = (np.cumsum(size) - size)[size == side]
        members = by_sector[start[:, None] + np.arange(side)]
        block = (members[:, :, None], members[:, None, :])
        eig = herm_eig(t[block], tol)
        eigvals[members] = eig.eigenvalues
        eigvecs[block] = eig.eigenvectors
        mag[block] = 0.0
    off_sector = float(mag.max() / scale) if scale > 0 else 0.0
    del mag
    # ascending eigenvalues, the columns sorted in place a block of rows at a time
    order = np.argsort(eigvals, kind="stable")
    for rows in sample_blocks(order.size, 16 * order.size):
        eigvecs[rows] = eigvecs[rows][:, order]
    try:
        qmap = quotient(HermEig(eigvals[order], eigvecs), tol)
    except NotPSD as exc:
        raise GramNotPSD(str(exc)) from exc
    # quotient kept mu_r > tol mu_max (descending), the cutoff of the
    # largest lam_l
    mu = qmap.eigenvalues
    if qmap.rank and mu[-1] * lam[0] <= tol.decomp * mu[0] * lam[-1]:
        raise RankUndecided(
            f"T eigenvalue {mu[-1] / mu[0]:.3e} of the largest lies in "
            f"({tol.decomp:.1e}, {tol.decomp * lam[-1] / lam[0]:.3e}]: kept in "
            "some right blocks and dropped in others")
    return qmap, sector[order[::-1][:qmap.rank]], off_sector


def gram_axioms_check(g: GramSpace, n_samples=200, seed=29):
    """Tomita-bimodule axioms (a)-(f) for the quotient matrices, on the
    factors L(a) = kron(L_T(a), 1), R(a) = kron(1, rho(a)) and
    U_z = kron(U_T(z), diag(lam)^{-iz}).  (a) takes the exact SVD norms of
    L_T(a) and of the n x n rho(a) (R descends in closed form, so its half of
    (a) measures rounding only).  diag(lam)^{-iz} meets (c), (d) and (e) to
    rounding, so these are the residuals of U_T and L_T.  (b) and (f) read J
    by its nonzero entries (``_conj_defect_gram``, ``_conj_group_terms``).
    (c), (d) and (f) can fail only through rounding or entries of T between
    sectors; each also reports that relative off-sector magnitude.

    Each sample draws a, z, z2; all are drawn first, then evaluated in blocks
    of samples (``sampling.sample_blocks``) as stacks of T-level matrices,
    each block's a rotated once to the eigenbasis.
    """
    rng = np.random.default_rng(seed)
    w = g.W
    s = np.sqrt(w.eig.eigenvalues)
    res = {k: 0.0 for k in "abcdef"}
    if g.rank == 0:
        return res
    jq = g.op_conj()
    n, rt, nj = w.n, g.qmap.rank, jq[0].size
    # complex entries: the factors of the images and J (2 n^3 rt); J, the images,
    # the (f) terms (4 each); _conj_defect_gram's join (9 each); 8 sample blocks.
    # The part J fixes is checked before the images and the (f) terms are formed.
    what = f"the Gram axioms at rank {g.rank}"
    known = 16 * (2 * n ** 3 * rt + 4 * nj + 9 * n * nj) + _SMALL_BYTES
    check_stage_bytes(known, what)
    freq, first, val, starts = _conj_group_terms(g, jq)
    # a sample holds rt x rt stacks of L_T and U_T, and one value per (f) term
    sample_bytes = 16 * (rt ** 2 + val.size)
    # the image entries each T row x of J meets in _conj_defect_gram, which
    # joins them _JOIN_PAIRS and one row at most at a time
    meets = np.bincount(g._images[2] // rt, minlength=rt)[jq[1] // n]
    per_row = np.bincount(jq[0] // n, meets, minlength=rt)
    check_stage_bytes(known + 16 * (4 * (g._images[0].size + val.size)
                                    + 9 * (_JOIN_PAIRS + int(per_row.max())))
                      + 8 * max(sample_bytes, _BLOCK_BYTES), what)
    a, z, z2 = draw_samples(rng, n_samples, matrices(w.n), DISK, DISK)
    defect = _conj_defect_gram(g, jq, (np.cumsum(per_row) // _JOIN_PAIRS)[jq[0] // n])
    for block in sample_blocks(n_samples, sample_bytes):
        ab, zb, z2b = w.to_eig(a[block]), z[block], z2[block]
        lt = g._op_left_t(ab)
        norm_l = spectral_norm(lt)

        # (a) boundedness: |L(a)| <= |pi_l(a)| = |a|,
        # |R(a)| <= |pi_r(a)| = |h^{-1/2} a h^{1/2}|, in the eigenbasis
        opn_l = spectral_norm(ab)
        opn_r = spectral_norm(ab * s / s[:, None])
        res["a"] = worst(res["a"], (norm_l - opn_l) / opn_l,
                         (spectral_norm(g._right_factor(ab)) - opn_r) / opn_r)
        # (b) J L(a) = R(Ja) J: with a = sum_p c_p F_p the defect is
        # sum_p conj(c_p) D_p, of squared norm c^T M conj(c)
        c = _coeff(ab)
        sq = np.einsum("...p,pq,...q->...", c, defect, c.conj()).real
        res["b"] = worst(res["b"], np.sqrt(np.maximum(sq, 0.0))
                         / np.maximum(norm_l, 1e-300))
        # (c) group law, on the sector blocks of U_T (GramSpace._group_blocks)
        uz, uzz = g._group_blocks(zb), g._group_blocks(zb + z2b)
        res["c"] = worst(res["c"], _frob_blocks(
            u @ v - w for u, v, w in zip(uz, g._group_blocks(z2b), uzz))
            / np.maximum(_frob_blocks(uzz), 1e-300))
        # (d) adjoint relation U_z^* = U_{-conj(z)}
        res["d"] = worst(res["d"], _frob_blocks(
            np.swapaxes(u, -1, -2).conj() - v
            for u, v in zip(uz, g._group_blocks(-np.conj(zb))))
            / np.maximum(_frob_blocks(uz), 1e-300))
        # (e) U_z L(a) U_{-z} = L(U_z a)
        rhs = g._op_left_t(w.sigma_eig(zb, ab))
        lhs = g._group_apply(g._group_blocks(-zb), g._group_apply(uz, lt), right=True)
        res["e"] = worst(res["e"], _frob(lhs - rhs) / np.maximum(_frob(rhs), 1e-300))
        # (f) U_z J = J conj(U_{conj(z)}), on the terms e^{i z freq} val
        terms = np.exp(1j * np.multiply.outer(zb, freq)) * val
        uzj = np.add.reduceat(terms * first, starts, axis=-1)
        diff = np.add.reduceat(terms, starts, axis=-1)
        res["f"] = worst(res["f"], np.linalg.norm(diff, axis=-1)
                         / np.maximum(np.linalg.norm(uzj, axis=-1), 1e-300))
    for k in "cdf":
        res[k] = max(res[k], g.off_sector)
    return res


def _conj_defect_gram(g: GramSpace, jq, chunk):
    """M[p, q] = <D_p, D_q> for the defects D_p = jq conj(L(F_p)) - R(J F_p) jq
    of axiom (b) on the n^2 eigenbasis units F_p, from the entries of jq
    (``GramSpace.op_conj``) and of the images: L(F_p) = kron(L_T(F_p), 1),
    and rho(J F_ij) = E_ij, so R(J F_ij) jq moves the rows (x, j) of jq to
    (x, i).  The entries of jq are taken a ``chunk`` label at a time, each
    label a run of whole T rows x, whose positions of D are disjoint.  Each
    D_p is formed entry by entry as the difference of the two terms (so that
    its rounding-level values keep their size), then M accumulates over
    blocks of D's positions, each a dense (n^2, block) array within
    ``sampling._BLOCK_BYTES``.
    """
    n, rank, rt = g.W.n, g.rank, g.qmap.rank
    image, img_val, img_pos = g._images[:3]
    r, s = np.divmod(img_pos, rt)
    m = np.zeros((n * n, n * n), dtype=np.complex128)
    for label in np.unique(chunk):
        row, col, val = (x[chunk == label] for x in jq)
        # jq conj(L(F_p)): entry (row, (r, m)) of jq meets the entries (r, s)
        # of L_T(F_p), one run of the images in position order
        lo, count = np.searchsorted(r, col // n), np.bincount(r, minlength=rt)[col // n]
        i = np.repeat(np.arange(col.size), count)
        j = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(i.size)
        unit = [image[j]]
        pos = [row[i] * rank + s[j] * n + col[i] % n]
        term = [val[i] * img_val[j].conj()]
        # - R(J F_kl) jq: entry ((x, l), c) of jq goes to ((x, k), c) of D_kl
        for k in range(n):
            unit.append(k * n + row % n)
            pos.append((row - row % n + k) * rank + col)
            term.append(-val)
        unit, term, _, starts = _by_position(
            *(np.concatenate(x) for x in (unit, pos, term)))
        where = np.repeat(np.arange(starts.size), np.diff(np.append(starts, unit.size)))
        for block in sample_blocks(starts.size, 16 * n * n):
            lo, hi = np.searchsorted(where, (block.start, block.stop))
            d = np.zeros((n * n, block.stop - block.start), dtype=np.complex128)
            np.add.at(d, (unit[lo:hi], where[lo:hi] - block.start), term[lo:hi])
            m += d.conj() @ d.T
    return m


def _conj_group_terms(g: GramSpace, jq):
    """The nonzero terms of axiom (f)'s
      U_z jq - jq conj(U_conj(z)) = sum_A e^{i z alpha_A} Q_A jq
                                    - sum_B e^{-i z alpha_B} jq conj(Q_B)
    over the (class, right block) pairs of U_z = sum_A e^{i z alpha_A} Q_A
    (``GramSpace._by_class``), for jq by its entries: the frequency of each
    term (alpha_A, or -alpha_B), whether it is one of U_z jq, its value, and
    where the terms of each flat position start, in position order.
    """
    alpha, val_a, row_a, col_a = g._by_class(*jq)
    # (jq conj(Q_B))^T = Q_B^* jq^T, jq^T by its entries (col, row, val)
    beta, val_t, col_t, row_t = g._by_class(jq[1], jq[0], jq[2], adjoint=True)
    freq = np.concatenate([alpha, -beta])
    first = np.arange(freq.size) < alpha.size
    index, val, _, starts = _by_position(
        np.arange(freq.size), np.concatenate([row_a, row_t]) * g.rank
        + np.concatenate([col_a, col_t]), np.concatenate([val_a, -val_t]))
    return freq[index], first[index], val, starts


def _frob(x):
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def _frob_blocks(blocks):
    """Frobenius norm of each operator of a stack from its diagonal blocks."""
    return np.sqrt(sum(np.sum(np.abs(b) ** 2, axis=(-3, -2, -1)) for b in blocks))


def uniqueness_isometry(g: GramSpace, bimodule, tol=DEFAULT_TOL):
    """Match the reconstructed Gram against the explicit bimodule pairing.

    The map R(b) delta_K(a) -> R(b) delta_B(a) on the common spanning set is
    isometric iff the two Gram matrices coincide; ranks must also agree.
    Over the eigenbasis pairs both Grams are kron(., diag(lam)): the right
    factor enters <delta(F_ij) F_kl, delta(F_rs) F_tu> = sum_p tr(F_lk
    delta_p(F_ij)* delta_p(F_rs) F_tu h) only through F_tu h = lam_u F_tu,
    so the explicit one is kron(T_B, diag(lam)) with
    T_B[ijk, rst] = sum_p (u* delta_p(F_ij)* delta_p(F_rs) u)_kt.  T_B is
    compared with the quotient's embed_T* embed_T entry by entry, and its
    rank is read by the rule of the Gram route (``_quotient_sectors``).
    """
    n = g.W.n
    # 4 m n^4 entries of delta images, then 3 n^6: T_B, embed* embed and
    # |difference|, or T_B, its eigenvectors and the quotient's 3 of <= m n^4
    check_stage_bytes(16 * (3 * n ** 6 + 4 * bimodule.m * n ** 4) + _SMALL_BYTES,
                      f"the factor T_B at n = {n}, m = {bimodule.m}")
    # rows (p, x), columns (ij, k): (u* delta_p(F_ij) u)[x, k]
    d = bimodule.span_block
    t_b = d.conj().T @ d
    gram_t = g.qmap.embed.conj().T @ g.qmap.embed
    scale = max(np.abs(t_b).max(), np.abs(gram_t).max(), 1e-300)
    max_resid = float(np.abs(np.subtract(gram_t, t_b, out=gram_t)).max())
    del gram_t
    rank_b = n * _quotient_sectors(t_b, g.sector, g.W.eig.eigenvalues, tol)[0].rank
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
    """C^R (x) L2(M, phi) with x (x) y -> 2^{-1/2} (x V_r y)_r, for the Kraus
    operators V_r of Phi(x) = sum_r V_r* x V_r (``kraus``, shape (R, n, n))."""

    phi: Superoperator
    W: WeightedAlgebra
    kraus: np.ndarray

    @property
    def rank(self):
        return self.kraus.shape[0] * self.W.n ** 2

    def boundary(self, x):
        """del(x) = [x (x) 1] - [1 (x) x] = 2^{-1/2} ([x, V_r])_r, in the
        coordinates of ``WeightedAlgebra.coords`` stacked over r."""
        x = as_cmatrix(x)
        return self.W.coords(x @ self.kraus - self.kraus @ x).ravel() / np.sqrt(2.0)


def boundary_pairing(phi: Superoperator, x, y):
    """(del x | del y) in the Stinespring bimodule of Phi, from the M-valued
    identity (1/2)((I-Phi)(x)*y + x*(I-Phi)(y) - (I-Phi)(x*y)); it needs no
    Gram matrix.  Of each pair of a stack (..., n, n) of x and y."""
    x = as_cstack(x)
    y = as_cstack(y)
    x_adj = np.swapaxes(x, -1, -2).conj()
    ix = x - phi.apply(x)
    iy = y - phi.apply(y)
    xy = x_adj @ y
    ixy = xy - phi.apply(xy)
    return 0.5 * (np.swapaxes(ix, -1, -2).conj() @ y + x_adj @ iy - ixy)


def stinespring_route(phi: Superoperator, w: WeightedAlgebra,
                      tol=DEFAULT_TOL) -> StinespringBimodule:
    """The Stinespring bimodule of a unital CP GNS-symmetric map, in the
    Kraus form read off the eigendecomposition of its Choi matrix."""
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

    # choi(Phi) = sum_r w_r w_r* with w_r[(i, k)] = conj(V_r[i, k]), so the
    # eigenvectors of the Choi matrix give the Kraus operators
    mu, u = ch_eig.eigenvalues, ch_eig.eigenvectors
    keep = mu > tol.decomp * mu[-1]
    kraus = (np.sqrt(mu[keep]) * u[:, keep].conj()).T.reshape(-1, n, n)
    return StinespringBimodule(phi=phi, W=w, kraus=kraus)


def stinespring_rate(l: Superoperator, w: WeightedAlgebra,
                     form: DirichletForm, ts=(1e-1, 1e-2, 1e-3)):
    """Deviation max_a |E_t(a) - E(a)| over the matrix units a and its
    log-log slope in t.

    E_t(a) = (1/t) <a - P_t a, a>_h; both routes to E_t (direct, and
    phi((del a | del a))/t through the Stinespring bimodule of P_t) are
    evaluated and must agree.  The pairing is read off P_t alone, so the
    Stinespring quotient is never built here.  Each t takes the n^2 units as
    one stack; E(a, a) is evaluated once for all t.
    """
    units = matrix_units(w.n)
    # each unit as its own 1 x n^2 row, so E(a, a) rounds as a one-unit
    # call does
    energy = form(units[:, None], units[:, None])[:, 0].real
    devs = []
    route_gap = 0.0
    for t in ts:
        p_t = semigroup(l, t)
        # <a - P_t a, a>_h = tr((a - P_t a)* a h) and phi(x) = tr(x h)
        diff = np.swapaxes(units - p_t.apply(units), -1, -2).conj()
        direct = np.trace(diff @ units @ w.h, axis1=-2, axis2=-1).real / t
        via_pairing = np.trace(boundary_pairing(p_t, units, units) @ w.h,
                               axis1=-2, axis2=-1).real / t
        route_gap = max(route_gap, float(np.max(np.abs(direct - via_pairing))))
        devs.append(float(np.max(np.abs(direct - energy))))
    lt = np.log(np.asarray(ts))
    ld = np.log(np.maximum(np.asarray(devs), 1e-300))
    slope = float(np.polyfit(lt, ld, 1)[0])
    return {"ts": list(ts), "deviations": devs, "slope": slope,
            "route_gap": route_gap}
