"""Rebuilding the bimodule and derivation from the Dirichlet form alone.

Gram route: on the algebraic tensor square spanned by all matrix-unit pairs
a_p (x) b_p, the inner product

  <a(x)b, c(x)d> = ( E(a, c d b^flat) + E(a b d^flat, c) - E(b d^flat, a^sharp c) ) / 2

is assembled from the form, the null space is quotiented away, and the
bimodule operations become matrices on the quotient:

  L(a)[b(x)c] = [ab(x)c] - [a(x)bc],   R(a)[b(x)c] = [b(x)ca],
  U_z[a(x)b]  = [U_z a (x) U_z b],     J[a(x)b] = [Jb.Ja (x) 1] - [Jb (x) Ja],
  delta(a)    = [a(x)1].

The Gram matrix, its quotient, J and the uniqueness comparison all live
on the pairs of the modular eigenbasis F_ab = u E_ab u* of h = u diag(lam) u*:
sigma_z(F_ab) = e^{i z omega_ab} F_ab with omega_ab = log lam_a - log lam_b,
and J F_ab = (lam_b / lam_a)^{1/2} F_ba.  U_z is unitary for real z, so the
Gram entry of F_p(x)F_q against F_r(x)F_s vanishes unless the Bohr
frequencies omega_p + omega_q and omega_r + omega_s agree: the Gram matrix
is block-diagonal by frequency.  The sectors are found by clustering that
only merges, so equal frequencies are never split: pairs whose frequencies
may be equal, given the rounding of the computed eigenvalues (a few
eps lam_max / lam_min in log), share a sector, and so do pairs that differ
only in indices of eigenvalues of h closer than 1e-4 lam_max (rounding
mixes their eigenvectors).  Each sector splits further by the last index
l of its pairs: every Gram entry carries h[u, l] = [u = l] lam_l (from
d^flat), so the Gram is exactly zero between pairs of different last index,
which are the right blocks H F_ll of the right action (F_ll commutes with h,
so R(F_ll) is an orthogonal projection).  Each (sector, last index) block is
eigendecomposed on its own, and the rank cutoff and PSD gate are taken
against the largest eigenvalue of all blocks, as for the whole matrix.
Each quotient coordinate then lies in one right block, and L(a), which
keeps the last index of ab (x) c and a (x) bc, is exactly block-diagonal
over the right blocks; R(F_xy) maps block x to block y.  On the resulting
quotient coordinates U_z = sum_k e^{i z nu_k} P_k over the Bohr
frequencies nu_k, with P_k the descended projection onto the pairs of
frequency nu_k.  Each coordinate lies in one sector, so U_z is kept by
sector: on a sector of one class P_k is the identity and U_z the phase
e^{i z nu_k} of each coordinate; only a wide sector, of several classes
(near-degenerate spectra), keeps a small block sum_k e^{i z nu_k} P_k.
L(a), R(a) are sums of n^2 matrix-unit images; every image is descended
once and kept sparse.  The group law, the adjoint relation and
U_z J = J U_conj(z) (Gram axioms (c), (d), (f)) then hold up to rounding,
so each of the three also reports the largest Gram entry between sectors
relative to the largest entry: what a form without modular covariance
would show.

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
                     SizeLimitExceeded)
from .lindblad import DirichletForm, semigroup
from .modular import TomitaData, WeightedAlgebra, bohr_classes
from .numkernel import (HermEig, Superoperator, as_cmatrix, as_cstack, choi,
                        cluster, frob, herm_eig, matrix_units, quotient)
from .sampling import (draw_samples, random_disk_point, random_matrix,
                       sample_blocks, worst)

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

_MAX_DEFAULT_DIM = 4
# Rounding mixes the eigenvectors of eigenvalues of h closer than
# _EIG_GAP * lam_max by about eps / _EIG_GAP: such eigenvalues form one group
_EIG_GAP = 1e-4


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
    """Quotient realization of the reconstructed bimodule, on the coefficients
    of the eigenbasis pairs F_p (x) F_q (index p * n^2 + q)."""

    W: WeightedAlgebra
    qmap: object          # numkernel.QuotientMap, vectors zero off their block
    sector: np.ndarray    # sector label 0, 1, ... of each eigenbasis pair
    bohr_class: np.ndarray   # class of each eigenbasis pair by its Bohr
                             # frequency, as the modular group computes it
    bohr: np.ndarray      # the Bohr frequency of each class
    off_sector: float     # max |Gram entry| between sectors / max |Gram entry|

    # -- embeddings ------------------------------------------------------------

    @property
    def rank(self):
        return self.qmap.rank

    def embed_pair(self, a, b):
        """Quotient coordinates of the class [a (x) b]; one row per pair of
        stacks of a and b."""
        n2 = self.W.n ** 2
        embed = self.qmap.embed.reshape(self.rank, n2, n2)
        ca, cb = self._unit_coeff(a), self._unit_coeff(b)
        return np.einsum("...p,...rp->...r", ca,
                         np.einsum("rpq,...q->...rp", embed, cb))

    def delta(self, a):
        eye = np.eye(self.W.n, dtype=np.complex128)
        return self.embed_pair(a, eye)

    def inner(self, x, y):
        return complex(np.vdot(x, y))

    # -- operators on the quotient ---------------------------------------------

    def _mult_map(self):
        """coeff(b (x) c) -> coeff(bc), the multiplication on unit pairs:
        E_ij E_kl = [j = k] E_il, and so F_ij F_kl = [j = k] F_il."""
        n = self.W.n
        eye = np.eye(n)
        return np.einsum("xi,jk,ly->xyijkl", eye, eye, eye).reshape(n * n, -1)

    def _act_left(self, a, coeff):
        """L(a) on pair coefficient columns: [ab (x) c] - [a (x) bc]."""
        n = self.W.n
        c = coeff.reshape(n ** 4, -1)
        out = (as_cmatrix(a) @ c.reshape(n, -1)).reshape(c.shape) - np.kron(
            _coeff(a)[:, None], self._mult_map() @ c)
        return out.reshape(coeff.shape)

    def _act_right(self, a, coeff):
        """R(a) on pair coefficient columns: [b (x) ca]."""
        n = self.W.n
        c = coeff.reshape(n ** 3, n, -1)
        return np.einsum("xlr,ly->xyr", c, as_cmatrix(a)).reshape(coeff.shape)

    @cached_property
    def _images(self):
        """Nonzero entries of the quotient images of L(F_p) and R(F_p), with
        F_p = u E_p u*, as ``_sparse`` gives them, per family.

        The quotient vectors are exactly zero off their (sector, last
        index) block, so an image of L or R joins only sectors whose
        frequencies differ by omega_p, and an image of L only coordinates
        of one right block; all other entries are exact zeros.
        """
        embed, lift = self.qmap.embed, self.qmap.lift
        units = matrix_units(self.W.n)
        return (_sparse(embed @ self._act_left(e, lift) for e in units),
                _sparse(embed @ self._act_right(e, lift) for e in units))

    @cached_property
    def _right_blocks(self):
        """The quotient coordinates of each right block H F_ll (l = 0..n-1),
        as an (n, s) array padded with coordinate 0 after each block's own,
        and the (n, s) mask of its own entries."""
        right = np.argmax(np.abs(self.qmap.embed), axis=1) % self.W.n
        size = np.bincount(right, minlength=self.W.n)
        valid = np.arange(size.max()) < size[:, None]
        idx = np.zeros(valid.shape, dtype=np.intp)
        idx[valid] = np.argsort(right, kind="stable")
        return idx, valid

    def _diag_blocks(self, x):
        """The diagonal blocks of each matrix of a stack over the right
        blocks, zero-padded to one side s: shape (..., n, s, s)."""
        idx, valid = self._right_blocks
        return (x[..., idx[:, :, None], idx[:, None, :]]
                * (valid[:, :, None] & valid[:, None, :]))

    @cached_property
    def _group(self):
        """U_z by sector: the Bohr frequency of each quotient coordinate,
        whether its sector holds a single class (there P_k = embed_s lift_s
        is the identity, so U_z is the phase e^{i z nu}) and, per wide sector,
        (its coordinates, its class frequencies, its blocks of the P_k)."""
        embed, lift = self.qmap.embed, self.qmap.lift
        coord = self.sector[np.argmax(np.abs(embed), axis=1)]
        lo, hi = (np.full(self.sector.max() + 1, k) for k in (self.bohr.size, -1))
        np.minimum.at(lo, self.sector, self.bohr_class)
        np.maximum.at(hi, self.sector, self.bohr_class)
        wide = []
        for s in np.unique(coord[lo[coord] < hi[coord]]):
            idx, pairs = np.flatnonzero(coord == s), np.flatnonzero(self.sector == s)
            classes = np.unique(self.bohr_class[pairs])
            proj = [embed[np.ix_(idx, m)] @ lift[np.ix_(m, idx)]
                    for m in (pairs[self.bohr_class[pairs] == k] for k in classes)]
            wide.append((idx, self.bohr[classes], np.array(proj)[:, None]))
        return self.bohr[lo[coord]], lo[coord] == hi[coord], wide

    def _op(self, family, coeff):
        """sum_k coeff_k image_k over one family of images, for each row of
        a stack (..., K) of coefficients."""
        index, val, positions, starts = self._images[family]
        lead = coeff.shape[:-1]
        out = np.zeros(lead + (self.rank ** 2,), dtype=np.complex128)
        out[..., positions] = np.add.reduceat(coeff[..., index] * val, starts,
                                              axis=-1)
        return out.reshape(lead + (self.rank, self.rank))

    def _unit_coeff(self, a):
        """Coefficients of a over the eigenbasis units F_p: those of u* a u."""
        u = self.W.eig.eigenvectors
        return _coeff(u.conj().T @ as_cstack(a) @ u)

    def op_left(self, a):
        """Matrix of L(a) on quotient coordinates; a stack of them for a
        stack (..., n, n) of a."""
        return self._op(0, self._unit_coeff(a))

    def op_right(self, a):
        return self._op(1, self._unit_coeff(a))

    def _group_blocks(self, z):
        """The diagonal blocks of U_z: the phases (..., rank, 1, 1), zero on
        wide sectors, then (..., 1, s, s) per wide sector."""
        freq, single, wide = self._group
        phase = np.exp(1j * np.multiply.outer(z, freq)) * single
        return [phase[..., None, None]] + [
            np.einsum("...k,kbij->...bij", np.exp(1j * np.multiply.outer(z, nu)), proj)
            for _, nu, proj in wide]

    def _group_apply(self, blocks, x, right=False):
        """U x, or x U if ``right``, for U by its ``_group_blocks``, x a stack."""
        if right:
            swap = partial(np.swapaxes, axis1=-1, axis2=-2)
            return swap(self._group_apply([swap(b) for b in blocks], swap(x)))
        out = blocks[0][..., 0] * x
        for (idx, _, _), b in zip(self._group[2], blocks[1:]):
            out[..., idx, :] = b[..., 0, :, :] @ x[..., idx, :]
        return out

    def op_group(self, z):
        """U_z = sum_k exp(i z nu_k) P_k over the Bohr classes k, from its
        sector blocks.  An array of z gives the stack of U_z."""
        return self._group_apply(self._group_blocks(z), np.eye(self.rank))

    def op_conj(self):
        """Antilinear conjugation: y -> op_conj() @ conj(y).

        J[a (x) b] = [Jb.Ja (x) 1] - [Jb (x) Ja] with J a = h^{1/2} a* h^{-1/2},
        so J F_ij = c_ij F_ji with c_ij = (lam_j / lam_i)^{1/2}, and
        J[F_ij (x) F_kl] = c_il [j = k] [F_li (x) 1] - c_ij c_kl [F_lk (x) F_ji].
        """
        n = self.W.n
        s = np.sqrt(self.W.eig.eigenvalues)
        c = s / s[:, None]
        y = self.qmap.lift.conj().reshape(n, n, n, n, -1)
        out = np.einsum("il,ijjlr,uv->liuvr", c, y, np.eye(n))
        out -= np.einsum("ij,kl,ijklr->lkjir", c, c, y)
        return self.qmap.embed @ out.reshape(n ** 4, -1)


def _sparse(images):
    """The nonzero entries of a sequence of equally shaped arrays, grouped by
    flat position: (array index, value) of each entry in position order, the
    distinct positions, and where each position's entries start."""
    parts = []
    for k, img in enumerate(images):
        img = img.ravel()
        pos = np.flatnonzero(img)
        parts.append((np.full(pos.size, k), pos, img[pos]))
    index, pos, val = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(pos, kind="stable")
    positions, starts = np.unique(pos[order], return_index=True)
    return index[order], val[order], positions, starts


def _gram(f, h, h_inv):
    """The n^4 x n^4 Gram over unit pairs from f[ij, kl] = E(E_ij, E_kl)."""
    n = h.shape[0]
    eye = np.eye(n)
    f = f.reshape(n, n, n, n)
    # units a = E_ij, b = E_kl, c = E_rs, d = E_tu; every term of the Gram
    # formula carries h[u, l] from d^flat = h E_ut h^{-1}:
    #   E(a, c d b^flat) = [s = t] h[u,l] E(E_ij, E_rk h^{-1}),
    #   E(a b d^flat, c) = [j = k] h[u,l] E(E_it h^{-1}, E_rs),
    #   E(b d^flat, a^sharp c) = [i = r] h[u,l] E(E_kt h^{-1}, E_js).
    e_right = np.einsum("ijrb,kb->ijkr", f, h_inv)
    e_left = np.einsum("xbys,bt->xtys", f, h_inv)
    terms = 0.5 * (np.einsum("ijkr,st->ijkrst", e_right, eye)
                   + np.einsum("jk,itrs->ijkrst", eye, e_left)
                   - np.einsum("ir,ktjs->ijkrst", eye, e_left))
    gram = np.einsum("ijkrst,ul->ijklrstu", terms, h).reshape(n ** 4, n ** 4)
    gram += gram.conj().T     # conj() copies, so the sum reads no updated entry
    gram *= 0.5
    return gram


def _sectors(lam):
    """Bohr classes and sectors of the eigenbasis pairs F_p (x) F_q of
    h = u diag(lam) u* (lam ascending): (class of each pair, frequency of
    each class, sector label 0, 1, ... of each pair).

    A class holds the pairs whose frequencies, computed from lam, agree up to
    rounding.  The sectors are the finest partition that keeps together
    pairs whose exact frequencies may agree, given the error of the computed
    eigenvalues, and pairs that differ only in indices of eigenvalues closer
    than _EIG_GAP lam_max (rounding mixes their eigenvectors): merging is
    always safe, splitting either is not.
    """
    n = lam.size
    bohr_class, bohr, by_freq = bohr_classes(lam, 2)
    groups = cluster(lam / lam[-1], _EIG_GAP)
    by_group = np.ravel_multi_index(
        np.meshgrid(groups, groups, groups, groups, indexing="ij"), (n,) * 4)
    by_group = by_group.ravel()
    # connected components: spread the least pair index over both labels
    comp = np.arange(n ** 4)
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
    """Assemble the n^4 Gram matrix over the eigenbasis pairs and quotient
    it, one block of a Bohr-frequency sector and a last index at a time."""
    w = w if w is not None else form.W
    n = w.n
    if n > _MAX_DEFAULT_DIM and not allow_large:
        raise SizeLimitExceeded(
            f"n = {n} exceeds the default spanning-set limit {_MAX_DEFAULT_DIM}; "
            "pass allow_large=True to override"
        )
    # f[ij, kl] = E(E_ij, E_kl), from the form in vec coordinates
    to_coords = np.kron(w.h_sqrt.T, np.eye(n))
    f = to_coords.conj().T @ form.matrix @ to_coords
    f = f.reshape(n, n, n, n).transpose(1, 0, 3, 2).reshape(n * n, n * n)

    # In the modular eigenbasis F_ab = u E_ab u* (unit coefficients: column
    # ab of rot) h is diagonal, and sigma_z(F_ab) = e^{i z omega_ab} F_ab with
    # omega_ab = log lam_a - log lam_b.  The Gram entry of F_p (x) F_q against
    # F_r (x) F_s (p, q, r, s unit indices) vanishes unless the Bohr
    # frequencies omega_p + omega_q and omega_r + omega_s agree.
    lam, u = w.eig.eigenvalues, w.eig.eigenvectors
    rot = np.kron(u, u.conj())
    gram = _gram(rot.conj().T @ f @ rot, np.diag(lam), np.diag(1.0 / lam))
    bohr_class, bohr, sector = _sectors(lam)
    # every Gram entry carries h[u, l] = [u = l] lam_l, so the Gram is exactly
    # zero between pairs of different last index: each sector splits into
    # right blocks H F_ll
    label = np.unique(sector * n + np.arange(n ** 4) % n, return_inverse=True)[1]

    # one eigendecomposition per block, batched by size, its eigenvectors in
    # the columns of its own indices; what is left of |gram| is off-sector
    eigvals = np.empty(n ** 4)
    eigvecs = np.zeros((n ** 4, n ** 4), dtype=np.complex128)
    mag = np.abs(gram)
    scale = mag.max()
    size, by_block = np.bincount(label), np.argsort(label, kind="stable")
    for side in np.unique(size):
        start = (np.cumsum(size) - size)[size == side]
        members = by_block[start[:, None] + np.arange(side)]
        block = (members[:, :, None], members[:, None, :])
        eig = herm_eig(gram[block], tol)
        eigvals[members] = eig.eigenvalues
        eigvecs[block] = eig.eigenvectors
        mag[block] = 0.0
    off_sector = float(mag.max() / scale) if scale > 0 else 0.0
    del gram, mag    # keep at most three n^4 x n^4 arrays alive
    order = np.argsort(eigvals, kind="stable")
    try:
        qmap = quotient(HermEig(eigvals[order], eigvecs[:, order]), tol)
    except NotPSD as exc:
        raise GramNotPSD(str(exc)) from exc
    return GramSpace(W=w, qmap=qmap, sector=sector, bohr_class=bohr_class,
                     bohr=bohr, off_sector=off_sector)


def gram_axioms_check(g: GramSpace, n_samples=200, seed=29):
    """Tomita-bimodule axioms (a)-(f) for the quotient matrices.

    U_z is built from the Bohr frequencies, so the group law (c), the
    adjoint relation (d) and U_z J = J U_conj(z) (f) can fail only through
    rounding or Gram entries between sectors; each of the three also reports
    that relative off-sector magnitude.

    L(a) is exactly block-diagonal over the right blocks H F_ll, so (a)
    takes ||L(a)|| as the largest exact SVD norm of its n diagonal blocks
    and (b) forms jq conj(L(a)) block column by block column; ||R(a)||,
    which joins the blocks, stays one full SVD.

    Each sample draws a, z, z2; all are drawn first, then evaluated in blocks
    of samples (``sampling.sample_blocks``) as stacks of quotient matrices.
    """
    rng = np.random.default_rng(seed)
    n = g.W.n
    td = TomitaData(g.W)
    res = {k: 0.0 for k in "abcdef"}
    if g.rank == 0:
        return res
    a, z, z2 = draw_samples(rng, n_samples, partial(random_matrix, n),
                            random_disk_point, random_disk_point)
    jq = g.op_conj()
    # L(a) is zero between right blocks, so (a) and (b) read its diagonal
    # blocks alone
    idx, valid = g._right_blocks
    jq_cols = np.swapaxes(jq[:, idx], 0, 1)
    # a stack holds one complex rank x rank matrix per sample
    for block in sample_blocks(n_samples, 16 * g.rank ** 2):
        ab, zb, z2b = a[block], z[block], z2[block]
        la = g.op_left(ab)
        la_blocks = g._diag_blocks(la)
        norm_l = _spectral(la_blocks).max(axis=-1)

        # (a) boundedness: |L(a)| <= |pi_l(a)| = |a|,
        # |R(a)| <= |pi_r(a)| = |h^{-1/2} a h^{1/2}|
        opn_l = _spectral(ab)
        opn_r = _spectral(g.W.h_isqrt @ ab @ g.W.h_sqrt)
        res["a"] = worst(res["a"], (norm_l - opn_l) / opn_l,
                         (_spectral(g.op_right(ab)) - opn_r) / opn_r)
        # (b) J L(a) = R(Ja) J  (J antilinear: J L(a) y = jq conj(la) conj(y));
        # column block l of jq conj(la) is jq[:, idx_l] conj(L_l)
        rja = g.op_right(td.conj_J(ab))
        rj_cols = np.moveaxis((rja @ jq)[..., idx], -2, -3) * valid[:, None, :]
        res["b"] = worst(res["b"], _frob_blocks([jq_cols @ la_blocks.conj() - rj_cols])
                         / np.maximum(norm_l, 1e-300))
        # (c) group law, on the sector blocks of U_z (GramSpace._group_blocks)
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
        rhs = g.op_left(td.modular_group(zb, ab))
        lhs = g._group_apply(g._group_blocks(-zb), g._group_apply(uz, la), right=True)
        res["e"] = worst(res["e"], _frob(lhs - rhs) / np.maximum(_frob(rhs), 1e-300))
        # (f) U_z J = J U_{conj(z)}  (compose with conjugation correctly)
        uzj = g._group_apply(uz, jq)
        ucz = [u.conj() for u in g._group_blocks(np.conj(zb))]
        res["f"] = worst(res["f"], _frob(uzj - g._group_apply(ucz, jq, right=True))
                         / np.maximum(_frob(uzj), 1e-300))
    for k in "cdf":
        res[k] = max(res[k], g.off_sector)
    return res


def _spectral(x):
    """Spectral norm of each matrix of a stack."""
    return np.linalg.norm(x, 2, axis=(-2, -1))


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
    Both are taken over the eigenbasis pairs, where the quotient's Gram is
    zero between sectors: it is subtracted one sector block at a time.
    """
    span_g, _, sv = bimodule._span
    n2 = g.W.n ** 2
    u = g.W.eig.eigenvectors
    rot = np.kron(u, u.conj())
    order = np.argsort(g.sector, kind="stable")
    # the span's columns over the eigenbasis pairs, one rotation per axis
    span = (rot.T @ (span_g.reshape(-1, n2, n2) @ rot)).reshape(-1, n2 * n2)[:, order]
    gram_b = span.conj().T @ span
    embed = g.qmap.embed[:, order]
    scale = max(np.abs(gram_b).max(), 1e-300)
    bounds = np.cumsum(np.bincount(g.sector))
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        block = embed[:, lo:hi].conj().T @ embed[:, lo:hi]
        scale = max(scale, np.abs(block).max())
        gram_b[lo:hi, lo:hi] -= block
    max_resid = float(np.abs(gram_b).max())
    # the eigenvalues of gram_b are the squared singular values sv of the span
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
    Gram matrix."""
    x = as_cmatrix(x)
    y = as_cmatrix(y)
    ix = x - phi.apply(x)
    iy = y - phi.apply(y)
    ixy = x.conj().T @ y - phi.apply(x.conj().T @ y)
    return 0.5 * (ix.conj().T @ y + x.conj().T @ iy - ixy)


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
