"""Truncated Fock spaces over the Tomita bimodule of a jump system.

The bimodule H = C^m (x) L2(M, phi) of a jump system (``FinBimodule``) has
commuting left/right actions of (M_n, phi), the modular group U_z and the
conjugation J.  Its full Fock space

  F(H) = L2(M, phi) (+) H (+) H (x)_phi H (+) ...

is truncated at a maximal depth; creation from the top layer maps to zero,
so every identity is checked only on layers inside its declared safe zone.
Layer k is C^{m^k} (x) L2(M) in closed form:
(e_i (x) X) (x)_phi (e_j (x) Y) -> e_i (x) e_j (x) X h^{-1/2} Y on coordinate
matrices X = x h^{1/2}, so no layer needs a Gram quotient.  Operators are
applied layer block by layer block: a creation operator maps layer k to
layer k + 1 by a reshape and one einsum, and the checks read only the
coordinates they need (the safe columns of [s, t], layer 0 of
pi_l(x) Omega); the dense a(xi) is assembled from the same blocks.

The fields s(xi) and t(eta) commute on the safe zone when S_0 xi = xi and
F_0 eta = eta, with the antilinear maps S_0 = J U_{-i/2} and F_0 = J U_{i/2}
of H.  ``fock_build`` reads both off the bimodule as matrices A with
S_0 xi = A conj(xi).  Both are involutions, so (1 + S_0)/2 maps onto the
S_0-fixed vectors and (1 + F_0)/2 onto the F_0-fixed ones
(``fixed_vectors``); no null space is solved for.

The scalar case M = C (``ScalarFock``, n = 1) recovers free Araki-Woods:
layers are plain tensor powers, the modular group acts as (V_{-t})^{(x)n}
with V_t = A^{it} (taken one layer block at a time), and the number operator
generates the Ornstein-Uhlenbeck semigroup.
"""

import functools
import itertools
import math

import numpy as np

from .bimodule import FinBimodule
from .config import DEFAULT_TOL
from .errors import NotFixedPoint, NotPositiveDefinite
from .modular import WeightedAlgebra
from .numkernel import as_cmatrix, herm_eig, mat_power, spectral_norm
from .sampling import check_stage_bytes

__all__ = ["TruncatedFock", "fock_build", "ScalarFock", "free_aw"]


# bytes of the [s, t] images the commutant check forms at once (one pair's at
# least: stacking pairs saves per-apply overhead only where images are small),
# of the Python objects it holds, and of numpy's ufunc buffers (8192 entries
# for each of three operands) on the strided tiles of several pairs
_COMMUTANT_BLOCK_BYTES = 1 << 20
_COMMUTANT_SMALL_BYTES = 12 << 10
_UFUNC_BUFFER_BYTES = 3 << 17


def _scalar_fock_bytes(d, depth):
    """Bytes of two D x D complex arrays, D = 1 + d + ... + d^depth, or of
    two delta images of a top-layer vector ((2d)^depth entries).  The suite
    forms no D x D array and holds one top-layer block of (d^depth)^2
    entries at a time (its commutator is formed in row chunks), so this
    bounds its peak and keeps the admitted (d, depth) as they were."""
    dim = sum(d ** k for k in range(depth + 1))
    return 32 * max(dim * dim, (2 * d) ** depth)


class TruncatedFock:
    """L2 (+) H (+) ... (+) H^{(x)_phi d_max} with block operators.

    H is C^m (x) L2(M, phi), the componentwise sum of m copies of L2, in the
    coordinates of ``FinBimodule.coords``.  With X = x h^{1/2} the
    coordinate matrix of an L2 vector, the unitary

      (e_i (x) X) (x)_phi (e_j (x) Y) -> e_i (x) e_j (x) X h^{-1/2} Y

    identifies layer k with C^{m^k} (x) L2(M), of dimension m^k n^2, so no
    layer needs a Gram quotient.  With lambda(B) = kron(I_n, B) and
    rho(B) = kron(B^T, I_n), the blocks from layer k to layer k + 1 are

      a(xi) = sum_j e_j (x) I_{m^k} (x) lambda(X_j h^{-1/2}),
      b(xi) = I_{m^k} (x) sum_j e_j (x) rho(h^{-1/2} X_j),

    and M acts on layer k as I_{m^k} (x) lambda(x).  Creation from the top
    layer is truncated to zero; the safe zone of an operator product of total
    layer shift s is the set of layers <= d_max - s.  ``a_s`` and ``a_f`` are
    the matrices of the antilinear maps of H: S_0 xi = a_s conj(xi) and
    F_0 xi = a_f conj(xi).
    """

    def __init__(self, w: WeightedAlgebra, m, a_s, a_f, d_max, tol=DEFAULT_TOL):
        n = w.n
        self.W = w
        self.m = int(m)
        self.d_max = int(d_max)
        self.tol = tol
        self._a_s, self._a_f = a_s, a_f
        self.dims = [self.m ** k * n * n for k in range(self.d_max + 1)]
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.D = int(self.offsets[-1])
        # the last nonzero layer: with m = 0 (H = 0) every layer above L2(M)
        # is empty
        self._top = self.d_max if self.m else 0

    def fixed_vectors(self):
        """S_0- and F_0-fixed vectors, row k from the coordinate vector e_k:
        the longer of P e_k and P(i e_k), with P = (1 + S_0)/2 (and
        (1 + F_0)/2 for F_0).  Both maps are involutions, so P maps onto the
        fixed space; e_k = P e_k - i P(i e_k), so the longer has norm >= 1/2.
        """
        out = []
        for a in (self._a_s, self._a_f):
            # A conj(e_k) is column k of A, and A conj(i e_k) is -i times it
            e = np.eye(len(a))
            plus, minus = 0.5 * (e + a), 0.5j * (e - a)
            longer = np.linalg.norm(plus, axis=0) >= np.linalg.norm(minus, axis=0)
            out.append(np.where(longer, plus, minus).T)
        return tuple(out)

    # -- vectors ---------------------------------------------------------------

    def layer_block(self, full_vec, layer):
        o = self.offsets[layer]
        return full_vec[o : o + self.dims[layer]]

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
            # in row order, so that numpy forms the output without buffers
            k = v.shape[1]
            return np.einsum(sub_up, f, v.reshape(-1, n, n, k), order="C").reshape(-1, k)

        def down(w):
            k = w.shape[1]
            return np.einsum(sub_down, f.conj(),
                             w.reshape(*split, n, n, k)).reshape(-1, k)
        return up, down

    def _apply(self, creator, v, out=None):
        """(c + c*) v for the block maps (up, down) of a creator c and a column
        stack v of layers 0..L, added into ``out`` (zeros if None): layers
        0..min(L + 1, top), columns possibly split as (rows, ..., k)."""
        up, down = creator
        off = self.offsets
        last = int(np.searchsorted(off, len(v))) - 1
        new = min(last + 1, self._top)
        if out is None:
            out = np.zeros((off[new + 1], v.shape[1]), dtype=np.complex128)
        for k in range(last + 1):
            blk = v[off[k]:off[k + 1]]
            if k < new:
                dst = out[off[k + 1]:off[k + 2]]
                dst += up(blk).reshape(dst.shape)
            if k > 0:
                dst = out[off[k - 1]:off[k]]
                dst += down(blk).reshape(dst.shape)
        return out

    def _left(self, x, v):
        """pi_l(x) on a column stack: x on each n-block of every layer."""
        n, c = self.W.n, v.shape[1]
        return (as_cmatrix(x) @ v.reshape(-1, n, c)).reshape(-1, c)

    def creation(self, xi):
        """a(xi) as a dense matrix: prepends xi; layer k -> k + 1 (top layer
        to zero), each block the image of the identity."""
        up, off = self._creator(xi)[0], self.offsets
        out = np.zeros((self.D, self.D), dtype=np.complex128)
        for k in range(self._top):
            out[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = up(np.eye(self.dims[k]))
        return out

    # -- checks ----------------------------------------------------------------

    def commutant_check(self, xi, eta):
        """||[s(xi), t(eta)] P|| / (||s(xi) P|| ||t(eta) P||) with P the
        projection onto the safe zone; S0 xi = xi and F0 eta = eta must hold
        to ``tol.axiom`` relative.  For stacks xi (..., d) and eta (..., d),
        the residual of every pair, of shape xi.shape[:-1] + eta.shape[:-1].

        ||X P||_2 = ||X[:, :K]||_2 with K = offsets[safe + 1], so each norm is
        taken on the images of the first K basis vectors; rows of layers that
        these images cannot reach are zero and left out.  The images of s and
        t are formed once per vector, side by side; the pairs go in tiles of
        as many as fit ``_COMMUTANT_BLOCK_BYTES``, with one apply per vector
        of a tile.  Each norm stack is one ``spectral_norm`` call: the s
        images, the t images, the commutators of a tile.
        """
        xi, eta = np.asarray(xi), np.asarray(eta)
        xis, etas = (v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
                     for v in (xi, eta))
        n_s, n_t = len(xis), len(etas)
        safe = max(self.d_max - 2, 0)
        k = int(self.offsets[safe + 1])
        mid = int(self.offsets[min(safe + 1, self._top) + 1])
        rows = int(self.offsets[min(safe + 2, self._top) + 1])
        per_tile = max(1, min(n_s * n_t, _COMMUTANT_BLOCK_BYTES // (16 * rows * k)))
        tile_t = min(n_t, per_tile) or 1
        tile_s = min(n_s, per_tile // tile_t) or 1
        # complex entries at the peak: each creator's coefficients (and one
        # conjugate), the s and t images, one tile, and the larger of the
        # einsum output of the widest apply into the top layer and the Grams
        # of a ``spectral_norm`` call (real 2k x 2k and complex k x k, < 4 k^2)
        widest = max(tile_s, tile_t) * k * self.dims[min(safe + 2, self._top)]
        grams = 4 * max(tile_s * tile_t, n_s, n_t) * k * k
        check_stage_bytes(16 * ((n_s + n_t + 1) * xis.shape[-1] + (n_s + n_t) * mid * k
                                + tile_s * tile_t * rows * k + max(widest, grams))
                          + _COMMUTANT_SMALL_BYTES + _UFUNC_BUFFER_BYTES * (per_tile > 1),
                          f"the commutant check at Fock dimension {self.D}")
        gate = self.tol.axiom
        for vecs, a, what in ((xis, self._a_s, "xi is not S0-fixed"),
                              (etas, self._a_f, "eta is not F0-fixed")):
            for v in vecs:
                if np.linalg.norm(a @ np.conj(v) - v) > gate * max(
                        np.linalg.norm(v), 1e-300):
                    raise NotFixedPoint(what)
        s_ops = [self._creator(v) for v in xis]
        t_ops = [self._creator(v, right=True) for v in etas]
        s_img, t_img = (self._images(ops, k, mid) for ops in (s_ops, t_ops))
        s_norm, t_norm = (spectral_norm(img.reshape(mid, -1, k).transpose(1, 0, 2))
                          for img in (s_img, t_img))
        out = np.empty((n_s, n_t))
        for i0, j0 in itertools.product(range(0, n_s, tile_s), range(0, n_t, tile_t)):
            si, tj = slice(i0, i0 + tile_s), slice(j0, j0 + tile_t)
            out[si, tj] = self._commutator_norms(
                s_ops[si], t_ops[tj], s_img[:, i0 * k:(i0 + tile_s) * k],
                t_img[:, j0 * k:(j0 + tile_t) * k], rows)
        out /= np.maximum(np.multiply.outer(s_norm, t_norm), 1e-300)
        return out.reshape(xi.shape[:-1] + eta.shape[:-1])[()]

    def _images(self, ops, k, rows):
        """The images of the first k basis vectors under each of ``ops``."""
        cols = np.eye(k)
        out = np.zeros((rows, len(ops) * k), dtype=np.complex128)
        for i, op in enumerate(ops):
            self._apply(op, cols, out[:, i * k:(i + 1) * k])
        return out

    def _commutator_norms(self, s_ops, t_ops, s_img, t_img, rows):
        """||[s, t] P|| of each pair of a tile: minus each t over the stacked
        s images, plus each s over the stacked t images."""
        k = s_img.shape[1] // len(s_ops)
        comm = np.zeros((rows, len(s_ops), len(t_ops), k), dtype=np.complex128)
        for j, op in enumerate(t_ops):
            self._apply(op, s_img, comm[:, :, j])
        np.negative(comm, out=comm)
        for i, op in enumerate(s_ops):
            self._apply(op, t_img, comm[:, i])
        return spectral_norm(comm.transpose(1, 2, 0, 3))

    def lambda_identities(self, xs, xis):
        """Residuals of pi_l(x) Omega = x phi^{1/2} and s(xi) Omega = xi.

        Omega lies in layer 0, so pi_l(x) Omega is layer 0 alone and
        s(xi) Omega = a(xi) Omega is layer 1 alone.
        """
        rows = int(self.offsets[min(1, self._top) + 1])
        # the image of Omega, the expected vector and their difference
        check_stage_bytes(48 * rows, f"the vacuum identities at Fock dimension {self.D}")
        omega = self.W.coords(np.eye(self.W.n)).reshape(-1, 1)
        res_x, res_xi = [], []
        for x in xs:
            got = self._left(x, omega)[:, 0]
            res_x.append(np.linalg.norm(got - self.W.coords(x))
                         / max(np.linalg.norm(self.W.coords(x)), 1e-300))
        for xi in xis:
            got = self._apply(self._creator(xi), omega)[:, 0]
            want = np.zeros_like(got)
            want[self.dims[0]:] = xi
            res_xi.append(np.linalg.norm(got - want) / max(np.linalg.norm(xi), 1e-300))
        # the largest of each, NaN if any is NaN (np.max propagates it)
        return {"pi_left": float(np.max(res_x, initial=0.0)),
                "s_vector": float(np.max(res_xi, initial=0.0))}


def fock_build(bimodule: FinBimodule, d_max=3, tol=DEFAULT_TOL) -> TruncatedFock:
    """The truncated Fock space over the Tomita bimodule of a jump system.

    Column k of A_S (A_F) holds the coordinates of J U_{-i/2} e_k
    (J U_{i/2} e_k); J is antilinear, so S_0 xi = A_S conj(xi).
    """
    b = bimodule
    basis = b.from_coords(np.eye(b.m * b.n * b.n))
    a_s, a_f = (b.coords(b.conj_ambient(b.mod_group(z, basis))).T
                for z in (-0.5j, 0.5j))
    return TruncatedFock(b.W, b.m, a_s, a_f, d_max, tol)


# --- scalar case: free Araki-Woods --------------------------------------------

class ScalarFock(TruncatedFock):
    """The M = C case: free Araki-Woods over C^d with modular data (A, I).

    H = C^d over the trivial algebra carries V_t = A^{it} and the
    conjugation I, so S_0 = I conj(A^{-1/2}) conj(.) is T = I A^{-1/2} and
    F_0 = I conj(A^{1/2}) conj(.).  Layer k is the plain tensor power
    C^{d^k}; the modular group acts on it as (V_{-t})^{(x)k}, J as I^{(x)k}
    followed by tensor reversal; N is the number operator and exp(-tN) the
    Ornstein-Uhlenbeck semigroup.
    """

    def __init__(self, a_matrix, conj_i=None, d_max=4, tol=DEFAULT_TOL):
        check_stage_bytes(_scalar_fock_bytes(len(a_matrix), int(d_max)),
                          f"the free Araki-Woods model at depth {d_max}")
        a = as_cmatrix(a_matrix)
        eig = herm_eig(a, tol)
        if eig.eigenvalues[0] <= 0:
            raise NotPositiveDefinite("A must be positive definite")
        # z -> A^z from the one eigendecomposition of A
        self._power = functools.partial(mat_power, a, tol=tol, _eig=eig)
        d = a.shape[0]
        imat = np.eye(d, dtype=np.complex128) if conj_i is None \
            else as_cmatrix(conj_i)
        # commutation V_t I = I V_t  <=>  I conj(A) conj(I) = A^{-1}
        self.commutation_residual = float(np.linalg.norm(
            imat @ a.conj() @ imat.conj() - np.linalg.inv(a)))
        super().__init__(WeightedAlgebra(np.eye(1)), d,
                         imat @ self._power(-0.5).conj(),
                         imat @ self._power(0.5).conj(), d_max, tol)

    # -- structure maps --------------------------------------------------------

    def modular_blocks(self, t):
        """The diagonal blocks (V_{-t})^{(x)k} of Delta^{it}, k = 0..d_max."""
        v = self._power(-1j * t)
        vk = np.eye(1, dtype=np.complex128)
        for k in range(self.d_max + 1):
            if k:
                vk = np.kron(vk, v)
            yield vk

    def _levels(self):
        """The layer index of each coordinate: N and exp(-tN) are diagonal."""
        return np.repeat(np.arange(self.d_max + 1.0), self.dims)

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

