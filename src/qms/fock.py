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
pi_l(x) Omega); the dense D x D matrices are assembled from the same blocks.

The fields s(xi) and t(eta) commute on the safe zone when S_0 xi = xi and
F_0 eta = eta, with the antilinear maps S_0 = J U_{-i/2} and F_0 = J U_{i/2}
of H.  ``fock_build`` reads both off the bimodule as matrices A with
S_0 xi = A conj(xi).  Both are involutions, so (1 + S_0)/2 maps onto the
S_0-fixed vectors and (1 + F_0)/2 onto the F_0-fixed ones
(``fixed_vectors``); no null space is solved for.

The scalar case M = C (``ScalarFock``, n = 1) recovers free Araki-Woods:
layers are plain tensor powers, the modular group acts as (V_{-t})^{(x)n}
with V_t = A^{it}, and the number operator generates the Ornstein-Uhlenbeck
semigroup.
"""

import functools
import math

import numpy as np

from .bimodule import FinBimodule
from .config import DEFAULT_TOL
from .errors import NotFixedPoint, NotPositiveDefinite
from .modular import WeightedAlgebra
from .numkernel import as_cmatrix, herm_eig, mat_power
from .sampling import check_stage_bytes

__all__ = ["TruncatedFock", "fock_build", "ScalarFock", "free_aw"]


# bytes of the column block in which the commutant check forms t(s[:, :K])
_COMMUTANT_BLOCK_BYTES = 1 << 23


def _scalar_fock_bytes(d, depth):
    """Bytes of two of the largest complex arrays of the scalar model over
    C^d (the free-AW suite holds two D x D ones at once, D = 1 + d + ... +
    d^depth; delta of a top-layer vector has (2d)^depth entries)."""
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

    def vacuum(self):
        v = np.zeros(self.D, dtype=np.complex128)
        v[: self.dims[0]] = self.W.coords(np.eye(self.W.n))
        return v

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

    # -- checks ----------------------------------------------------------------

    def commutant_check(self, xi, eta):
        """||[s(xi), t(eta)] P|| / (||s(xi) P|| ||t(eta) P||) with P the
        projection onto the safe zone; S0 xi = xi and F0 eta = eta must hold
        to ``tol.axiom`` relative.  For stacks xi (..., d) and eta (..., d),
        the residual of every pair, of shape xi.shape[:-1] + eta.shape[:-1].

        ||X P||_2 = ||X[:, :K]||_2 with K = offsets[safe + 1], so each norm is
        the SVD of the images of the first K basis vectors; rows of layers
        that these images cannot reach are zero and left out.  The images
        of s and t and their norms are taken once per vector.  The check
        holds those images, the image of [s, t] and the SVD's copy of it;
        t(s[:, :K]) is subtracted a column block at a time, so no second
        image of [s, t] is formed.
        """
        xi, eta = np.asarray(xi), np.asarray(eta)
        xis, etas = (v.reshape(math.prod(v.shape[:-1]), v.shape[-1])
                     for v in (xi, eta))
        safe = max(self.d_max - 2, 0)
        k = int(self.offsets[safe + 1])
        mid = int(self.offsets[min(safe + 1, self._top) + 1])
        rows = int(self.offsets[min(safe + 2, self._top) + 1])
        check_stage_bytes(16 * k * (2 * rows + (len(xis) + len(etas)) * mid),
                          f"the commutant check at Fock dimension {self.D}")
        gate = self.tol.axiom
        for vecs, a, what in ((xis, self._a_s, "xi is not S0-fixed"),
                              (etas, self._a_f, "eta is not F0-fixed")):
            for v in vecs:
                if np.linalg.norm(a @ np.conj(v) - v) > gate * max(
                        np.linalg.norm(v), 1e-300):
                    raise NotFixedPoint(what)
        cols = np.eye(k)
        s_ops = [self._creator(v) for v in xis]
        t_ops = [self._creator(v, right=True) for v in etas]
        s_cols = [self._apply(s, cols) for s in s_ops]
        t_cols = [self._apply(t, cols) for t in t_ops]
        s_norm = [np.linalg.norm(c, 2) for c in s_cols]
        t_norm = [np.linalg.norm(c, 2) for c in t_cols]
        step = max(1, _COMMUTANT_BLOCK_BYTES // (16 * rows))
        out = np.empty((len(xis), len(etas)))
        for i, j in np.ndindex(out.shape):
            comm = self._apply(s_ops[i], t_cols[j])
            for c in range(0, k, step):
                comm[:, c:c + step] -= self._apply(t_ops[j], s_cols[i][:, c:c + step])
            out[i, j] = np.linalg.norm(comm, 2) / max(s_norm[i] * t_norm[j], 1e-300)
        return out.reshape(xi.shape[:-1] + eta.shape[:-1])[()]

    def lambda_identities(self, xs, xis):
        """Residuals of pi_l(x) Omega = x phi^{1/2} and s(xi) Omega = xi.

        Omega lies in layer 0, so pi_l(x) Omega is layer 0 alone and
        s(xi) Omega = a(xi) Omega is layer 1 alone.
        """
        rows = int(self.offsets[min(1, self._top) + 1])
        # the image of Omega, the expected vector and their difference
        check_stage_bytes(48 * rows, f"the vacuum identities at Fock dimension {self.D}")
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

    def modular_unitary(self, t):
        """Delta^{it} = (+)_k (V_{-t})^{(x)k}, block by block."""
        v = self._power(-1j * t)
        out = np.zeros((self.D, self.D), dtype=np.complex128)
        vk = np.eye(1, dtype=np.complex128)
        for k, (o, dk) in enumerate(zip(self.offsets, self.dims)):
            if k:
                vk = np.kron(vk, v)
            out[o:o + dk, o:o + dk] = vk
        return out

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

