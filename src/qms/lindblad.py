"""Generators of GNS-symmetric quantum Markov semigroups in jump form.

A jump system over (M_n, phi = tr(. h)) is a family {(v_j, omega_j)} with

  (1) tr(v_j) = 0,
  (2) tr(v_j* v_k) = delta_jk tr(v_j* v_j),
  (3) {v_j} = {v_j*} with a pairing j -> j* such that omega_{j*} = -omega_j,
  (4) h v_j h^{-1} = e^{-omega_j} v_j,

and the induced generator is

  L = sum_j ( e^{-omega_j/2} v_j* [v_j, .] + e^{omega_j/2} [., v_j] v_j* ).

``extract_alicki`` inverts this: it reads off the Kossakowski matrix of the
dissipative part in a traceless basis on which the modular operator is
diagonal -- the units F_ab = u E_ab u* of the eigenbasis of h, with
Delta F_ab = (lam_a / lam_b) F_ab -- and diagonalizes it inside each class
of equal frequency, classed by ``modular.bohr_classes`` as the Gram sectors
of ``reconstruct`` are, and joined with the classes it couples to.
"""

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL
from .errors import (
    InvalidJumpSystem,
    NegativeTime,
    NotConditionallyCP,
    NotGNSSymmetric,
)
from .modular import TomitaData, WeightedAlgebra, bohr_classes
from .numkernel import (Superoperator, as_cmatrix, choi, expm, frob,
                        herm_eig, matrix_units)

__all__ = [
    "JumpSystem",
    "GeneratorReport",
    "DirichletForm",
    "build_generator",
    "semigroup",
    "semigroup_spectral",
    "certify",
    "extract_alicki",
    "dirichlet_form",
]


@dataclass
class JumpSystem:
    """Alicki data {(v_j, omega_j)} with the involutive adjoint pairing."""

    W: WeightedAlgebra
    jumps: list                      # list of (v: ndarray, omega: float)
    pairing: list = field(default=None)  # j -> j* with v_{j*} = v_j*

    def __post_init__(self):
        self.jumps = [(as_cmatrix(v), float(w)) for v, w in self.jumps]
        if self.pairing is None:
            self.pairing = self._find_pairing()

    @property
    def m(self):
        return len(self.jumps)

    def _stack(self):
        """The jumps as one (m, n, n) stack, and their weights."""
        n = self.W.n
        v = np.array([v for v, _ in self.jumps]).reshape(self.m, n, n)
        return v, np.array([w for _, w in self.jumps], dtype=np.float64)

    def _find_pairing(self):
        """Match each jump with the one carrying its adjoint (best effort).

        Row j of res[j, k] = frob(v_k - v_j*) / frob(v_j) + |omega_k + omega_j|
        picks its first least entry, accepted below 1e-6.  The distances
        come from the matrix tr(v_j v_k), exact to about sqrt(eps) relative.

        A failed match is recorded as -1; ``validate`` turns that into a
        residual for the self-adjoint-as-set condition rather than raising
        here, so that deliberately broken systems can still be inspected.
        """
        if not self.jumps:
            return []
        v, omega = self._stack()
        norm2 = np.sum(np.abs(v) ** 2, axis=(1, 2))
        cross = np.einsum("jab,kba->jk", v, v).real
        dist = np.sqrt(np.maximum(np.add.outer(norm2, norm2) - 2.0 * cross, 0.0))
        res = (dist / np.maximum(np.sqrt(norm2), 1e-300)[:, None]
               + np.abs(np.add.outer(omega, omega)))
        best = np.argmin(res, axis=1)
        return [int(k) if r < 1e-6 else -1
                for k, r in zip(best, res[np.arange(self.m), best])]

    def validate(self):
        """Residuals of the four defining conditions, keyed by name."""
        res = dict.fromkeys(("traceless", "orthogonal", "self-adjoint-set",
                             "modular-eigenvector"), 0.0)
        if not self.jumps:
            return res
        v, omega = self._stack()
        norm = np.linalg.norm(v, axis=(1, 2))
        scale = np.maximum(norm, 1e-300)
        res["traceless"] = float(np.max(
            np.abs(np.trace(v, axis1=1, axis2=2)) / scale))
        # h v h^{-1} = e^{-omega} v, entry by entry in the eigenbasis of h:
        # v~ = u* v u vanishes where lam_a != e^{-omega} lam_b.  Each entry is
        # weighed by |lam_a - e^{-omega} lam_b| / (lam_a + e^{-omega} lam_b)
        # <= 1, so rounding in v~ is not amplified by cond(h) as in
        # h v h^{-1}, and an error eps in omega reads eps / 2
        lam = self.W.eig.eigenvalues
        down = np.exp(-omega)[:, None, None] * lam
        weight = (lam[:, None] - down) / (lam[:, None] + down)
        res["modular-eigenvector"] = float(np.max(np.linalg.norm(
            weight * self.W.to_eig(v), axis=(1, 2)) / scale))
        partner = np.asarray(self.pairing)
        gap = (np.linalg.norm(v[partner] - v.conj().transpose(0, 2, 1),
                              axis=(1, 2)) / scale
               + np.abs(omega[partner] + omega))
        res["self-adjoint-set"] = float(np.max(np.where(partner < 0, 1.0, gap)))
        flat = v.reshape(self.m, -1)
        overlap = np.abs(flat.conj() @ flat.T) / np.maximum(
            np.outer(norm, norm), 1e-300)
        np.fill_diagonal(overlap, 0.0)
        res["orthogonal"] = float(overlap.max())
        return res

    def check_valid(self, gate=1e-8):
        failed = {k: v for k, v in self.validate().items() if v > gate}
        if failed:
            raise InvalidJumpSystem(failed)


def build_generator(system: JumpSystem, validate=True) -> Superoperator:
    """Assemble L = sum_j e^{-w/2} v*[v,.] + e^{w/2} [.,v]v* as a superoperator."""
    if validate:
        system.check_valid()
    n = system.W.n
    v, omega = system._stack()
    vc, down, up = v.conj(), np.exp(-omega / 2.0), np.exp(omega / 2.0)
    eye = np.eye(n, dtype=np.complex128)
    # x -> sum_j a_j x b_j has the matrix sum_j kron(b_j.T, a_j)
    sandwich = (np.einsum("j,jik,jml->klim", down, v, vc)
                + np.einsum("j,jki,jlm->klim", up, vc, v)).reshape(n * n, n * n)
    return Superoperator(n, np.kron(eye, np.einsum("j,jba,jbc->ac", down, vc, v))
                         + np.kron(np.einsum("j,jab,jcb->ca", up, v, vc), eye)
                         - sandwich)


def semigroup(l: Superoperator, t: float) -> Superoperator:
    """P_t = e^{-tL} by scaling-and-squaring on the superoperator matrix."""
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    return Superoperator(l.n, expm(-t * l.matrix))


def semigroup_spectral(l: Superoperator, w: WeightedAlgebra, t: float) -> Superoperator:
    """P_t through the <.,.>_h-self-adjoint eigenbasis of L (cross-check path)."""
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    m = w.op_matrix(l)
    eig = herm_eig(0.5 * (m + m.conj().T), w.tol)
    u = eig.eigenvectors
    p_coords = (u * np.exp(-t * eig.eigenvalues)) @ u.conj().T
    # back to vec coordinates: K^{-1} P K with K = kron(h^{1/2}.T, 1)
    eye = np.eye(w.n)
    return Superoperator.from_matrix(
        np.kron(w.h_isqrt.T, eye) @ p_coords @ np.kron(w.h_sqrt.T, eye))


@dataclass(frozen=True)
class GeneratorReport:
    gns_symmetric: bool
    markov_unital: bool
    cp_semigroup: bool
    modular_commuting: bool
    residuals: dict


def certify(l: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL,
            ts=(0.05, 0.5, 2.0)) -> GeneratorReport:
    """Report-only certification of a raw generator.

    Residuals: unitality ||L(1)||, GNS self-adjointness in orthonormal
    coordinates, commutation with the modular superoperator, min Choi
    eigenvalue of e^{-tL} at the given times, and the agreement between the
    scaling-and-squaring and spectral semigroup paths.
    """
    n = w.n
    eye = np.eye(n, dtype=np.complex128)
    scale = max(frob(l.matrix), 1e-300)

    res_unital = w.norm(l.apply(eye)) / scale

    m = w.op_matrix(l)
    res_sym = frob(m - m.conj().T) / scale

    delta = TomitaData(w).modular_op()
    res_mod = frob(
        l.matrix @ delta.matrix - delta.matrix @ l.matrix
    ) / (scale * max(frob(delta.matrix), 1e-300))

    min_choi = np.inf
    unital_semigroup = 0.0
    for t in ts:
        p = semigroup(l, t)
        c = choi(p)
        eig = herm_eig(0.5 * (c + c.conj().T), tol)
        min_choi = min(min_choi, float(eig.eigenvalues[0]))
        unital_semigroup = max(unital_semigroup, w.norm(p.apply(eye) - eye))

    spectral = semigroup_spectral(l, w, 1.0)
    res_exp = frob(semigroup(l, 1.0).matrix - spectral.matrix) / max(
        frob(spectral.matrix), 1e-300
    )

    residuals = {
        "unital": res_unital,
        "gns_symmetric": res_sym,
        "modular_commuting": res_mod,
        "min_choi_eig": min_choi,
        "semigroup_unital": unital_semigroup,
        "semigroup_crosscheck": res_exp,
    }
    return GeneratorReport(
        gns_symmetric=res_sym <= tol.axiom,
        markov_unital=res_unital <= tol.axiom and unital_semigroup <= tol.axiom,
        cp_semigroup=min_choi >= -tol.choi,
        modular_commuting=res_mod <= tol.axiom,
        residuals=residuals,
    )


def _modular_basis(w: WeightedAlgebra, herm):
    """Traceless orthonormal basis of M_n (a stack) on which the modular
    operator is diagonal, with the class (``modular.bohr_classes``, exact
    values may agree) and the frequency omega of each element: Delta B =
    e^{omega} B, so B* is a jump of weight omega.  The diagonal enters as
    u D_l u* (generalized Gell-Mann ladder), a pair a < b as F_ab, F_ba
    (F_ab = u E_ab u*, omega = log lam_a - log lam_b, its rounding-class
    mean), or where ``herm`` as (F_ab + F_ba) / sqrt 2, i (F_ba - F_ab) / sqrt 2
    of frequency 0.
    """
    n = w.n
    same, mean, equal = bohr_classes(w)
    # row l of the ladder: 1 before index l, -l at l
    ladder = np.tril(np.ones((n, n)), -1) - np.diag(np.arange(n))
    ladder = ladder[1:] / np.sqrt(np.arange(1, n) * np.arange(2, n + 1))[:, None]
    units = matrix_units(n)
    a, b = np.triu_indices(n, 1)
    p, q = a * n + b, b * n + a
    pair = herm[:, None, None]
    basis = np.concatenate([
        ladder[:, :, None] * np.eye(n),
        np.where(pair, (units[p] + units[q]) / np.sqrt(2.0), units[p]),
        np.where(pair, 1j * (units[q] - units[p]) / np.sqrt(2.0), units[q]),
    ])
    idx = np.r_[np.zeros(n - 1, dtype=int), p, q]   # F_00 for the ladder
    freq = np.where(np.r_[np.ones(n - 1, bool), herm, herm], 0.0, mean[same[idx]])
    return w.from_eig(basis), equal[idx], freq


def _kossakowski(l: Superoperator, basis):
    """Kossakowski matrix k = -chi / 2 of L over a traceless orthonormal
    basis B_mu (a stack), where L(x) = sum chi[mu, nu] B_mu x B_nu* + (terms
    with the identity); Hermitian part."""
    n = l.n
    # the matrix of x -> B_mu x B_nu* is kron(conj(B_nu), B_mu), whose entry
    # (i n + k, j n + l) is conj(B_nu)[i, j] B_mu[k, l]
    chi = np.einsum("mkl,ikjl,nij->mn", basis.conj(),
                    l.matrix.reshape(n, n, n, n), basis, optimize=True)
    return -0.25 * (chi + chi.conj().T)


def _gauge(v, omega):
    """v times the phase that makes its first entry of largest magnitude
    real positive; a Hermitian jump (omega = 0) only flips its sign.

    Entries within 1e-8 relative of the largest magnitude count as largest,
    so that rounding cannot choose among entries of equal magnitude, such
    as v_00 and v_11 of a traceless Hermitian 2 x 2 jump.
    """
    flat_v = v.ravel()
    mag = np.abs(flat_v)
    p = flat_v[int(np.argmax(mag >= (1.0 - 1e-8) * mag.max()))]
    if abs(p) == 0:
        return v
    if omega == 0.0:
        s = p.real if abs(p.real) >= abs(p.imag) else p.imag
        return -v if s < 0 else v
    return v * (abs(p) / p)


def extract_alicki(l: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL) -> JumpSystem:
    """Recover a valid jump system from a GNS-symmetric Markov generator.

    Steps: (1) certify; (2) Kossakowski matrix K of the dissipative part
    over the basis of ``_modular_basis``, on which the modular operator is
    diagonal; (3) PSD gate on K (conditional complete positivity); (4) the
    eigenvectors of each block of K give the jumps.  A block is a component
    of the elements of one frequency class and of those K couples to them
    by more than their frequencies differ (rounding rotates the computed
    eigenvectors of eigenvalues of h that are g apart by about eps / g, so
    a generator built in another eigenbasis couples classes g apart), closed
    under adjoints.  A block of frequencies > 0 holds the adjoints of its
    jumps, emitted with those adjoints as partners; each jump takes the
    frequency of its largest coefficient.  A block equal to its adjoint is
    spanned by Hermitian elements, is real, and gives Hermitian, self-paired
    jumps of weight 0.  Gauge: omega descending, Frobenius norm descending,
    first largest-magnitude entry made real positive.  Closing checks:
    ``check_valid``, and the rebuilt generator within tol.roundtrip
    (relative), else ``InvalidJumpSystem`` with the residual "roundtrip".
    """
    return _extract_certified(l, w, certify(l, w, tol), tol)


def _extract_certified(l, w, report, tol):
    """``extract_alicki`` of a generator l whose certificate is ``report``."""
    if not (report.gns_symmetric and report.modular_commuting and report.markov_unital):
        raise NotGNSSymmetric(f"certification failed: {report.residuals}")
    n = w.n
    half = n * (n - 1) // 2
    basis, label, freq = _modular_basis(w, np.zeros(half, dtype=bool))
    k = _kossakowski(l, basis)
    k_scale = max(frob(k), 1e-300)

    k_eig = herm_eig(k, tol)
    if k_eig.eigenvalues[0] < -tol.choi * max(k_eig.eigenvalues[-1], k_scale):
        raise NotConditionallyCP(
            f"Kossakowski matrix has eigenvalue {k_eig.eigenvalues[0]:.3e}"
        )

    kappa_gate = tol.decomp * max(k_eig.eigenvalues[-1], 0.0)

    # element j of the upper pairs is the adjoint of element j of the lower
    mirror = np.r_[np.arange(n - 1), np.arange(half) + n - 1 + half,
                   np.arange(half) + n - 1]
    # dropping a coupling c costs about c in the rebuilt generator, merging
    # frequencies d apart about d (relative): link where c > d
    link = (label[:, None] == label) | (
        np.abs(k) > np.abs(np.subtract.outer(freq, freq)) * k_scale)
    link |= link[np.ix_(mirror, mirror)]
    for _ in range(n):    # paths of up to 2^n >= n^2 - 1 elements
        link = link @ link
    comp = np.argmax(link, axis=1)    # the least element of each component
    herm = comp[mirror] == comp
    if herm[n - 1:].any():
        basis, _, freq = _modular_basis(w, herm[n - 1:n - 1 + half])
        k = _kossakowski(l, basis)

    jumps = []    # (v, omega) for omega >= 0 only; partners added after
    for c in np.flatnonzero(comp == np.arange(comp.size)):
        cols = np.flatnonzero(comp == c)
        if freq[cols].sum() < 0.0:
            continue    # the jumps of the adjoint component, as partners
        block = k[np.ix_(cols, cols)]
        b_eig = herm_eig(block.real if herm[cols[0]] else block, tol)
        keep = np.flatnonzero(b_eig.eigenvalues > kappa_gate)[::-1]  # descending
        vecs = b_eig.eigenvectors[:, keep]
        omega = freq[cols][np.argmax(np.abs(vecs), axis=0)]
        adjoints = np.einsum(
            "mk,mij->kij",
            vecs * np.sqrt(b_eig.eigenvalues[keep] * np.exp(omega / 2.0)),
            basis[cols])
        jumps.extend(zip(adjoints.conj().transpose(0, 2, 1), omega))

    # gauge fixing; each jump of weight omega > 0 is followed by its adjoint,
    # and zero-weight jumps are Hermitian and self-paired
    all_jumps, partner = [], []
    for v, omega in jumps:
        v, j = _gauge(v, omega), len(all_jumps)
        if omega == 0.0:
            all_jumps.append((v, 0.0))
            partner.append(j)
        else:
            all_jumps += [(v, omega), (v.conj().T, -omega)]
            partner += [j + 1, j]
    order = sorted(range(len(all_jumps)),
                   key=lambda i: (-all_jumps[i][1], -frob(all_jumps[i][0])))
    rank = {old: new for new, old in enumerate(order)}
    system = JumpSystem(W=w, jumps=[all_jumps[i] for i in order],
                        pairing=[rank[partner[i]] for i in order])
    # build_generator runs the closing check_valid
    err = frob(build_generator(system).matrix - l.matrix) / max(frob(l.matrix), 1e-300)
    if err > tol.roundtrip:
        raise InvalidJumpSystem({"roundtrip": err})
    return system


class DirichletForm:
    """E(a, b) = <a, L(b)>_h, with the coordinate matrix cached."""

    def __init__(self, l: Superoperator, w: WeightedAlgebra, matrix):
        self.L = l
        self.W = w
        self.matrix = matrix  # Hermitian PSD in orthonormal coordinates

    def __call__(self, a, b):
        """E(a, b); for stacks (..., n, n) of a and b (broadcast against each
        other), one value per pair."""
        ca, cb = self.W.coords(a), self.W.coords(b)
        return np.sum(ca.conj() * (cb @ self.matrix.T), axis=-1)


def dirichlet_form(l: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL,
                   skip_certify=False) -> DirichletForm:
    """The Dirichlet form of a certified generator."""
    if not skip_certify:
        report = certify(l, w, tol)
        if not report.gns_symmetric:
            raise NotGNSSymmetric(f"residuals: {report.residuals}")
    m = w.op_matrix(l)
    return DirichletForm(l, w, 0.5 * (m + m.conj().T))
