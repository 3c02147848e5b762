"""Generators of GNS-symmetric quantum Markov semigroups in jump form.

A jump system over (M_n, phi = tr(. h)) is a family {(v_j, omega_j)} with

  (1) tr(v_j) = 0,
  (2) tr(v_j* v_k) = delta_jk tr(v_j* v_j),
  (3) {v_j} = {v_j*} with a pairing j -> j* such that omega_{j*} = -omega_j,
  (4) h v_j h^{-1} = e^{-omega_j} v_j,

and the induced generator is

  L = sum_j ( e^{-omega_j/2} v_j* [v_j, .] + e^{omega_j/2} [., v_j] v_j* ).

``extract_alicki`` inverts this: it recovers a valid jump system from a raw
generator by reading off the Kossakowski matrix of the dissipative part in a
traceless Hermitian basis and diagonalizing it inside the eigenspaces of the
modular superoperator.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .config import DEFAULT_TOL
from .errors import (
    InvalidJumpSystem,
    NegativeTime,
    NotConditionallyCP,
    NotGNSSymmetric,
)
from .modular import TomitaData, WeightedAlgebra
from .numkernel import Superoperator, as_cmatrix, choi, frob, herm_eig

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
    "traceless_basis",
]

# absolute gate for grouping modular eigenvalues by log
_OMEGA_GROUP_TOL = 1e-8


def traceless_basis(n):
    """Hermitian orthonormal basis of the traceless part of M_n.

    Generalized Gell-Mann matrices: symmetric and antisymmetric off-diagonal
    pairs followed by the diagonal ladder.  tr(G_a G_b) = delta_ab.
    """
    basis = []
    for a in range(n):
        for b in range(a + 1, n):
            sym = np.zeros((n, n), dtype=np.complex128)
            sym[a, b] = sym[b, a] = 1.0 / np.sqrt(2.0)
            basis.append(sym)
            asym = np.zeros((n, n), dtype=np.complex128)
            asym[a, b] = -1j / np.sqrt(2.0)
            asym[b, a] = 1j / np.sqrt(2.0)
            basis.append(asym)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=np.complex128)
        for k in range(l):
            d[k, k] = 1.0
        d[l, l] = -l
        basis.append(d / np.sqrt(l * (l + 1)))
    return basis


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

    def _find_pairing(self):
        """Match each jump with the one carrying its adjoint (best effort).

        A failed match is recorded as -1; ``validate`` turns that into a
        residual for the self-adjoint-as-set condition rather than raising
        here, so that deliberately broken systems can still be inspected.
        """
        pairing = []
        for j, (v, w) in enumerate(self.jumps):
            scale = max(frob(v), 1e-300)
            best, best_res = -1, np.inf
            for k, (u, wu) in enumerate(self.jumps):
                res = frob(u - v.conj().T) / scale + abs(wu + w)
                if res < best_res:
                    best, best_res = k, res
            pairing.append(best if best_res < 1e-6 else -1)
        return pairing

    def validate(self, tol=None):
        """Residuals of the four defining conditions, keyed by name."""
        tol = tol if tol is not None else self.W.tol
        h, h_inv = self.W.h, self.W.h_inv
        res = {
            "traceless": 0.0,
            "orthogonal": 0.0,
            "self-adjoint-set": 0.0,
            "modular-eigenvector": 0.0,
        }
        for j, (v, w) in enumerate(self.jumps):
            scale = max(frob(v), 1e-300)
            res["traceless"] = max(res["traceless"], abs(np.trace(v)) / scale)
            res["modular-eigenvector"] = max(
                res["modular-eigenvector"],
                frob(h @ v @ h_inv - np.exp(-w) * v) / scale,
            )
            js = self.pairing[j]
            if js < 0:
                res["self-adjoint-set"] = max(res["self-adjoint-set"], 1.0)
            else:
                u, wu = self.jumps[js]
                res["self-adjoint-set"] = max(
                    res["self-adjoint-set"],
                    frob(u - v.conj().T) / scale + abs(wu + w),
                )
        for j in range(self.m):
            for k in range(j + 1, self.m):
                vj, vk = self.jumps[j][0], self.jumps[k][0]
                denom = max(frob(vj) * frob(vk), 1e-300)
                res["orthogonal"] = max(
                    res["orthogonal"],
                    abs(np.trace(vj.conj().T @ vk)) / denom,
                )
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
    total = Superoperator.zero(n)
    eye = np.eye(n, dtype=np.complex128)
    for v, w in system.jumps:
        vs = v.conj().T
        # e^{-w/2} (v*v x - v* x v)
        total = total + np.exp(-w / 2.0) * (
            Superoperator.left_right(vs @ v, eye)
            - Superoperator.left_right(vs, v)
        )
        # e^{w/2} (x v v* - v x v*)
        total = total + np.exp(w / 2.0) * (
            Superoperator.left_right(eye, v @ vs)
            - Superoperator.left_right(v, vs)
        )
    return total


def semigroup(l: Superoperator, t: float) -> Superoperator:
    """P_t = e^{-tL} by scaling-and-squaring on the superoperator matrix."""
    if t < 0:
        raise NegativeTime(f"t = {t} < 0")
    return Superoperator(l.n, scipy.linalg.expm(-t * l.matrix))


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

    @property
    def all_pass(self):
        return (
            self.gns_symmetric
            and self.markov_unital
            and self.cp_semigroup
            and self.modular_commuting
        )


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


def _chi_matrix(l: Superoperator, basis):
    """chi with L(x) = sum_{mu,nu} chi[mu,nu] G_mu x G_nu over the full basis."""
    n = l.n
    full = [np.eye(n, dtype=np.complex128) / np.sqrt(n)] + list(basis)
    d = len(full)
    chi = np.zeros((d, d), dtype=np.complex128)
    for mu in range(d):
        for nu in range(d):
            b = np.kron(full[nu].T, full[mu])
            chi[mu, nu] = np.vdot(b, l.matrix)
    return chi


def extract_alicki(l: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL) -> JumpSystem:
    """Recover a valid jump system from a GNS-symmetric Markov generator.

    Steps: (1) certify; (2) Kossakowski matrix K of the dissipative part from
    the chi decomposition restricted to the traceless block; (3) PSD gate on K
    (conditional complete positivity); (4) block-diagonalize K along the
    eigenspaces of the modular superoperator on traceless coordinates,
    grouping eigenvalues whose logs agree to 1e-8; (5) eigenvectors of each
    block give the jumps.  Blocks at e^{+omega} (omega > 0) yield the jumps
    with weight +omega; their adjoint partners are emitted explicitly so the
    pairing is exact.  Gauge: omega descending, Frobenius norm descending,
    largest-magnitude entry made real positive.
    """
    report = certify(l, w, tol)
    if not (report.gns_symmetric and report.modular_commuting and report.markov_unital):
        raise NotGNSSymmetric(
            f"certification failed: {report.residuals}"
        )
    n = w.n
    basis = traceless_basis(n)
    d = len(basis)

    chi = _chi_matrix(l, basis)
    k = -0.5 * chi[1:, 1:]
    k = 0.5 * (k + k.conj().T)
    k_scale = max(frob(k), 1e-300)

    k_eig = herm_eig(k, tol)
    if k_eig.eigenvalues[0] < -tol.choi * max(k_eig.eigenvalues[-1], k_scale):
        raise NotConditionallyCP(
            f"Kossakowski matrix has eigenvalue {k_eig.eigenvalues[0]:.3e}"
        )

    # modular superoperator restricted to the traceless Hermitian basis
    dm = np.zeros((d, d), dtype=np.complex128)
    h, h_inv = w.h, w.h_inv
    for b_idx, g in enumerate(basis):
        img = h @ g @ h_inv
        for a_idx, ga in enumerate(basis):
            dm[a_idx, b_idx] = np.trace(ga @ img)
    dm = 0.5 * (dm + dm.conj().T)
    dm_eig = herm_eig(dm, tol)

    # group eigenvalues of Delta by log
    logs = np.log(np.maximum(dm_eig.eigenvalues, 1e-300))
    groups = []  # (log value, list of column indices)
    for idx in np.argsort(logs):
        if groups and abs(logs[idx] - groups[-1][0]) < _OMEGA_GROUP_TOL:
            groups[-1][1].append(idx)
        else:
            groups.append([logs[idx], [idx]])

    kappa_gate = tol.decomp * max(k_eig.eigenvalues[-1], 0.0)

    jumps = []    # (v, omega) for omega >= 0 only; partners added after
    for log_val, cols in groups:
        omega = log_val if abs(log_val) >= _OMEGA_GROUP_TOL else 0.0
        if omega < 0:
            continue  # recovered from the +omega block via adjoints
        u_g = dm_eig.eigenvectors[:, cols]
        block = u_g.conj().T @ k @ u_g
        block = 0.5 * (block + block.conj().T)
        if omega == 0.0:
            # the zero-weight block is real symmetric in the Hermitian basis;
            # real eigenvectors give Hermitian, self-paired jumps
            pg = u_g @ u_g.conj().T
            kk = pg @ k @ pg
            kk = 0.5 * (kk + kk.conj().T).real
            b_eig = herm_eig(kk.astype(np.complex128), tol)
            vecs = b_eig.eigenvectors.real
            vals = b_eig.eigenvalues
        else:
            b_eig = herm_eig(block, tol)
            vecs = u_g @ b_eig.eigenvectors
            vals = b_eig.eigenvalues
        for i in range(len(vals) - 1, -1, -1):  # descending
            kap = vals[i]
            if kap <= kappa_gate:
                break
            wbar = np.sqrt(kap * np.exp(omega / 2.0)) * vecs[:, i]
            coeffs = wbar.conj()
            v = sum(c * g for c, g in zip(coeffs, basis))
            jumps.append((v, omega))

    # gauge fixing and adjoint partners; zero-weight jumps are Hermitian and
    # self-paired, so only a sign flip is allowed for them
    fixed = []
    for v, omega in jumps:
        flat_v = v.flatten()
        p = flat_v[int(np.argmax(np.abs(flat_v)))]
        if abs(p) > 0:
            if omega == 0.0:
                s = p.real if abs(p.real) >= abs(p.imag) else p.imag
                if s < 0:
                    v = -v
            else:
                v = v * (abs(p) / p)
        fixed.append((v, omega))
    fixed.sort(key=lambda vw: (-vw[1], -frob(vw[0])))

    all_jumps = []
    pairing = []
    for v, omega in fixed:
        if omega == 0.0:
            pairing.append(len(all_jumps))
            all_jumps.append((v, 0.0))
        else:
            j = len(all_jumps)
            all_jumps.append((v, omega))
            all_jumps.append((v.conj().T, -omega))
            pairing.extend([j + 1, j])
    order = sorted(
        range(len(all_jumps)),
        key=lambda i: (-all_jumps[i][1], -frob(all_jumps[i][0])),
    )
    inv = {old: new for new, old in enumerate(order)}
    system = JumpSystem(
        W=w,
        jumps=[all_jumps[i] for i in order],
        pairing=[inv[pairing[i]] for i in order],
    )
    system.check_valid()
    return system


class DirichletForm:
    """E(a, b) = <a, L(b)>_h, with the coordinate matrix cached."""

    def __init__(self, l: Superoperator, w: WeightedAlgebra, matrix):
        self.L = l
        self.W = w
        self.matrix = matrix  # Hermitian PSD in orthonormal coordinates

    def __call__(self, a, b):
        return complex(
            np.vdot(self.W.coords(a), self.matrix @ self.W.coords(b))
        )


def dirichlet_form(l: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL,
                   skip_certify=False) -> DirichletForm:
    """The Dirichlet form of a certified generator."""
    if not skip_certify:
        report = certify(l, w, tol)
        if not report.gns_symmetric:
            raise NotGNSSymmetric(f"residuals: {report.residuals}")
    m = w.op_matrix(l)
    return DirichletForm(l, w, 0.5 * (m + m.conj().T))
