"""Truncated Fock spaces over the jump bimodule, and the free case."""

import itertools
from functools import partial

import numpy as np
import pytest
import scipy.linalg

import qms.fock
import qms.sampling
from qms.bimodule import FinBimodule
from qms.config import DEFAULT_TOL
from qms.errors import NotFixedPoint, SizeLimitExceeded
from qms.fock import TruncatedFock, fock_build, free_aw
from qms.modular import WeightedAlgebra
from qms.sampling import random_jump_system, random_weighted_algebra
from qms.suites import Scenario, ScenarioData, run_suite

from conftest import act_left, act_right
from test_reconstruct import traced_peak


def nontracial_a(d=3, seed=3, scale=0.7):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((d, d))
    return scipy.linalg.expm(1j * scale * (k - k.T))


def jump_bimodule(n, m, seed):
    """The bimodule of a random jump system with exactly m jumps."""
    rng = np.random.default_rng(seed)
    w = random_weighted_algebra(n, rng)
    for _ in range(100):
        system = random_jump_system(w, rng, m_max=m)
        if system.m == m:
            return FinBimodule(system)
    raise RuntimeError(f"no jump system with m = {m} at n = {n}")


def commutant_counts(monkeypatch):
    """The byte counts the commutant check passes to ``check_stage_bytes``."""
    counts, check = [], qms.fock.check_stage_bytes
    monkeypatch.setattr(qms.fock, "check_stage_bytes",
                        lambda nbytes, what: counts.append(nbytes) or check(nbytes, what))
    return counts


def rand_vec(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def inject(f, layer, vec):
    """The Fock vector with ``vec`` on ``layer`` and zero elsewhere."""
    out = np.zeros(f.D, dtype=np.complex128)
    o = f.offsets[layer]
    out[o : o + f.dims[layer]] = vec
    return out


def vacuum(f):
    """The vacuum Omega: the coordinates of 1 in layer 0."""
    return inject(f, 0, f.W.coords(np.eye(f.W.n)))


def b_creation(f, xi):
    """b(xi) as a dense matrix: appends xi on the right; layer k -> k + 1,
    each block the image of the identity."""
    up, off = f._creator(xi, right=True)[0], f.offsets
    out = np.zeros((f.D, f.D), dtype=np.complex128)
    for k in range(f._top):
        out[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = up(np.eye(f.dims[k]))
    return out


def pi_left(f, x):
    """Left action of M on the whole truncated Fock space."""
    return f._left(x, np.eye(f.D))


def conj_j(f, conj_i):
    """Antiunitary part of J on a ``ScalarFock`` built with the conjugation
    matrix ``conj_i``: apply as conj_j(f, conj_i) @ conj(vec)."""
    out = np.zeros((f.D, f.D), dtype=np.complex128)
    ik = np.eye(1, dtype=np.complex128)
    for k, (o, dk) in enumerate(zip(f.offsets, f.dims)):
        if k:
            ik = np.kron(ik, conj_i)
        # tensor reversal e_{i1..ik} -> e_{ik..i1}: reverse the digit axes
        rev = np.eye(dk).reshape((f.m,) * k + (dk,)).transpose(
            list(range(k))[::-1] + [k]).reshape(dk, dk)
        out[o:o + dk, o:o + dk] = ik @ rev
    return out


def s_op(f, xi):
    """s(xi) = a(xi) + a(xi)* as a dense D x D matrix."""
    a = f.creation(xi)
    return a + a.conj().T


def modular_unitary(f, t):
    """Delta^{it} of a ``ScalarFock`` as a dense D x D matrix, its layer
    blocks placed on the diagonal."""
    out = np.zeros((f.D, f.D), dtype=np.complex128)
    for o, dk, block in zip(f.offsets, f.dims, f.modular_blocks(t)):
        out[o:o + dk, o:o + dk] = block
    return out


def ou_semigroup(f, t):
    """exp(-tN) of a ``ScalarFock`` as a dense D x D matrix."""
    return np.diag(np.exp(-t * f._levels()))


def dense_ou_modular_commute(f, t=0.37, s=0.51):
    """||mu ou - ou mu||_F / ||ou||_F over the whole space, with the dense
    mu = Delta^{it} and ou = exp(-sN), ou diagonal (the free-AW suite's
    check, formed as before it went layer by layer)."""
    mu, ou = modular_unitary(f, t), ou_semigroup(f, s)
    o = np.diag(ou)
    return np.linalg.norm(mu * o - o[:, None] * mu) / max(np.linalg.norm(ou), 1e-300)


def safe_projector(f, max_layer):
    """The projector onto layers 0..max_layer of a ``TruncatedFock``."""
    p = np.zeros(f.D)
    p[: f.offsets[max_layer + 1]] = 1.0
    return np.diag(p)


def vacuum_expectation(f, x_mat):
    """E(X) = I* X I in M (layer-0 block projected onto left
    multiplications) and the weight phi_hat(X) = phi(E(X))."""
    n = f.W.n
    blocks = x_mat[: f.dims[0], : f.dims[0]].reshape(n, n, n, n)
    e = np.einsum("ikil->kl", blocks) / n
    return e, complex(np.trace(e @ f.W.h))


# Reference: the defining formulas of the M-valued inner product, on
# coordinate vectors of the bimodule.

def pairing(b, xi, eta):
    """(xi|eta) = sum_j xi_j* eta_j in M."""
    x, y = b.W.from_eig(b.from_coords(xi)), b.W.from_eig(b.from_coords(eta))
    return np.einsum("jrk,jrl->kl", x.conj(), y)


def tensor_pairing(b, xs, ys):
    """(x_1 (x) ... (x) x_k | y_1 (x) ... (x) y_k) in M, by iterating
    (xi_1 (x) xi_2 | eta_1 (x) eta_2) = (xi_2 | (xi_1|eta_1) eta_2)."""
    p = np.eye(b.n)
    for x, y in zip(xs, ys):
        p = pairing(b, x, b.coords(act_left(b, p, b.from_coords(y))))
    return p


@pytest.fixture
def bim3(qubit_system3):
    return FinBimodule(qubit_system3)


def s0(b, xi):
    """S_0 xi = J U_{-i/2} xi on the bimodule."""
    return b.coords(b.conj_ambient(b.mod_group(-0.5j, b.from_coords(xi))))


# Reference: the Fock operators and checks as dense Kronecker formulas over
# the whole truncated space, one D x D matrix per operator.

def kron_raising(f, block):
    out = np.zeros((f.D, f.D), dtype=np.complex128)
    off = f.offsets
    for k in range(f.d_max if f.m else 0):
        out[off[k + 1]:off[k + 2], off[k]:off[k + 1]] = block(k)
    return out


def kron_creation(f, xi):
    eye_n = np.eye(f.W.n)
    lams = [np.kron(eye_n, x @ f.W.h_isqrt) for x in f._coord_mats(xi)]
    return kron_raising(f, lambda k: np.concatenate(
        [np.kron(np.eye(f.m ** k), lam) for lam in lams]))


def kron_b_creation(f, xi):
    eye_n = np.eye(f.W.n)
    rho = np.concatenate([np.kron((f.W.h_isqrt @ x).T, eye_n)
                          for x in f._coord_mats(xi)])
    return kron_raising(f, lambda k: np.kron(np.eye(f.m ** k), rho))


def kron_pi_left(f, x):
    return np.kron(np.eye(f.D // f.W.n), x)


def kron_commutant(f, xi, eta):
    a, b = kron_creation(f, xi), kron_b_creation(f, eta)
    s, t = a + a.conj().T, b + b.conj().T
    p = safe_projector(f, max(f.d_max - 2, 0))
    resid = np.linalg.norm((s @ t - t @ s) @ p, 2)
    return resid / max(np.linalg.norm(s @ p, 2) * np.linalg.norm(t @ p, 2),
                       1e-300)


def kron_lambda_identities(f, xs, xis):
    omega = vacuum(f)
    worst_x = max(np.linalg.norm(f.layer_block(kron_pi_left(f, x) @ omega, 0)
                                 - f.W.coords(x))
                  / np.linalg.norm(f.W.coords(x)) for x in xs)
    worst_xi = 0.0
    for xi in xis:
        a = kron_creation(f, xi)
        got = (a + a.conj().T) @ omega
        worst_xi = max(worst_xi, np.linalg.norm(got - inject(f, 1, xi))
                       / np.linalg.norm(xi))
    return {"pi_left": worst_x, "s_vector": worst_xi}


def kron_delta_matrix(d, layer):
    """delta on (C^d)^{(x)layer} into (C^{2d})^{(x)layer}: the sum over
    positions of the bottom embedding there and the top one elsewhere."""
    if layer == 0:
        return np.zeros((1, 1), dtype=np.complex128)
    emb_top, emb_bot = np.hsplit(np.eye(2 * d), 2)
    total = 0.0
    for k in range(layer):
        mat = np.eye(1)
        for j in range(layer):
            mat = np.kron(mat, emb_bot if j == k else emb_top)
        total = total + mat
    return total.astype(np.complex128)


class TestJumpCorrespondence:
    """The antilinear maps S_0, F_0 that the Fock space reads off the
    bimodule of a jump system."""

    def test_fixed_bases_nonempty(self, bim3):
        f = fock_build(bim3)
        xis, etas = f.fixed_vectors()
        assert len(xis) == len(etas) == f.dims[1]
        for xi in xis:
            assert np.linalg.norm(s0(bim3, xi) - xi) < 1e-9

    def test_one_group_matrix_each(self, bim3, monkeypatch):
        """The fixed vectors and the S0/F0 gates of the commutant check
        share one U_{-i/2} and one U_{i/2} per Fock space."""
        group, calls = FinBimodule.mod_group, []
        monkeypatch.setattr(FinBimodule, "mod_group",
                            lambda self, z, xi: calls.append(z) or group(self, z, xi))
        f = fock_build(bim3, d_max=3)
        for _ in range(2):
            xis, etas = f.fixed_vectors()
            for xi in xis[:2]:
                for eta in etas[:2]:
                    f.commutant_check(xi, eta)
        assert len(calls) == 2 and set(calls) == {-0.5j, 0.5j}

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 2), (3, 6)])
    def test_fixed_vectors_are_projections(self, n, m):
        """S0 and F0 are involutions, and fixed vector k is the longer of
        P e_k and P(i e_k), P = (1 + S0)/2 (F0 alike): it is fixed, of norm
        >= 1/2, and e_k = P e_k - i P(i e_k)."""
        b = jump_bimodule(n, m, seed=88)
        f = fock_build(b)
        d = f.dims[1]
        for a, got in zip((f._a_s, f._a_f), f.fixed_vectors()):
            assert np.linalg.norm(a @ a.conj() - np.eye(d)) < 1e-12
            for k, v in enumerate(got):
                e = np.eye(d)[k]
                plus = 0.5 * (e + a @ np.conj(e))
                minus = 0.5 * (1j * e + a @ np.conj(1j * e))
                assert np.linalg.norm(plus - 1j * minus - e) < 1e-12
                want = plus if np.linalg.norm(plus) >= np.linalg.norm(minus) else minus
                assert np.linalg.norm(v - want) <= 1e-15
                assert np.linalg.norm(v) >= 0.5
                assert np.linalg.norm(a @ np.conj(v) - v) < 1e-12
        for xi in f.fixed_vectors()[0][:3]:
            assert np.linalg.norm(s0(b, xi) - xi) < 1e-12


class TestRelTensor:
    """H (x)_phi H as the Fock layers realize it, against the actions of
    the bimodule."""

    def test_unit_laws(self, bim3):
        """L2 (x)_phi H ~ H and H (x)_phi L2 ~ H: b(eta) maps the layer-0
        vector x phi^{1/2} to x eta, a(xi) maps y phi^{1/2} to xi y."""
        b, f = bim3, fock_build(bim3)
        rng = np.random.default_rng(64)
        for _ in range(5):
            xi, eta = rand_vec(rng, f.dims[1]), rand_vec(rng, f.dims[1])
            x, y = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(2))
            got = b_creation(f, eta) @ inject(f, 0, b.W.coords(x))
            want = inject(f, 1, b.coords(act_left(b, x, b.from_coords(eta))))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            got = f.creation(xi) @ inject(f, 0, b.W.coords(y))
            want = inject(f, 1, b.coords(act_right(b, y, b.from_coords(xi))))
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_associativity(self, bim3):
        """(x1 (x) x2) (x) x3 = x1 (x) (x2 (x) x3) on layer 3."""
        f = fock_build(bim3, d_max=3)
        a, b, omega = f.creation, partial(b_creation, f), vacuum(f)
        rng = np.random.default_rng(65)
        for _ in range(5):
            x1, x2, x3 = (rand_vec(rng, f.dims[1]) for _ in range(3))
            lhs = b(x3) @ (a(x1) @ (a(x2) @ omega))
            rhs = a(x1) @ (b(x3) @ (a(x2) @ omega))
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_balancing(self, bim3):
        """xi . x (x) eta = xi (x) x eta on layer 2."""
        b, f = bim3, fock_build(bim3)
        a, omega = f.creation, vacuum(f)
        rng = np.random.default_rng(66)
        for _ in range(10):
            xi, eta = rand_vec(rng, f.dims[1]), rand_vec(rng, f.dims[1])
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            xi_x = b.coords(act_right(b, x, b.from_coords(xi)))
            x_eta = b.coords(act_left(b, x, b.from_coords(eta)))
            lhs = a(xi_x) @ (a(eta) @ omega)
            rhs = a(xi) @ (a(x_eta) @ omega)
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(
                np.linalg.norm(rhs), 1.0)


class TestTruncatedFock:
    @pytest.fixture
    def fock3(self, bim3):
        return fock_build(bim3, d_max=3)

    def test_layer_dims_golden(self, fock3):
        """[DERIVED] layer dimensions for the three-jump reference system."""
        assert fock3.dims == [4, 12, 36, 108]

    def test_creation_on_vacuum(self, fock3):
        rng = np.random.default_rng(65)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = fock3.creation(xi) @ vacuum(fock3)
        np.testing.assert_allclose(got, inject(fock3, 1, xi), atol=1e-10)

    def test_annihilation_pairing(self, fock3, bim3):
        """a(xi)* a(eta) on the vacuum recovers the phi-pairing."""
        rng = np.random.default_rng(66)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        eta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        omega = vacuum(fock3)
        lhs = np.vdot(fock3.creation(xi) @ omega, fock3.creation(eta) @ omega)
        m = pairing(bim3, xi, eta)
        rhs = np.trace(m @ bim3.W.h)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_lambda_identities(self, fock3):
        rng = np.random.default_rng(67)
        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(5)]
        xis = [rng.standard_normal(12) + 1j * rng.standard_normal(12)
               for _ in range(5)]
        res = fock3.lambda_identities(xs, xis)
        assert res["pi_left"] < 1e-10
        assert res["s_vector"] < 1e-10

    def test_commutant(self, fock3):
        worst = 0.0
        xis, etas = fock3.fixed_vectors()
        for xi in xis[:3]:
            for eta in etas[:3]:
                worst = max(worst, fock3.commutant_check(xi, eta))
        assert worst <= 1e-9

    def test_commutant_grid_matches_pairs(self, fock3, monkeypatch):
        """Stacks of 3 xi and 3 eta build each creator, and so each image of
        the safe columns, once per vector, and give every pair's residual
        bit for bit."""
        xis, etas = (v[:3] for v in fock3.fixed_vectors())
        want = [[fock3.commutant_check(xi, eta) for eta in etas] for xi in xis]
        creator, calls = TruncatedFock._creator, []
        monkeypatch.setattr(TruncatedFock, "_creator",
                            lambda self, *args, **kwargs: calls.append(1)
                            or creator(self, *args, **kwargs))
        grid = fock3.commutant_check(xis, etas)
        assert len(calls) == 6
        assert grid.shape == (3, 3)
        assert np.array_equal(grid, want)

    def test_size_limit_counts_every_image(self, fock3, monkeypatch):
        """A budget that holds the peak of one pair does not hold that of
        a 3 x 3 grid, whose six images of s and t are all kept."""
        k, mid, rows = (int(fock3.offsets[i]) for i in (2, 3, 4))
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES",
                            16 * k * (2 * rows + 2 * mid))
        xis, etas = (v[:3] for v in fock3.fixed_vectors())
        assert fock3.commutant_check(xis[0], etas[0]) <= 1e-9
        with pytest.raises(SizeLimitExceeded, match="at its peak"):
            fock3.commutant_check(xis, etas)

    def test_commutant_rejects_bad_vector(self, fock3):
        rng = np.random.default_rng(68)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        with pytest.raises(NotFixedPoint):
            fock3.commutant_check(xi, xi)

    def test_commutant_gate_is_axiom_tolerance(self, bim3, fock3):
        """A 1e-7 relative departure from S0-fixedness fails the default
        gate (tol.axiom = 1e-9) and passes once tol.axiom is 1e-5."""
        xi, eta = (v[0] for v in fock3.fixed_vectors())
        rng = np.random.default_rng(70)
        r = rand_vec(rng, len(xi))
        xi = xi + 1e-7 * np.linalg.norm(xi) * r / np.linalg.norm(r)
        with pytest.raises(NotFixedPoint):
            fock3.commutant_check(xi, eta)
        loose = fock_build(bim3, d_max=3, tol=DEFAULT_TOL.override(axiom=1e-5))
        assert loose.commutant_check(xi, eta) < 1e-5

    def test_vacuum_expectation_unital(self, fock3):
        e, weight = vacuum_expectation(fock3, np.eye(fock3.D, dtype=complex))
        np.testing.assert_allclose(e, np.eye(2), atol=1e-12)
        assert abs(weight - 1.0) < 1e-12

    def test_vacuum_expectation_of_s_squared(self, fock3, bim3):
        rng = np.random.default_rng(69)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s = s_op(fock3, xi)
        e, _ = vacuum_expectation(fock3, s @ s)
        m = pairing(bim3, xi, xi)
        np.testing.assert_allclose(e, m, atol=1e-9 * max(np.linalg.norm(m), 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_layers_match_gram_route(self, n, qubit_system3):
        """Words in a/b on the vacuum have the Gram matrix of the relative
        tensor product, <x (x) y, x' (x) y'> = phi((x (x) y | x' (x) y'))."""
        rng = np.random.default_rng(75)
        if n == 2:
            system = qubit_system3
        else:
            system = random_jump_system(random_weighted_algebra(3, rng), rng,
                                        m_max=2)
        bim = FinBimodule(system)
        f = fock_build(bim, d_max=3)
        a, b, omega = f.creation, partial(b_creation, f), vacuum(f)
        fock2, words2, fock3, words3 = [], [], [], []
        for k in range(8):
            x1, x2, x3 = (rand_vec(rng, f.dims[1]) for _ in range(3))
            # x1 (x) x2 built three ways, x1 (x) x2 (x) x3 two ways
            word2 = [a(x1) @ a(x2), a(x1) @ b(x2), b(x2) @ b(x1)][k % 3]
            word3 = [a(x1) @ a(x2) @ a(x3), a(x1) @ b(x3) @ a(x2)][k % 2]
            fock2.append(f.layer_block(word2 @ omega, 2))
            fock3.append(f.layer_block(word3 @ omega, 3))
            words2.append((x1, x2))
            words3.append((x1, x2, x3))
        for fv, words in ((fock2, words2), (fock3, words3)):
            fv = np.array(fv)
            g_fock = fv.conj() @ fv.T
            g_ref = np.array([[np.trace(tensor_pairing(bim, xs, ys) @ bim.W.h)
                               for ys in words] for xs in words])
            assert np.linalg.norm(g_fock - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    def test_large_layers_build(self):
        """[DERIVED] n = 3, m = 6, d_max = 3: dims m^k n^2, no layer Gram;
        the commutant check fits the size budget and holds."""
        rng = np.random.default_rng(76)
        system = random_jump_system(random_weighted_algebra(3, rng), rng,
                                    m_max=6)
        f = fock_build(FinBimodule(system), d_max=3)
        assert f.dims == [9, 54, 324, 1944]
        assert f.commutant_check(*(v[0] for v in f.fixed_vectors())) <= 1e-9

    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_dense_operators_match_kron(self, n, m):
        """The dense matrices assembled from the block applies are the
        Kronecker formulas, entry for entry."""
        f = fock_build(jump_bimodule(n, m, seed=80), d_max=3)
        rng = np.random.default_rng(81)
        xi = rand_vec(rng, f.dims[1])
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(f.creation(xi), kron_creation(f, xi))
        assert np.array_equal(b_creation(f, xi), kron_b_creation(f, xi))
        assert np.array_equal(pi_left(f, x), kron_pi_left(f, x))

    @pytest.mark.parametrize("d_max", [2, 3, 4])
    @pytest.mark.parametrize("n, m", [(2, 3), (3, 2)])
    def test_commutant_matches_dense(self, n, m, d_max):
        """The safe-column norms equal the dense ||[s, t] P|| / (||s P||
        ||t P||) with full SVDs, on fixed pairs and, with the gate opened,
        on random pairs whose commutator is of order one."""
        f = fock_build(jump_bimodule(n, m, seed=82), d_max=d_max,
                       tol=DEFAULT_TOL.override(axiom=1e300))
        rng = np.random.default_rng(83)
        pairs = [tuple(v[0] for v in f.fixed_vectors())]
        pairs += [tuple(rand_vec(rng, (2, f.dims[1]))) for _ in range(2)]
        for k, (xi, eta) in enumerate(pairs):
            got, want = f.commutant_check(xi, eta), kron_commutant(f, xi, eta)
            if k:
                assert want > 1e-3
            assert abs(got - want) <= 1e-12 * max(want, 1e-3)

    @pytest.mark.parametrize("per_block", [1, 5])
    def test_commutant_column_blocks(self, per_block, monkeypatch):
        """Under a block budget below one pair's image of [s, t] each pair
        is its own tile, and gives the dense residual, on a fixed pair and
        a random one."""
        f = fock_build(jump_bimodule(2, 3, seed=82), d_max=4,
                       tol=DEFAULT_TOL.override(axiom=1e300))
        rows = int(f.offsets[-1])
        monkeypatch.setattr(qms.fock, "_COMMUTANT_BLOCK_BYTES",
                            16 * rows * per_block)
        rng = np.random.default_rng(87)
        for xi, eta in [tuple(v[0] for v in f.fixed_vectors()),
                        tuple(rand_vec(rng, (2, f.dims[1])))]:
            got, want = f.commutant_check(xi, eta), kron_commutant(f, xi, eta)
            assert abs(got - want) <= 1e-12 * max(want, 1e-3)

    def test_lambda_identities_match_dense(self, fock3):
        rng = np.random.default_rng(84)
        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(5)]
        xis = [rng.standard_normal(12) + 1j * rng.standard_normal(12)
               for _ in range(5)]
        got = fock3.lambda_identities(xs, xis)
        want = kron_lambda_identities(fock3, xs, xis)
        for name in ("pi_left", "s_vector"):
            assert abs(got[name] - want[name]) <= 1e-14

    @pytest.mark.parametrize("n, m, d_max", [
        (2, 3, 7), (2, 3, 12), (3, 6, 5), (4, 13, 3), (4, 15, 3)])
    def test_size_limit(self, n, m, d_max, monkeypatch):
        """Over-budget (n, m, d_max) raise the named size error before the
        commutant check allocates anything."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        w = random_weighted_algebra(n, np.random.default_rng(85))
        d = m * n * n
        f = TruncatedFock(w, m, np.eye(d), np.eye(d), d_max)
        for name in ("_apply", "_creator"):
            monkeypatch.setattr(TruncatedFock, name, refuse)
        zero = np.zeros(d, dtype=complex)
        with pytest.raises(SizeLimitExceeded):
            f.commutant_check(zero, zero)

    def test_size_limit_counts_peak(self, fock3, monkeypatch):
        """A budget that holds the image of [s, t] on the safe columns, but
        not the peak of the check (that image, the einsum output of its
        widest apply and the images of s and t), raises before anything is
        allocated."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        k, rows = int(fock3.offsets[2]), int(fock3.offsets[4])
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES", 16 * rows * k)
        for name in ("_apply", "_creator"):
            monkeypatch.setattr(TruncatedFock, name, refuse)
        zero = np.zeros(fock3.dims[1], dtype=complex)
        with pytest.raises(SizeLimitExceeded, match="at its peak"):
            fock3.commutant_check(zero, zero)

    @pytest.mark.parametrize("pairs", [1, 2, 4, 9])
    def test_commutant_tiles(self, fock3, pairs, monkeypatch):
        """Tiles of 1, 2, 4 or 9 pairs give the grid bit for bit; each tile
        takes one apply per operator, over the stacked images of the other
        side, on top of one apply per vector for the images of s and t."""
        xis, etas = (v[:3] for v in fock3.fixed_vectors())
        want = fock3.commutant_check(xis, etas)
        k, rows = int(fock3.offsets[2]), int(fock3.offsets[4])
        monkeypatch.setattr(qms.fock, "_COMMUTANT_BLOCK_BYTES", 16 * rows * k * pairs)
        apply, calls = TruncatedFock._apply, []
        monkeypatch.setattr(TruncatedFock, "_apply",
                            lambda self, *args: calls.append(1) or apply(self, *args))
        assert np.array_equal(fock3.commutant_check(xis, etas), want)
        tiles = {1: [(1, 1)] * 9, 2: [(1, 2), (1, 1)] * 3, 4: [(1, 3)] * 3,
                 9: [(3, 3)]}[pairs]
        assert len(calls) == 6 + sum(a + b for a, b in tiles)

    @pytest.mark.parametrize("grid", [1, 3])
    @pytest.mark.parametrize("n, m, d_max", [
        (n, m, d_max) for n in (2, 3, 4) for m in sorted({n, min(2 * n, n * n - 1)})
        for d_max in (2, 3, 4) if (n, m, d_max) not in {(3, 6, 4), (4, 4, 4), (4, 8, 4)}])
    def test_count_bounds_peak(self, n, m, d_max, grid, monkeypatch):
        """The bytes the check counts bound the most tracemalloc sees it
        hold, on one pair and on a 3 x 3 grid (sizes whose count passes
        64 MiB are left out to keep the test small)."""
        f = fock_build(jump_bimodule(n, m, seed=88), d_max=d_max)
        xis, etas = (v[:grid] for v in f.fixed_vectors())
        counts = commutant_counts(monkeypatch)
        f.commutant_check(xis, etas)
        peak = traced_peak(lambda: f.commutant_check(xis, etas))[1]
        assert peak <= counts[-1] <= 1 << 26

    def test_refused_one_byte_below_count(self, fock3, monkeypatch):
        """One byte below its count the check raises the named size error
        before any apply; at its count it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("applied before the size check")

        xis, etas = (v[:3] for v in fock3.fixed_vectors())
        with monkeypatch.context() as mp:
            counts = commutant_counts(mp)
            fock3.commutant_check(xis, etas)
        with monkeypatch.context() as mp:
            mp.setattr(qms.sampling, "_STAGE_BYTES", counts[-1] - 1)
            mp.setattr(TruncatedFock, "_apply", refuse)
            with pytest.raises(SizeLimitExceeded, match="at its peak"):
                fock3.commutant_check(xis, etas)
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES", counts[-1])
        assert np.max(fock3.commutant_check(xis, etas)) <= 1e-9

    def test_count_admits_what_the_old_count_admitted(self, monkeypatch):
        """For n <= 6, m <= 2 n^2, d_max <= 5 and grids of up to 3 x 3, every
        check that the count 16 k (2 rows + (S + T) mid) of the SVD version
        admitted is admitted.  The new count is not below the old one
        everywhere: the old one bounded no peak (at n = m = d_max = 2 the
        SVD version held 14 KB against 5 KB counted), a tile of several
        pairs holds more than two images, and at small m the k x k Grams
        of the image norms weigh as much as the images."""
        class Counted(Exception):
            pass

        counts = []

        def record(nbytes, what):
            counts.append(nbytes)
            raise Counted

        monkeypatch.setattr(qms.fock, "check_stage_bytes", record)
        limit = qms.sampling._STAGE_BYTES
        for n in range(1, 7):
            w = random_weighted_algebra(n, np.random.default_rng(n)) if n > 1 \
                else WeightedAlgebra(np.eye(1))
            for m in range(2 * n * n + 1):
                d = m * n * n
                for d_max in range(6):
                    # the count comes before S0 and F0 are read
                    f = TruncatedFock(w, m, None, None, d_max)
                    safe = max(d_max - 2, 0)
                    k, mid, rows = (int(f.offsets[min(layer, f._top) + 1])
                                    for layer in (safe, safe + 1, safe + 2))
                    for s_n, t_n in itertools.product((1, 2, 3), repeat=2):
                        with pytest.raises(Counted):
                            f.commutant_check(np.zeros((s_n, d)), np.zeros((t_n, d)))
                        old = 16 * k * (2 * rows + (s_n + t_n) * mid)
                        if old <= limit:
                            assert counts[-1] <= limit, (n, m, d_max, s_n, t_n)

    def test_size_limit_vacuum_identities(self, fock3, monkeypatch):
        """The vacuum identities check their (layer 0 and 1) arrays against
        the same budget before they allocate."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES",
                            16 * fock3.offsets[2] - 1)
        for name in ("_apply", "_creator", "_left"):
            monkeypatch.setattr(TruncatedFock, name, refuse)
        with pytest.raises(SizeLimitExceeded):
            fock3.lambda_identities([np.eye(2)], [np.zeros(12)])


class TestScalarFock:
    @pytest.mark.parametrize("d, depth",
                             [(2, 12), (3, 7), (4, 6), (20, 3), (128, 2)])
    def test_size_limit(self, d, depth, monkeypatch):
        """Over-budget (d, depth) raise the named size error before anything
        is allocated."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        monkeypatch.setattr(qms.fock, "as_cmatrix", refuse)
        with pytest.raises(SizeLimitExceeded):
            free_aw(np.eye(d), d_max=depth)

    def test_size_limit_admits_old_set(self):
        """The model admits exactly the (d, depth) whose largest array,
        16 max(D^2, (2d)^depth) bytes, fits 128 MiB: counting two such arrays
        against the stage limit changes no admission."""
        for d in range(1, 9):
            for depth in range(13):
                dim = sum(d ** k for k in range(depth + 1))
                admitted = 16 * max(dim * dim, (2 * d) ** depth) <= 1 << 27
                try:
                    free_aw(np.eye(d), d_max=depth)
                except SizeLimitExceeded:
                    assert not admitted, (d, depth)
                else:
                    assert admitted, (d, depth)

    @pytest.mark.parametrize("d, depth",
                             [(2, 6), (3, 5), (4, 4), (1, 8), (2, 8)])
    def test_size_limit_admits(self, d, depth):
        """Within budget, the model builds and delta, the energy and the
        OU semigroup run on its top layer."""
        assert qms.fock._scalar_fock_bytes(d, depth) <= \
            qms.sampling._STAGE_BYTES
        f = free_aw(np.eye(d), d_max=depth)
        xi = np.ones(f.D, dtype=complex)
        top = f.layer_block(xi, depth)
        assert f.derivation_pairing(top, depth, top, depth) == depth * len(top)
        assert f.energy(xi) == sum(k * dk for k, dk in enumerate(f.dims))
        assert ou_semigroup(f, 0.5).shape == (f.D, f.D)

    @pytest.mark.parametrize("d", range(2, 8))
    def test_size_count_bounds_suite_peak(self, d):
        """At the deepest depth the count admits, the whole free-AW suite
        holds no more than it counts (tracemalloc peak)."""
        depth = max(k for k in range(13) if qms.fock._scalar_fock_bytes(d, k)
                    <= qms.sampling._STAGE_BYTES)
        sc = Scenario(ScenarioData(W=WeightedAlgebra(np.eye(1)), fock_spec={
            "A": nontracial_a(d), "I": None, "depth": depth}), DEFAULT_TOL)
        _, peak = traced_peak(lambda: run_suite("free-aw-derivation", sc))
        assert peak <= qms.fock._scalar_fock_bytes(d, depth)

    @pytest.mark.parametrize("layer", range(6))
    @pytest.mark.parametrize("d", [2, 3])
    def test_delta_matches_kron(self, d, layer):
        """delta(xi) is the Kronecker delta matrix applied to xi, bit for
        bit: its terms fill disjoint slabs, so nothing is summed."""
        f = free_aw(np.eye(d), d_max=5)
        rng = np.random.default_rng(86)
        dim = d ** layer
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assert np.array_equal(f.delta(xi, layer),
                              kron_delta_matrix(d, layer) @ xi)

    @pytest.mark.parametrize("d, depth", [(2, 6), (3, 5), (4, 4), (3, 4)])
    def test_ou_modular_commute_matches_dense(self, d, depth):
        """The suite's residual, summed layer by layer over the blocks of
        Delta^{it}, is the dense ||mu ou - ou mu||_F / ||ou||_F bit for bit,
        on the non-tracial A of these tests."""
        a = nontracial_a(d)
        sc = Scenario(ScenarioData(W=WeightedAlgebra(np.eye(1)), fock_spec={
            "A": a, "I": None, "depth": depth}), DEFAULT_TOL)
        got = {c["name"]: c["residual"] for c in run_suite("free-aw-derivation", sc)}
        want = dense_ou_modular_commute(free_aw(a, d_max=depth))
        assert got["free_aw/ou_modular_commute"] == want

    def test_tracial_commutator(self):
        """Real left/right fields commute exactly in the tracial scalar case."""
        f = free_aw(np.eye(2), d_max=3)
        rng = np.random.default_rng(70)
        xi = rng.standard_normal(2).astype(complex)
        eta = rng.standard_normal(2).astype(complex)
        s = s_op(f, xi)
        # right field: append on the right
        b = np.zeros((f.D, f.D), dtype=complex)
        for k in range(f.d_max):
            blk = np.kron(np.eye(f.dims[k]), eta.reshape(-1, 1))
            b[f.offsets[k + 1]:f.offsets[k + 2],
              f.offsets[k]:f.offsets[k + 1]] = blk
        t = b + b.conj().T
        comm = s @ t - t @ s
        safe = np.zeros(f.D)
        safe[: f.offsets[f.d_max - 1]] = 1.0
        assert np.linalg.norm((comm * safe[None, :]) * safe[:, None]) < 1e-12

    def test_truncated_field_norm(self):
        """[DERIVED] ||s(e)|| = 2 cos(pi / (d_max + 2)) exactly when d = 1."""
        for d_max in (3, 4, 6):
            f = free_aw(np.eye(1), d_max=d_max)
            s = s_op(f, np.array([1.0 + 0j]))
            want = 2.0 * np.cos(np.pi / (d_max + 2))
            assert abs(np.linalg.norm(s, 2) - want) < 1e-12
        # deep truncation approaches the semicircular norm 2||xi||
        f8 = free_aw(np.eye(1), d_max=8)
        assert abs(np.linalg.norm(s_op(f8, np.array([1.0 + 0j])), 2) - 2.0) < 0.1

    def test_nontracial_structure(self):
        f = free_aw(nontracial_a(), d_max=4)
        assert f.commutation_residual < 1e-10
        # J is an involution
        jc = conj_j(f, np.eye(3))
        np.testing.assert_allclose(jc @ jc.conj(), np.eye(f.D), atol=1e-10)
        # modular unitaries form a group and commute with OU
        t1, t2 = 0.37, -0.61
        np.testing.assert_allclose(
            modular_unitary(f, t1) @ modular_unitary(f, t2),
            modular_unitary(f, t1 + t2), atol=1e-10)
        ou = ou_semigroup(f, 0.4)
        mu = modular_unitary(f, t1)
        assert np.linalg.norm(mu @ ou - ou @ mu) < 1e-10

    def test_derivation_pairing_scaling(self):
        f = free_aw(nontracial_a(), d_max=4)
        rng = np.random.default_rng(71)
        for layer in range(f.d_max + 1):
            xi = rng.standard_normal(f.dims[layer]) \
                + 1j * rng.standard_normal(f.dims[layer])
            got = f.derivation_pairing(xi, layer, xi, layer)
            assert abs(got - layer * np.vdot(xi, xi)) < 1e-12 * max(
                abs(np.vdot(xi, xi)), 1.0)
        # cross-layer pairings vanish
        xi1 = rng.standard_normal(f.dims[1]).astype(complex)
        xi2 = rng.standard_normal(f.dims[2]).astype(complex)
        assert f.derivation_pairing(xi1, 1, xi2, 2) == 0.0

    def test_energy_is_number_form(self):
        f = free_aw(nontracial_a(), d_max=3)
        rng = np.random.default_rng(72)
        xi = rng.standard_normal(f.D) + 1j * rng.standard_normal(f.D)
        e = f.energy(xi)
        want = sum(
            k * np.vdot(f.layer_block(xi, k), f.layer_block(xi, k))
            for k in range(f.d_max + 1)
        )
        assert abs(e - want) < 1e-10 * abs(want)

