"""Jump systems, generators, semigroups, certification, Alicki extraction."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import qms.lindblad
from qms.config import DEFAULT_TOL
from qms.errors import InvalidJumpSystem, NegativeTime, NotGNSSymmetric
from qms.lindblad import (
    JumpSystem,
    _gauge,
    _kossakowski,
    _modular_basis,
    build_generator,
    certify,
    dirichlet_form,
    extract_alicki,
    semigroup,
    semigroup_spectral,
)
from qms.modular import WeightedAlgebra
from qms.numkernel import HermEig, Superoperator, frob
from qms.bimodule import FinBimodule
from qms.reconstruct import build_gram_space, gram_axioms_check, uniqueness_isometry
from qms.sampling import (random_jump_system, random_matrix, random_unitary,
                          random_weighted_algebra)

from conftest import E12, E21, SX, SZ, depolarizing_generator


def algebra_with_spectrum(spectrum, rng):
    """WeightedAlgebra with eigenvalues proportional to spectrum in a random
    eigenbasis."""
    lam = np.asarray(spectrum, dtype=float)
    u = random_unitary(lam.size, rng)
    return WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)


class TestTracelessBasis:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orthonormal_traceless(self, n):
        """The modular basis: orthonormal, traceless, modular eigenvectors
        of their frequencies, Hermitian at frequency 0 (here with a repeated
        eigenvalue at n = 3, 4, whose pair enters as a Hermitian pair)."""
        w = algebra_with_spectrum([1.0, 2.0, 2.0, 5.0][:n],
                                  np.random.default_rng(n))
        lam = w.eig.eigenvalues
        a, b = np.triu_indices(n, 1)
        basis, _, freq = _modular_basis(w, np.isclose(lam[a], lam[b]))
        assert len(basis) == n * n - 1
        for i, g in enumerate(basis):
            assert abs(np.trace(g)) < 1e-14
            np.testing.assert_allclose(w.h @ g @ w.h_inv,
                                       np.exp(freq[i]) * g, atol=1e-13)
            if freq[i] == 0.0:
                np.testing.assert_allclose(g, g.conj().T, atol=1e-14)
            for j, g2 in enumerate(basis):
                want = 1.0 if i == j else 0.0
                assert abs(np.trace(g.conj().T @ g2) - want) < 1e-14


def ref_kossakowski(l, basis):
    """Kossakowski matrix by the loop over kron products: chi[mu, nu] is
    the coefficient of x -> B_mu x B_nu*, whose matrix is
    kron(conj(B_nu), B_mu) (kron(B_nu.T, B_mu) for a Hermitian basis)."""
    d = len(basis)
    chi = np.zeros((d, d), dtype=np.complex128)
    for mu in range(d):
        for nu in range(d):
            b = np.kron(basis[nu].conj(), basis[mu])
            chi[mu, nu] = np.vdot(b, l.matrix)
    k = -0.5 * chi
    return 0.5 * (k + k.conj().T)


class TestKossakowski:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_kron_loop(self, n):
        rng = np.random.default_rng(40 + n)
        w = random_weighted_algebra(n, rng)
        # every other pair as a Hermitian pair: any orthonormal basis will do
        basis = _modular_basis(w, np.arange(n * (n - 1) // 2) % 2 == 0)[0]
        for l in (build_generator(random_jump_system(w, rng, m_max=2 * n)),
                  Superoperator.from_matrix(random_matrix(n * n, rng))):
            want = ref_kossakowski(l, basis)
            assert frob(_kossakowski(l, basis) - want) <= 1e-13 * frob(want)


class TestGauge:
    def test_equal_magnitudes_not_flipped_by_rounding(self):
        """|v_00| = |v_11| for a traceless Hermitian 2 x 2 jump: a perturbation
        at rounding level must not change which entry fixes the sign."""
        v = np.array([[0.5, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
        nudge = np.diag([0.0, -1e-14])
        np.testing.assert_allclose(_gauge(v + nudge, 0.0), _gauge(v, 0.0),
                                   atol=1e-13)
        np.testing.assert_allclose(_gauge(-v, 0.0), _gauge(v, 0.0), atol=0)


class TestJumpSystem:
    def test_reference_system_valid(self, qubit_system):
        res = qubit_system.validate()
        assert max(res.values()) < 1e-14

    def test_auto_pairing(self, w_qubit):
        sys2 = JumpSystem(
            W=w_qubit, jumps=[(E21, np.log(2.0)), (E12, -np.log(2.0))]
        )
        assert sys2.pairing == [1, 0]

    def test_check_valid_raises(self, w_qubit):
        bad = JumpSystem(W=w_qubit, jumps=[(E21, 0.0)], pairing=[0])
        with pytest.raises(InvalidJumpSystem):
            bad.check_valid()

    @pytest.mark.parametrize("seed", range(88, 93))
    def test_modular_eigenvector_at_high_condition(self, seed):
        """lam ~ exp(-4.5 k) at n = 4 (condition number 7e5): the residual
        stays at rounding on h / tr(h), which differs from the density the
        jumps were built on by rounding, and an error of 1e-6 in one weight
        still reads about 5e-7."""
        rng = np.random.default_rng(seed)
        system = random_jump_system(
            algebra_with_spectrum(np.exp(-4.5 * np.arange(4)), rng), rng, m_max=8)
        h = system.W.h
        w = WeightedAlgebra(h / np.trace(h).real)
        res = JumpSystem(W=w, jumps=system.jumps, pairing=system.pairing).validate()
        assert res["modular-eigenvector"] < 1e-10
        for k, (v, omega) in enumerate(system.jumps):
            jumps = list(system.jumps)
            jumps[k] = (v, omega + 1e-6)
            res = JumpSystem(W=w, jumps=jumps, pairing=system.pairing).validate()
            assert 4e-7 < res["modular-eigenvector"] < 6e-7


class TestBuildGenerator:
    def test_empty(self, w_qubit):
        l = build_generator(JumpSystem(W=w_qubit, jumps=[], pairing=[]))
        assert frob(l.matrix) == 0.0

    def test_sigma_x_oracle(self, w_tracial):
        system = JumpSystem(
            W=w_tracial, jumps=[(SX / np.sqrt(2.0), 0.0)], pairing=[0]
        )
        l = build_generator(system)
        np.testing.assert_allclose(l.apply(np.eye(2)), 0.0 * SZ, atol=1e-14)
        np.testing.assert_allclose(l.apply(SX), np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(l.apply(SZ), 2.0 * SZ, atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_kron_loop(self, n):
        """The stacked assembly against the sum of four Kronecker products
        per jump, also on a set that is not closed under adjoints."""
        rng = np.random.default_rng(60 + n)
        w = random_weighted_algebra(n, rng)
        loose = [(random_matrix(n, rng), 0.3), (random_matrix(n, rng), -1.1)]
        for system in (random_jump_system(w, rng, m_max=2 * n),
                       JumpSystem(W=w, jumps=loose, pairing=[0, 1])):
            want = Superoperator.zero(n)
            eye = np.eye(n)
            for v, om in system.jumps:
                vs = v.conj().T
                want = want + np.exp(-om / 2.0) * (
                    Superoperator.left_right(vs @ v, eye)
                    - Superoperator.left_right(vs, v))
                want = want + np.exp(om / 2.0) * (
                    Superoperator.left_right(eye, v @ vs)
                    - Superoperator.left_right(v, vs))
            got = build_generator(system, validate=False)
            assert frob(got.matrix - want.matrix) <= 1e-14 * frob(want.matrix)

    def test_reference_system_unital(self, qubit_system):
        l = build_generator(qubit_system)
        np.testing.assert_allclose(
            l.apply(np.eye(2)), np.zeros((2, 2)), atol=1e-13
        )


class TestSemigroup:
    def test_time_zero(self, qubit_system):
        l = build_generator(qubit_system)
        np.testing.assert_allclose(
            semigroup(l, 0.0).matrix, np.eye(4), atol=1e-14
        )

    def test_negative_time(self, qubit_system):
        with pytest.raises(NegativeTime):
            semigroup(build_generator(qubit_system), -0.1)

    def test_depolarizing_closed_form(self, w_qubit):
        # P_t(x) = e^{-t} x + (1 - e^{-t}) phi(x) 1
        l = depolarizing_generator(w_qubit)
        p1 = semigroup(l, 1.0)
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = np.exp(-1.0) * x + (1 - np.exp(-1.0)) * np.trace(
            x @ w_qubit.h) * np.eye(2)
        np.testing.assert_allclose(p1.apply(x), want, atol=1e-12)

    def test_choi_psd(self, qubit_system3):
        from qms.numkernel import choi
        l = build_generator(qubit_system3)
        for t in (0.3, 0.7):
            ev = np.linalg.eigvalsh(choi(semigroup(l, t)))
            assert ev.min() >= -1e-9

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_scipy_expm(self, n):
        """The Pade-13 scaling and squaring against scipy's expm on a random
        generator, also at ||tL||_1 = 200 (far above theta_13 = 5.37, six
        squarings), and on the zero generator."""
        rng = np.random.default_rng(40 + n)
        w = random_weighted_algebra(n, rng)
        l = build_generator(random_jump_system(w, rng, m_max=2 * n))
        ts = (0.0, 1e-3, 0.05, 0.5, 1.0, 2.0, 200.0 / np.linalg.norm(l.matrix, 1))
        for gen, t in [(l, t) for t in ts] + [(Superoperator.zero(n), 1.0)]:
            want = scipy.linalg.expm(-t * gen.matrix)
            assert frob(semigroup(gen, t).matrix - want) <= 1e-13 * frob(want)

    def test_spectral_crosscheck(self, qubit_system3):
        l = build_generator(qubit_system3)
        a = semigroup(l, 0.9).matrix
        b = semigroup_spectral(l, qubit_system3.W, 0.9).matrix
        assert frob(a - b) < 1e-10 * frob(a)


def all_pass(rep):
    """Every certificate of a ``GeneratorReport`` holds."""
    return (rep.gns_symmetric and rep.markov_unital and rep.cp_semigroup
            and rep.modular_commuting)


class TestCertify:
    def test_zero_generator(self, w_qubit):
        rep = certify(Superoperator.zero(2), w_qubit)
        assert all_pass(rep)
        assert rep.residuals["unital"] == 0.0

    def test_valid_system(self, qubit_system3):
        rep = certify(build_generator(qubit_system3), qubit_system3.W)
        assert all_pass(rep)

    def test_commutator_generator_not_symmetric(self, w_qubit):
        # L(x) = i [d, x] with d Hermitian, [d, h] != 0
        d = SX
        l = 1j * (Superoperator.left_right(d, np.eye(2))
                  - Superoperator.left_right(np.eye(2), d))
        rep = certify(l, w_qubit)
        assert not rep.gns_symmetric


class TestExtractAlicki:
    def test_zero_generator(self, w_qubit):
        system = extract_alicki(Superoperator.zero(2), w_qubit)
        assert system.m == 0

    def test_depolarizing_tracial(self, w_tracial):
        system = extract_alicki(depolarizing_generator(w_tracial), w_tracial)
        assert system.m == 3
        for v, om in system.jumps:
            assert om == 0.0
            assert abs(np.trace(v)) < 1e-12

    def test_reference_system_exact(self, qubit_system):
        """[DERIVED] extraction returns exactly the gauge-fixed pair."""
        l = build_generator(qubit_system)
        ex = extract_alicki(l, qubit_system.W)
        assert ex.m == 2
        np.testing.assert_allclose(ex.jumps[0][0], E21, atol=1e-10)
        assert abs(ex.jumps[0][1] - np.log(2.0)) < 1e-10
        np.testing.assert_allclose(ex.jumps[1][0], E12, atol=1e-10)
        assert abs(ex.jumps[1][1] + np.log(2.0)) < 1e-10
        assert ex.pairing == [1, 0]

    def test_roundtrip(self, qubit_system3):
        l = build_generator(qubit_system3)
        ex = extract_alicki(l, qubit_system3.W)
        assert frob(build_generator(ex).matrix - l.matrix) <= 1e-8 * frob(l.matrix)

    @pytest.mark.parametrize("gap", [1e-12, 1e-9])
    def test_generator_from_another_eigenbasis(self, gap):
        """A generator built from the jumps of an eigenbasis u0 of h other
        than the computed one: rounding rotates the computed eigenvectors of
        the two eigenvalues gap apart by about eps / gap against u0, which
        couples the frequency classes of the jumps; the extraction merges
        them and rebuilds the generator to about gap."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            lam = np.array([1.0, 1.0 + gap, 2.0]) / (4.0 + gap)
            u0 = random_unitary(3, rng)
            w = WeightedAlgebra((u0 * lam) @ u0.conj().T)
            analytic = SimpleNamespace(n=3, eig=HermEig(lam, u0),
                                       from_eig=lambda x: u0 @ x @ u0.conj().T)
            jumps = random_jump_system(analytic, rng, m_max=6)
            l = build_generator(JumpSystem(W=w, jumps=jumps.jumps,
                                           pairing=jumps.pairing))
            ex = extract_alicki(l, w)
            assert frob(build_generator(ex).matrix - l.matrix) <= (
                4.0 * gap * frob(l.matrix))

    def test_roundtrip_gate(self, qubit_system3, monkeypatch):
        """A valid jump system that does not rebuild the generator raises."""
        monkeypatch.setattr(qms.lindblad, "_gauge", lambda v, omega: 1.01 * v)
        with pytest.raises(InvalidJumpSystem) as err:
            extract_alicki(build_generator(qubit_system3), qubit_system3.W)
        assert set(err.value.failed) == {"roundtrip"}

    def test_rejects_non_symmetric(self, w_qubit):
        l = 1j * (Superoperator.left_right(SX, np.eye(2))
                  - Superoperator.left_right(np.eye(2), SX))
        with pytest.raises(NotGNSSymmetric):
            extract_alicki(l, w_qubit)


class TestDirichletForm:
    def test_unit_in_kernel(self, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        assert abs(form(np.eye(2), np.eye(2))) < 1e-12

    def test_depolarizing_closed_form(self, w_qubit):
        form = dirichlet_form(depolarizing_generator(w_qubit), w_qubit)
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            want = (np.trace(a.conj().T @ a @ w_qubit.h)
                    - abs(np.trace(a @ w_qubit.h)) ** 2)
            assert abs(form(a, a) - want) < 1e-12

    def test_hermitian_symmetry(self, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        rng = np.random.default_rng(20)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(form(a, b) - np.conj(form(b, a))) < 1e-12

    def test_psd_matrix(self, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        ev = np.linalg.eigvalsh(form.matrix)
        assert ev.min() >= -1e-12


class TestRandomSampling:
    def test_random_systems_valid(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            w = random_weighted_algebra(n, rng)
            system = random_jump_system(w, rng)
            assert max(system.validate().values()) < 1e-10


@st.composite
def near_degenerate_systems(draw):
    """A jump system of ``random_jump_system`` over a density with
    eigenvalues proportional to (1, 1 + g, 2) or (1, 1 + g, 2, 4), g
    log-uniform in [1e-12, 1e-4], in a random eigenbasis."""
    n = draw(st.sampled_from([3, 4]))
    gap = 10.0 ** draw(st.floats(-12.0, -4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = algebra_with_spectrum([1.0, 1.0 + gap, 2.0, 4.0][:n], rng)
    return random_jump_system(w, rng, m_max=2 * n)


@given(system=near_degenerate_systems())
def test_extraction_near_degenerate_spectrum(system):
    l = build_generator(system)
    ex = extract_alicki(l, system.W)
    ex.check_valid()
    assert frob(build_generator(ex).matrix - l.matrix) <= (
        DEFAULT_TOL.roundtrip * frob(l.matrix))
    if system.W.n == 3:
        g = build_gram_space(dirichlet_form(build_generator(ex), system.W))
        res = gram_axioms_check(g, n_samples=20)
        assert max(res.values()) <= DEFAULT_TOL.axiom
        # close eigenvalues merge sectors, which uniqueness quotients per sector
        u = uniqueness_isometry(g, FinBimodule(ex))
        assert u["ranks_agree"]
        assert u["relative_residual"] <= DEFAULT_TOL.roundtrip
