"""Correspondences, relative tensor products, truncated Fock spaces, free case."""

import numpy as np
import pytest
import scipy.linalg

from qms.errors import (AlgebraMismatch, DimensionMismatch, NotFixedPoint,
                        NotRepresentable)
from qms.fock import (
    Correspondence,
    assoc_residual,
    correspondence_from_jumps,
    embed_pair,
    fock_build,
    free_aw,
    l2_correspondence,
    left_bounded_map,
    mvalued_pairing,
    plain_right,
    rel_tensor,
    unit_law_residuals,
    validate_correspondence,
    wick,
)
from qms.modular import WeightedAlgebra
from qms.sampling import (random_jump_system, random_unitary,
                          random_weighted_algebra)


def nontracial_a(d=3, seed=3, scale=0.7):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((d, d))
    return scipy.linalg.expm(1j * scale * (k - k.T))


class TestL2Correspondence:
    def test_contracts(self, w_qubit):
        res = validate_correspondence(l2_correspondence(w_qubit))
        assert max(res.values()) < 1e-9

    def test_cyclic_vector_pairing(self, w_qubit):
        c = l2_correspondence(w_qubit)
        xi = w_qubit.coords(np.eye(2))  # phi^{1/2}
        m = mvalued_pairing(c, xi, xi)
        np.testing.assert_allclose(m, np.eye(2), atol=1e-12)

    def test_pairing_psd_and_weight(self, w_qubit):
        c = l2_correspondence(w_qubit)
        rng = np.random.default_rng(61)
        for _ in range(50):
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            m = mvalued_pairing(c, xi, xi)
            ev = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            assert ev.min() >= -1e-10
            # ||xi||^2 = phi((xi|xi))
            assert abs(np.vdot(xi, xi) - np.trace(m @ w_qubit.h)) < 1e-10

    def test_left_bounded_map_norm(self, w_qubit):
        c = l2_correspondence(w_qubit)
        rng = np.random.default_rng(62)
        xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        l = left_bounded_map(c, xi)
        # L_phi(xi) applied to phi^{1/2} returns xi
        np.testing.assert_allclose(
            l @ w_qubit.coords(np.eye(2)), xi, atol=1e-12
        )


class TestJumpCorrespondence:
    def test_contracts_and_tomita(self, qubit_system3):
        c = correspondence_from_jumps(qubit_system3)
        res = validate_correspondence(c)
        assert max(res.values()) < 1e-9

    def test_fixed_bases_nonempty(self, qubit_system3):
        c = correspondence_from_jumps(qubit_system3)
        s_basis = c.s_fixed_basis()
        f_basis = c.f_fixed_basis()
        assert len(s_basis) > 0 and len(f_basis) > 0
        for xi in s_basis[:2]:
            assert np.linalg.norm(c.s0(xi) - xi) < 1e-9

    def test_plain_right_intertwines(self, w_qubit):
        """xi . x on L2 is plain right multiplication."""
        c = l2_correspondence(w_qubit)
        rng = np.random.default_rng(63)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = plain_right(c, x) @ w_qubit.coords(a)
        np.testing.assert_allclose(got, w_qubit.coords(a @ x), atol=1e-11)


class TestRelTensor:
    def test_algebra_mismatch(self, w_qubit, w_tracial):
        with pytest.raises(AlgebraMismatch):
            rel_tensor(l2_correspondence(w_qubit), l2_correspondence(w_tracial))

    def test_unit_laws(self, qubit_system3):
        c = correspondence_from_jumps(qubit_system3)
        res = unit_law_residuals(c)
        assert res["left_unit"] < 1e-9
        assert res["right_unit"] < 1e-9
        assert res["left_rank"][0] == c.d
        assert res["right_rank"][0] == c.d

    def test_l2_squared_rank(self, w_qubit):
        """[DERIVED] L2 (x)_phi L2 has the dimension of L2 itself."""
        c = l2_correspondence(w_qubit)
        t = rel_tensor(c, c)
        assert t.d == c.d

    def test_associativity(self, w_qubit):
        c = l2_correspondence(w_qubit)
        res = assoc_residual(c, c, c, n_samples=15)
        assert res["residual"] < 1e-9
        assert res["rank_left"] == res["rank_right"]

    def test_balancing(self, w_qubit):
        """xi . x (x) eta = xi (x) lambda(x) eta in the quotient."""
        c = l2_correspondence(w_qubit)
        t = rel_tensor(c, c)
        rng = np.random.default_rng(64)
        for _ in range(10):
            xi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            eta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = embed_pair(t, plain_right(c, x) @ xi, eta)
            rhs = embed_pair(t, xi, c.left(x) @ eta)
            assert np.linalg.norm(lhs - rhs) < 1e-9 * max(
                np.linalg.norm(rhs), 1.0)


class TestTruncatedFock:
    @pytest.fixture
    def fock3(self, qubit_system3):
        return fock_build(correspondence_from_jumps(qubit_system3), d_max=3)

    def test_layer_dims_golden(self, fock3):
        """[DERIVED] layer dimensions for the three-jump reference system."""
        assert fock3.dims == [4, 12, 36, 108]

    def test_creation_on_vacuum(self, fock3):
        rng = np.random.default_rng(65)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        got = fock3.creation(xi) @ fock3.vacuum()
        np.testing.assert_allclose(got, fock3.inject(1, xi), atol=1e-10)

    def test_annihilation_pairing(self, fock3, qubit_system3):
        """a(xi)* a(eta) on the vacuum recovers the phi-pairing."""
        c = correspondence_from_jumps(qubit_system3)
        rng = np.random.default_rng(66)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        eta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        omega = fock3.vacuum()
        lhs = np.vdot(fock3.creation(xi) @ omega, fock3.creation(eta) @ omega)
        m = mvalued_pairing(c, xi, eta)
        rhs = np.trace(m @ qubit_system3.W.h)
        assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_lambda_identities(self, fock3, qubit_system3):
        rng = np.random.default_rng(67)
        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(5)]
        xis = [rng.standard_normal(12) + 1j * rng.standard_normal(12)
               for _ in range(5)]
        res = fock3.lambda_identities(xs, xis)
        assert res["pi_left"] < 1e-10
        assert res["s_vector"] < 1e-10

    def test_commutant(self, fock3, qubit_system3):
        c = correspondence_from_jumps(qubit_system3)
        worst = 0.0
        for xi in c.s_fixed_basis()[:3]:
            for eta in c.f_fixed_basis()[:3]:
                worst = max(worst, fock3.commutant_check(xi, eta))
        assert worst <= 1e-9

    def test_commutant_rejects_bad_vector(self, fock3):
        rng = np.random.default_rng(68)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        with pytest.raises(NotFixedPoint):
            fock3.commutant_check(xi, xi)

    def test_commutant_gate_is_axiom_tolerance(self, qubit_system3):
        """A 1e-7 relative departure from S0-fixedness fails the default
        gate (tol.axiom = 1e-9) and passes once tol.axiom is 1e-5."""
        from qms.config import DEFAULT_TOL
        c = correspondence_from_jumps(qubit_system3)
        xi, eta = c.s_fixed_basis()[0], c.f_fixed_basis()[0]
        rng = np.random.default_rng(70)
        r = rng.standard_normal(c.d) + 1j * rng.standard_normal(c.d)
        xi = xi + 1e-7 * np.linalg.norm(xi) * r / np.linalg.norm(r)
        with pytest.raises(NotFixedPoint):
            fock_build(c, d_max=3).commutant_check(xi, eta)
        loose = fock_build(c, d_max=3, tol=DEFAULT_TOL.override(axiom=1e-5))
        assert loose.commutant_check(xi, eta) < 1e-5

    def test_vacuum_expectation_unital(self, fock3):
        e, weight = fock3.vacuum_expectation(np.eye(fock3.D, dtype=complex))
        np.testing.assert_allclose(e, np.eye(2), atol=1e-12)
        assert abs(weight - 1.0) < 1e-12

    def test_vacuum_expectation_of_s_squared(self, fock3, qubit_system3):
        c = correspondence_from_jumps(qubit_system3)
        rng = np.random.default_rng(69)
        xi = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        s = fock3.s_op(xi)
        e, _ = fock3.vacuum_expectation(s @ s)
        m = mvalued_pairing(c, xi, xi)
        np.testing.assert_allclose(e, m, atol=1e-9 * max(np.linalg.norm(m), 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    def test_layers_match_gram_route(self, n, qubit_system3):
        """Words in a/b on the vacuum have the Gram of rel_tensor vectors."""
        rng = np.random.default_rng(75)
        if n == 2:
            system = qubit_system3
        else:
            system = random_jump_system(random_weighted_algebra(3, rng), rng,
                                        m_max=2)
        h = correspondence_from_jumps(system)
        f = fock_build(h, d_max=3)
        t2 = rel_tensor(h, h)
        t3 = rel_tensor(t2, h)
        a, b, omega = f.creation, f.b_creation, f.vacuum()
        fock2, gram2, fock3, gram3 = [], [], [], []
        for k in range(8):
            x1, x2, x3 = (rng.standard_normal(h.d) + 1j * rng.standard_normal(h.d)
                          for _ in range(3))
            # x1 (x) x2 built three ways, x1 (x) x2 (x) x3 two ways
            word2 = [a(x1) @ a(x2), a(x1) @ b(x2), b(x2) @ b(x1)][k % 3]
            word3 = [a(x1) @ a(x2) @ a(x3), a(x1) @ b(x3) @ a(x2)][k % 2]
            fock2.append(f.layer_block(word2 @ omega, 2))
            fock3.append(f.layer_block(word3 @ omega, 3))
            gram2.append(embed_pair(t2, x1, x2))
            gram3.append(embed_pair(t3, gram2[-1], x3))
        for fv, gv in ((fock2, gram2), (fock3, gram3)):
            fv, gv = np.array(fv), np.array(gv)
            g_fock, g_gram = fv.conj() @ fv.T, gv.conj() @ gv.T
            assert np.linalg.norm(g_fock - g_gram) <= 1e-12 * np.linalg.norm(g_gram)

    def test_rejects_other_correspondences(self, w_qubit):
        """A unitarily rotated L2 is a correspondence, but not C^m (x) L2."""
        l2 = l2_correspondence(w_qubit)
        u = random_unitary(4, np.random.default_rng(77))
        rotated = Correspondence(w_qubit, 4,
                                 lambda x: u @ l2.left(x) @ u.conj().T,
                                 lambda y: u @ l2.right(y) @ u.conj().T)
        assert max(validate_correspondence(rotated).values()) < 1e-9
        with pytest.raises(DimensionMismatch):
            fock_build(rotated)

    def test_large_layers_build(self):
        """[DERIVED] n = 3, m = 6, d_max = 3: dims m^k n^2, no layer Gram."""
        rng = np.random.default_rng(76)
        system = random_jump_system(random_weighted_algebra(3, rng), rng,
                                    m_max=6)
        f = fock_build(correspondence_from_jumps(system), d_max=3)
        assert f.dims == [9, 54, 324, 1944]


class TestScalarFock:
    def test_tracial_commutator(self):
        """Real left/right fields commute exactly in the tracial scalar case."""
        f = free_aw(np.eye(2), d_max=3)
        rng = np.random.default_rng(70)
        xi = rng.standard_normal(2).astype(complex)
        eta = rng.standard_normal(2).astype(complex)
        s = f.s_op(xi)
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
            s = f.s_op(np.array([1.0 + 0j]))
            want = 2.0 * np.cos(np.pi / (d_max + 2))
            assert abs(np.linalg.norm(s, 2) - want) < 1e-12
        # deep truncation approaches the semicircular norm 2||xi||
        f8 = free_aw(np.eye(1), d_max=8)
        assert abs(np.linalg.norm(f8.s_op(np.array([1.0 + 0j])), 2) - 2.0) < 0.1

    def test_nontracial_structure(self):
        f = free_aw(nontracial_a(), d_max=4)
        assert f.commutation_residual < 1e-10
        # J is an involution
        jc = f.conj_j()
        np.testing.assert_allclose(jc @ jc.conj(), np.eye(f.D), atol=1e-10)
        # modular unitaries form a group and commute with OU
        t1, t2 = 0.37, -0.61
        np.testing.assert_allclose(
            f.modular_unitary(t1) @ f.modular_unitary(t2),
            f.modular_unitary(t1 + t2), atol=1e-10)
        ou = f.ou_semigroup(0.4)
        mu = f.modular_unitary(t1)
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


class TestWick:
    def test_vacuum_gives_identity(self):
        f = free_aw(np.eye(2), d_max=3)
        w = wick(f, f.vacuum())
        np.testing.assert_allclose(w, np.eye(f.D), atol=1e-12)

    def test_layer_one_gives_field(self):
        f = free_aw(np.eye(2), d_max=3)
        e1 = f.H.s_fixed_basis()[0]
        w = wick(f, f.inject(1, e1))
        np.testing.assert_allclose(w, f.s_op(e1), atol=1e-10)

    def test_layer_two_tracial(self):
        f = free_aw(np.eye(2), d_max=3)
        e1 = f.H.s_fixed_basis()[0]
        eta = f.inject(2, np.kron(e1, e1))
        w = wick(f, eta)
        want = f.s_op(e1) @ f.s_op(e1) - np.vdot(e1, e1) * np.eye(f.D)
        np.testing.assert_allclose(w, want, atol=1e-10)

    def test_nontracial_layer_three(self):
        f = free_aw(nontracial_a(2, seed=5), d_max=4)
        rng = np.random.default_rng(73)
        basis = f.H.s_fixed_basis()
        vec = np.kron(np.kron(basis[0], basis[1]), basis[0])
        vec = vec + 0.3 * np.kron(np.kron(basis[1], basis[1]), basis[1])
        eta = f.inject(3, vec)
        w = wick(f, eta)
        resid = np.linalg.norm(w @ f.vacuum() - eta) / np.linalg.norm(eta)
        assert resid < 1e-9

    def test_rejects_unrepresentable(self):
        # a non-involutive conjugation leaves a deficient T-fixed space
        f = free_aw(np.eye(2), d_max=3,
                    conj_i=np.array([[0.0, 1.0], [0.0, 0.0]]).astype(complex))
        assert len(f.H.s_fixed_basis()) < f.m
        rng = np.random.default_rng(74)
        eta = f.inject(1, rng.standard_normal(2).astype(complex))
        with pytest.raises(NotRepresentable):
            wick(f, eta)
