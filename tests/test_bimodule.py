"""Explicit bimodule: actions, modular structure, conjugation, derivation."""

import numpy as np
import pytest

from qms.bimodule import (
    BimoduleVector,
    Derivation,
    FinBimodule,
    carre_du_champ,
    inner_derivation_generator,
)
from qms.errors import NotInvariantVector
from qms.lindblad import JumpSystem, build_generator, dirichlet_form
from qms.modular import TomitaData
from qms.numkernel import frob
from qms.sampling import random_jump_system, random_matrix, random_weighted_algebra

from conftest import E11, E12, E21, SX


@pytest.fixture
def bim(qubit_system3):
    return FinBimodule(qubit_system3)


def rand_vec(bim, rng):
    return BimoduleVector(
        rng.standard_normal((bim.m, bim.n, bim.n))
        + 1j * rng.standard_normal((bim.m, bim.n, bim.n))
    )


class TestActions:
    def test_identity_acts_trivially(self, bim):
        rng = np.random.default_rng(22)
        xi = rand_vec(bim, rng)
        eye = np.eye(2)
        np.testing.assert_allclose(
            bim.act_left(eye, xi).comps, xi.comps, atol=1e-14
        )
        np.testing.assert_allclose(
            bim.act_right(eye, xi).comps, xi.comps, atol=1e-14
        )

    def test_left_right_commute_exactly(self, bim):
        rng = np.random.default_rng(23)
        xi = rand_vec(bim, rng)
        a = bim.act_left(E11, bim.act_right(np.eye(2) - E11, xi))
        b = bim.act_right(np.eye(2) - E11, bim.act_left(E11, xi))
        assert np.array_equal(a.comps, b.comps)

    def test_left_action_bounded(self, bim):
        rng = np.random.default_rng(24)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            xi = rand_vec(bim, rng)
            assert bim.norm(bim.act_left(a, xi)) <= (
                np.linalg.norm(a, 2) * bim.norm(xi) + 1e-10
            )

    def test_coords_isometry(self, bim):
        rng = np.random.default_rng(25)
        xi, eta = rand_vec(bim, rng), rand_vec(bim, rng)
        assert abs(np.vdot(bim.coords(xi), bim.coords(eta))
                   - bim.inner(xi, eta)) < 1e-12


class TestModularStructure:
    def test_group_at_zero(self, bim):
        rng = np.random.default_rng(26)
        xi = rand_vec(bim, rng)
        np.testing.assert_allclose(
            bim.mod_group(0.0, xi).comps, xi.comps, atol=1e-13
        )

    def test_group_intertwines_delta(self, bim):
        rng = np.random.default_rng(27)
        td = bim.tomita
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            lhs = bim.mod_group(z, bim.delta(a))
            rhs = bim.delta(td.modular_group(z, a))
            assert bim.norm(lhs - rhs) < 1e-10 * max(bim.norm(rhs), 1.0)

    def test_real_time_isometric(self, bim):
        rng = np.random.default_rng(28)
        xi = rand_vec(bim, rng)
        for t in (0.3, -1.1, 2.0):
            assert abs(bim.norm(bim.mod_group(t, xi)) - bim.norm(xi)) < 1e-10

    def test_conj_intertwines_delta(self, bim):
        rng = np.random.default_rng(29)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = bim.conj(bim.delta(a))
            rhs = bim.delta(bim.tomita.conj_J(a))
            assert bim.norm(lhs - rhs) < 1e-10

    def test_conj_involution(self, bim):
        rng = np.random.default_rng(30)
        for _ in range(10):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            xi = bim.act_right(b, bim.delta(a))
            assert bim.norm(bim.conj(bim.conj(xi)) - xi) < 1e-9 * bim.norm(xi)

    def test_conj_antiunitary(self, bim):
        rng = np.random.default_rng(31)
        for _ in range(10):
            xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(4)]
            xi = bim.act_right(xs[0], bim.delta(xs[1]))
            eta = bim.act_right(xs[2], bim.delta(xs[3]))
            lhs = bim.inner(bim.conj(xi), bim.conj(eta))
            rhs = bim.inner(eta, xi)
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_conj_matches_componentwise_display(self, bim):
        """conj(xi) = conj_ambient(xi) on a stack of random generator-form
        vectors xi = R(b) delta(a)."""
        rng = np.random.default_rng(32)
        a, b = (rng.standard_normal((2, 20, 2, 2))
                + 1j * rng.standard_normal((2, 20, 2, 2)))
        xi = bim.act_right(b, bim.delta(a))
        diff = bim.norm(bim.conj(xi) - bim.conj_ambient(xi))
        assert np.all(diff < 1e-10 * bim.norm(xi))


class TestDerivation:
    def test_kills_identity(self, bim):
        assert bim.norm(bim.delta(np.eye(2))) < 1e-14

    def test_unit_oracle(self, qubit_system):
        """delta(E11) on the reference pair, frozen from the commutators."""
        b = FinBimodule(qubit_system)
        da = b.delta(E11)
        np.testing.assert_allclose(
            da.comps[0], 1j * 2.0 ** (-0.25) * E21, atol=1e-13
        )
        np.testing.assert_allclose(
            da.comps[1], -1j * 2.0 ** (0.25) * E12, atol=1e-13
        )

    def test_product_rule(self, bim):
        rng = np.random.default_rng(32)
        for _ in range(100):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = bim.delta(x @ y)
            rhs = bim.act_left(x, bim.delta(y)) + bim.act_right(y, bim.delta(x))
            assert bim.norm(lhs - rhs) < 1e-11 * max(bim.norm(lhs), 1.0)

    def test_energy_identity(self, qubit_system):
        b = FinBimodule(qubit_system)
        form = dirichlet_form(build_generator(qubit_system), qubit_system.W)
        units = [E11, E12, E21, np.eye(2) - E11]
        for a in units:
            for c in units:
                lhs = b.inner(b.delta(a), b.delta(c))
                rhs = form(a, c)
                assert abs(lhs - rhs) < 1e-12 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_twisted_rule(self, n):
        """In the standard-form coordinates X(a) = delta(a) h^{1/2} the right
        action is twisted: X(xy) = x X(y) + X(x) h^{-1/2} y h^{1/2}.  The
        untwisted X(x) y misses it on a non-tracial h."""
        rng = np.random.default_rng(33 + n)
        w = random_weighted_algebra(n, rng)
        b = FinBimodule(random_jump_system(w, rng, m_max=2 * n))
        x, y = (np.array([random_matrix(n, rng) for _ in range(20)])[:, None]
                for _ in range(2))

        def std(a):
            return b.delta(a[:, 0]).comps @ w.h_sqrt

        lhs = std(x @ y)

        def rel(rhs):
            """|lhs - rhs| / |lhs| per sample."""
            return np.linalg.norm((lhs - rhs).reshape(len(lhs), -1), axis=1) / (
                np.linalg.norm(lhs.reshape(len(lhs), -1), axis=1))

        twisted = rel(x @ std(y) + std(x) @ (w.h_isqrt @ y @ w.h_sqrt))
        untwisted = rel(x @ std(y) + std(x) @ y)
        assert twisted.max() < 1e-13
        assert untwisted.min() > 1e-4

    def test_check_residuals(self, bim, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        res = Derivation(bim).check(form)
        assert max(res.values()) < 1e-10


class TestAxioms:
    def test_valid_system(self, bim):
        res = bim.axioms_check(n_vectors=50, seed=41)
        assert max(res.values()) <= 1e-9

    def test_zero_bimodule(self, w_qubit):
        b = FinBimodule(JumpSystem(W=w_qubit, jumps=[], pairing=[]))
        assert max(b.axioms_check().values()) == 0.0

    def test_perturbed_weight_breaks_axiom_e(self, qubit_system):
        jumps = [(v, om) for v, om in qubit_system.jumps]
        jumps[0] = (jumps[0][0], jumps[0][1] + 0.1)
        broken = JumpSystem(W=qubit_system.W, jumps=jumps, pairing=[1, 0])
        b = FinBimodule(broken, validate=False)
        res = b.axioms_check(n_vectors=50, seed=42)
        assert res["e"] > 1e-3


class TestInnerDerivationGenerator:
    def test_zero_vector(self, bim):
        l = inner_derivation_generator(bim, bim.zero())
        assert frob(l.matrix) == 0.0

    def test_sigma_x_oracle(self, w_tracial):
        system = JumpSystem(
            W=w_tracial, jumps=[(SX / np.sqrt(2.0), 0.0)], pairing=[0]
        )
        b = FinBimodule(system)
        xi = BimoduleVector(np.array([SX / np.sqrt(2.0)]))
        l = inner_derivation_generator(b, xi)
        np.testing.assert_allclose(
            l.matrix, build_generator(system).matrix, atol=1e-12
        )

    def test_jump_vector_rebuilds_generator(self, qubit_system3):
        b = FinBimodule(qubit_system3)
        comps = np.array([
            np.exp(-om / 4.0) * v for v, om in qubit_system3.jumps
        ])
        xi = BimoduleVector(comps)
        l = inner_derivation_generator(b, xi)
        want = build_generator(qubit_system3)
        assert frob(l.matrix - want.matrix) <= 1e-9 * frob(want.matrix)

    def test_rejects_non_invariant(self, bim):
        rng = np.random.default_rng(43)
        with pytest.raises(NotInvariantVector):
            inner_derivation_generator(bim, rand_vec(bim, rng))


class TestCarreDuChamp:
    def test_unit_row_zero(self, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        rng = np.random.default_rng(44)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert frob(carre_du_champ(form, np.eye(2), b)) < 1e-12

    def test_psd(self, qubit_system3):
        form = dirichlet_form(build_generator(qubit_system3), qubit_system3.W)
        rng = np.random.default_rng(45)
        for _ in range(100):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            ev = np.linalg.eigvals(carre_du_champ(form, a, a))
            assert ev.real.min() >= -1e-9

    def test_matches_derivation_sum(self, qubit_system3):
        w = qubit_system3.W
        form = dirichlet_form(build_generator(qubit_system3), w)
        b = FinBimodule(qubit_system3)
        rng = np.random.default_rng(46)
        for _ in range(20):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            da = b.delta(a)
            direct = w.h_sqrt @ sum(
                da.comps[j].conj().T @ da.comps[j] for j in range(b.m)
            ) @ w.h_isqrt
            got = carre_du_champ(form, a, a)
            assert frob(got - direct) < 1e-9 * max(frob(direct), 1.0)

    def test_defining_identity(self, qubit_system3):
        w = qubit_system3.W
        td = TomitaData(w)
        form = dirichlet_form(build_generator(qubit_system3), w)
        rng = np.random.default_rng(47)
        for _ in range(10):
            a, bb, c = (rng.standard_normal((2, 2))
                        + 1j * rng.standard_normal((2, 2)) for _ in range(3))
            g = carre_du_champ(form, a, bb)
            lhs = np.trace(g @ w.h_sqrt @ c @ w.h_sqrt)
            c_flat = td.flat(c)
            rhs = 0.5 * (form(a, bb @ c) + form(a @ c_flat, bb)
                         - form(c_flat, td.sharp(a) @ bb))
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)
