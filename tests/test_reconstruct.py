"""Gram reconstruction, uniqueness isometry, Stinespring route, rep vectors."""

import numpy as np
import pytest

from qms.bimodule import Derivation, FinBimodule
from qms.lindblad import build_generator, dirichlet_form
from qms.modular import TomitaData
from qms.numkernel import Superoperator, frob, matrix_units
from qms.reconstruct import (
    build_gram_space,
    gram_axioms_check,
    gram_entry,
    rep_vector,
    stinespring_rate,
    stinespring_route,
    uniqueness_isometry,
)
from qms.sampling import random_jump_system, random_weighted_algebra

from conftest import depolarizing_generator, matrix_unit


@pytest.fixture
def form3(qubit_system3):
    return dirichlet_form(build_generator(qubit_system3), qubit_system3.W)


@pytest.fixture
def gram3(form3, qubit_system3):
    return build_gram_space(form3, qubit_system3.W)


def random_system(n, seed):
    """A jump system over a random (non-diagonal) density of size n."""
    rng = np.random.default_rng(seed)
    w = random_weighted_algebra(n, rng)
    return random_jump_system(w, rng, m_max=4)


def random_form(n, seed, zero=False):
    system = random_system(n, seed)
    l = Superoperator.zero(n) if zero else build_generator(system)
    return dirichlet_form(l, system.W)


def assert_rel_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


class TestGramEntry:
    def test_unit_pair_vanishes(self, form3):
        eye = np.eye(2, dtype=complex)
        rng = np.random.default_rng(51)
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(gram_entry(form3, eye, b, eye, b)) < 1e-12

    def test_matches_explicit_pairing(self, form3, qubit_system3):
        bim = FinBimodule(qubit_system3)
        rng = np.random.default_rng(52)
        for _ in range(100):
            a, b, c, d = (rng.standard_normal((2, 2))
                          + 1j * rng.standard_normal((2, 2)) for _ in range(4))
            lhs = gram_entry(form3, a, b, c, d)
            rhs = bim.inner(bim.act_right(b, bim.delta(a)),
                            bim.act_right(d, bim.delta(c)))
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_depolarizing_diagonal(self, w_tracial):
        form = dirichlet_form(depolarizing_generator(w_tracial), w_tracial)
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        want = (w_tracial.inner(sz, sz)
                - abs(np.trace(sz @ w_tracial.h)) ** 2)
        got = gram_entry(form, sz, eye, sz, eye)
        assert abs(got - want) < 1e-12


class TestGramSpace:
    def test_zero_form_rank_zero(self, w_qubit):
        form = dirichlet_form(Superoperator.zero(2), w_qubit)
        assert build_gram_space(form, w_qubit).rank == 0

    def test_depolarizing_rank_golden(self, w_tracial):
        """[DERIVED] rank of the 16x16 Gram for depolarizing M_2, h = I/2."""
        form = dirichlet_form(depolarizing_generator(w_tracial), w_tracial)
        assert build_gram_space(form, w_tracial).rank == 12

    def test_reference_rank_golden(self, qubit_system, gram3):
        """[DERIVED] rank 8 for the two-jump reference pair."""
        form = dirichlet_form(build_generator(qubit_system), qubit_system.W)
        assert build_gram_space(form, qubit_system.W).rank == 8

    def test_gram_matches_gram_entry_all_units(self):
        form = random_form(2, 71)
        units = matrix_units(2)
        want = np.array([[gram_entry(form, a, b, c, d) for c in units for d in units]
                         for a in units for b in units])
        assert_rel_close(build_gram_space(form).gram, want)

    @pytest.mark.parametrize("zero", [False, True], ids=["generator", "zero"])
    def test_gram_matches_gram_entry_sampled(self, zero):
        form = random_form(3, 72, zero)
        gram = build_gram_space(form).gram
        units = matrix_units(3)
        rng = np.random.default_rng(73)
        idx = rng.integers(0, 9, size=(50, 4))
        got = np.array([gram[p * 9 + q, c * 9 + d] for p, q, c, d in idx])
        want = np.array([gram_entry(form, *units[list(pqcd)]) for pqcd in idx])
        assert_rel_close(got, want)

    def test_mult_map_matches_definition(self):
        g = build_gram_space(random_form(3, 74))
        units = matrix_units(3)
        want = np.array([(a @ b).flatten() for a in units for b in units]).T
        np.testing.assert_array_equal(g._mult_map(), want)

    def test_op_conj_matches_definition(self):
        """Column (a, b): [Jb.Ja (x) 1] - [Jb (x) Ja], J E_ij = h^1/2 E_ji h^-1/2."""
        g = build_gram_space(random_form(2, 75))
        td = TomitaData(g.W)
        eye = np.eye(2)
        cols = []
        for a in matrix_units(2):
            for b in matrix_units(2):
                ja, jb = td.conj_J(a), td.conj_J(b)
                cols.append(g.pair_coeff(jb @ ja, eye) - g.pair_coeff(jb, ja))
        assert_rel_close(g.op_conj(), g._descend_antilinear(np.array(cols).T))

    def test_energy_identity(self, form3, gram3):
        for a in [matrix_unit(2, i, j) for i in range(2) for j in range(2)]:
            d = gram3.delta(a)
            assert abs(np.vdot(d, d) - form3(a, a)) < 1e-10

    def test_well_definedness(self, gram3):
        assert gram3.well_definedness_residual() < 1e-9

    def test_axioms(self, gram3):
        res = gram_axioms_check(gram3, n_samples=40, seed=54)
        assert max(res.values()) <= 1e-9


class TestUniqueness:
    def test_zero_generator(self, w_qubit):
        from qms.lindblad import JumpSystem
        form = dirichlet_form(Superoperator.zero(2), w_qubit)
        g = build_gram_space(form, w_qubit)
        bim = FinBimodule(JumpSystem(W=w_qubit, jumps=[], pairing=[]))
        u = uniqueness_isometry(g, bim)
        assert u["rank_gram"] == 0

    def test_reference_system(self, gram3, qubit_system3):
        u = uniqueness_isometry(gram3, FinBimodule(qubit_system3))
        assert u["relative_residual"] <= 1e-9
        assert u["ranks_agree"]

    def test_random_systems(self):
        rng = np.random.default_rng(55)
        worst = 0.0
        for _ in range(5):
            n = int(rng.integers(2, 4))
            w = random_weighted_algebra(n, rng)
            system = random_jump_system(w, rng, m_max=4)
            form = dirichlet_form(build_generator(system), w)
            g = build_gram_space(form, w)
            u = uniqueness_isometry(g, FinBimodule(system))
            assert u["ranks_agree"]
            worst = max(worst, u["relative_residual"])
        assert worst <= 1e-8


class TestStinespring:
    def test_identity_map_zero_boundary(self, w_qubit):
        sb = stinespring_route(Superoperator.identity(2), w_qubit)
        rng = np.random.default_rng(56)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.linalg.norm(sb.boundary(x)) < 1e-7
        assert np.linalg.norm(sb.pairing(x, x)) < 1e-12

    def test_pairing_routes_agree(self, qubit_system3):
        from qms.lindblad import semigroup
        l = build_generator(qubit_system3)
        p = semigroup(l, 0.2)
        sb = stinespring_route(p, qubit_system3.W)
        rng = np.random.default_rng(57)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = sb.pairing(x, y)
            b = sb.pairing_from_gram(x, y)
            assert np.linalg.norm(a - b) < 1e-10 * max(np.linalg.norm(a), 1.0)

    def test_boundary_gram_consistency(self, qubit_system3):
        """phi((del x | del y)) equals the quotient inner product."""
        from qms.lindblad import semigroup
        w = qubit_system3.W
        p = semigroup(build_generator(qubit_system3), 0.3)
        sb = stinespring_route(p, w)
        rng = np.random.default_rng(58)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.vdot(sb.boundary(x), sb.boundary(y))
            rhs = w.state(sb.pairing(x, y))
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    def test_rate_slope(self, qubit_system3, form3):
        l = build_generator(qubit_system3)
        r = stinespring_rate(l, qubit_system3.W, form3)
        assert abs(r["slope"] - 1.0) <= 0.2
        assert r["route_gap"] <= 1e-9

    def test_rate_linear_bound(self, w_tracial):
        """First-order deviation at t = 0.1 is O(t), depolarizing case."""
        l = depolarizing_generator(w_tracial)
        form = dirichlet_form(l, w_tracial)
        r = stinespring_rate(l, w_tracial, form, ts=(0.1, 0.05))
        spec_radius = np.linalg.norm(l.matrix @ l.matrix, 2)
        assert r["deviations"][0] <= spec_radius * 0.1

    def test_gram_matches_definition(self):
        """Gram[(p,q),(c,d)] = phi(E_q* Phi(E_p* E_c) E_d) / 2."""
        from qms.lindblad import semigroup
        system = random_system(2, 76)
        w = system.W
        p_t = semigroup(build_generator(system), 0.3)
        units = matrix_units(2)
        want = np.array([[0.5 * w.state(y.conj().T @ p_t.apply(x.conj().T @ c) @ d)
                          for c in units for d in units]
                         for x in units for y in units])
        assert_rel_close(stinespring_route(p_t, w).gram, want)

    def test_rejects_nonunital(self, w_qubit):
        from qms.errors import NotUCP
        with pytest.raises(NotUCP):
            stinespring_route(Superoperator.zero(2), w_qubit)


class TestRepVector:
    def test_zero_derivation(self, w_qubit):
        from qms.lindblad import JumpSystem
        bim = FinBimodule(JumpSystem(W=w_qubit, jumps=[], pairing=[]))
        xi = rep_vector(bim, Derivation(bim))
        assert bim.norm(xi) == 0.0

    def test_spec_vector_invariances(self, qubit_system):
        """xi_j = -i e^{-omega_j/4} v_j is group-invariant and conj-anti-fixed."""
        from qms.bimodule import BimoduleVector
        b = FinBimodule(qubit_system)
        comps = np.array([
            -1j * np.exp(-om / 4.0) * v for v, om in qubit_system.jumps
        ])
        xi = BimoduleVector(comps)
        for t in (0.4, 1.0):
            assert b.norm(b.mod_group(t, xi) - xi) < 1e-12
        assert b.norm(b.conj_ambient(xi) + xi) < 1e-12

    def test_roundtrip_generator(self, qubit_system3):
        from qms.bimodule import inner_derivation_generator
        b = FinBimodule(qubit_system3)
        xi = rep_vector(b, Derivation(b))
        l = inner_derivation_generator(b, xi)
        want = build_generator(qubit_system3)
        assert frob(l.matrix - want.matrix) <= 1e-9 * frob(want.matrix)

    def test_implements_derivation_up_to_phase(self, qubit_system3):
        b = FinBimodule(qubit_system3)
        xi = rep_vector(b, Derivation(b))
        rng = np.random.default_rng(59)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        comm = b.act_left(a, xi) - b.act_right(a, xi)
        da = b.delta(a)
        mu = b.inner(comm, da) / b.inner(comm, comm).real
        assert abs(abs(mu) - 1.0) < 1e-9
        assert b.norm(mu * comm - da) < 1e-9 * b.norm(da)
