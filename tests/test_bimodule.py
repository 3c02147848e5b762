"""Explicit bimodule: actions, modular structure, conjugation, derivation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qms.bimodule
import qms.sampling

from qms.bimodule import Derivation, FinBimodule, carre_du_champ
from qms.config import DEFAULT_TOL
from qms.errors import SizeLimitExceeded
from qms.lindblad import JumpSystem, build_generator, dirichlet_form
from qms.modular import TomitaData, WeightedAlgebra
from qms.numkernel import Superoperator, frob, mat_power
from qms.sampling import (random_jump_system, random_matrix, random_unitary,
                          random_weighted_algebra)
from qms.suites import Scenario, ScenarioData, run_suite

from conftest import E11, E12, E21, SX
from test_reconstruct import traced_peak
from test_sampled_checks import clustered_spectra, form_of, jump_system


class NotInvariantVector(Exception):
    """Vector is not fixed by the bimodule group and conjugation."""


def inner_derivation_generator(b, xi, tol=DEFAULT_TOL):
    """L_xi(x) = (xi|xi) x + x (xi|xi) - 2 (xi| x xi) for an invariant vector.

    (xi|eta) = sum_j xi_j* eta_j is the algebra-valued pairing, read off the
    standard-basis components.  The vector must be fixed by the modular
    group and by the conjugation.
    """
    nrm = max(b.norm(xi), 1e-300)
    for t in (0.5, 1.0):
        if b.norm(b.mod_group(t, xi) - xi) > tol.axiom * nrm:
            raise NotInvariantVector(f"U_{t} xi != xi")
    if b.m > 0 and b.norm(b.conj_ambient(xi) - xi) > tol.axiom * nrm:
        raise NotInvariantVector("conj xi != xi")
    n = b.n
    eye = np.eye(n, dtype=np.complex128)
    q = np.zeros((n, n), dtype=np.complex128)
    total = Superoperator.zero(n)
    for c in b.W.from_eig(xi):
        q += c.conj().T @ c
        total = total - 2.0 * Superoperator.left_right(c.conj().T, c)
    total = total + Superoperator.left_right(q, eye) + Superoperator.left_right(eye, q)
    return total


@pytest.fixture
def bim(qubit_system3):
    return FinBimodule(qubit_system3)


def rand_vec(bim, rng):
    return (rng.standard_normal((bim.m, bim.n, bim.n))
            + 1j * rng.standard_normal((bim.m, bim.n, bim.n)))


class TestActions:
    def test_identity_acts_trivially(self, bim):
        rng = np.random.default_rng(22)
        xi = rand_vec(bim, rng)
        eye = np.eye(2)
        np.testing.assert_allclose(
            bim.act_left(eye, xi), xi, atol=1e-14
        )
        np.testing.assert_allclose(
            bim.act_right(eye, xi), xi, atol=1e-14
        )

    def test_left_right_commute_exactly(self, bim):
        rng = np.random.default_rng(23)
        xi = rand_vec(bim, rng)
        a = bim.act_left(E11, bim.act_right(np.eye(2) - E11, xi))
        b = bim.act_right(np.eye(2) - E11, bim.act_left(E11, xi))
        assert np.array_equal(a, b)

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

    def test_real_arrays_are_vectors(self, bim):
        """A real-valued component array is a vector like its complex copy:
        ``norm`` reads the float view of complex components, so it must not
        read the real array's own."""
        rng = np.random.default_rng(47)
        xi, eta = rng.standard_normal((2, 4, bim.m, bim.n, bim.n))
        xc, ec = xi.astype(complex), eta.astype(complex)
        assert np.array_equal(bim.norm(xi), bim.norm(xc))
        assert np.array_equal(bim.inner(xi, eta), bim.inner(xc, ec))
        assert bim.norm(np.zeros((bim.m, bim.n, bim.n))) == 0.0


class TestModularStructure:
    def test_group_at_zero(self, bim):
        rng = np.random.default_rng(26)
        xi = rand_vec(bim, rng)
        np.testing.assert_allclose(
            bim.mod_group(0.0, xi), xi, atol=1e-13
        )

    def test_group_intertwines_delta(self, bim):
        rng = np.random.default_rng(27)
        td = TomitaData(bim.W)
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
            rhs = bim.delta(TomitaData(bim.W).conj_J(a))
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
        da = b.W.from_eig(b.delta(E11))
        np.testing.assert_allclose(
            da[0], 1j * 2.0 ** (-0.25) * E21, atol=1e-13
        )
        np.testing.assert_allclose(
            da[1], -1j * 2.0 ** (0.25) * E12, atol=1e-13
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
            return b.W.from_eig(b.delta(a[:, 0])) @ w.h_sqrt

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

    def test_perturbed_weight_fails_e_and_f(self, w_qubit):
        """The golden failing case, the qubit jumps with the first weight off
        by 0.1, fails (e) and (f) relative to the vectors compared, and
        passes (a)-(d)."""
        d = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
        broken = JumpSystem(W=w_qubit, jumps=[(E21, np.log(2.0) + 0.1),
                                              (E12, -np.log(2.0)), (d, 0.0)],
                            pairing=[1, 0, 2])
        res = FinBimodule(broken, validate=False).axioms_check()
        assert min(res["e"], res["f"]) > 1e-2
        assert max(res[k] for k in "abcd") <= 1e-9

    def test_weight_error_on_equally_spaced_spectrum(self):
        """Over the equally spaced spectrum exp(-3k) at n = 4 (cond(h) = 8e3),
        where U_z stretches xi by up to e^{27}, a valid system passes all six
        axioms and a 1e-6 error in one weight fails (e) and (f)."""
        rng = np.random.default_rng(24)
        lam = np.exp(-3.0 * np.arange(4))
        u = random_unitary(4, rng)
        w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
        system = random_jump_system(w, rng, m_max=8)
        assert max(FinBimodule(system).axioms_check().values()) <= 1e-9
        jumps = list(system.jumps)
        v, omega = jumps[0]
        assert omega != 0.0
        jumps[0] = (v, omega + 1e-6)
        broken = JumpSystem(W=w, jumps=jumps, pairing=system.pairing)
        res = FinBimodule(broken, validate=False).axioms_check()
        assert min(res["e"], res["f"]) > 1e-9


@st.composite
def conditioned_jump_systems(draw):
    """A jump system of ``random_jump_system`` (m <= 2n jumps) over a density
    of size n = 2..4 in a random eigenbasis, with log-eigenvalues spread over
    [0, log c], c log-uniform in [1, 1e4], the two ends included."""
    n = draw(st.integers(2, 4))
    log_c = np.log(10.0) * draw(st.floats(0.0, 4.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    lam = np.exp(log_c * np.array([0.0, 1.0] + inner))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = random_unitary(n, rng)
    w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
    return random_jump_system(w, rng, m_max=2 * n)


@settings(max_examples=12)
@given(system=conditioned_jump_systems(), seed=st.integers(0, 2 ** 32 - 1))
def test_valid_systems_pass_every_axiom(system, seed):
    """Every valid jump system with cond(h) <= 1e4 passes axioms (a)-(f) at
    the axiom tolerance, whatever the samples (the seed draws them; z and
    z2 lie in the unit disk)."""
    res = FinBimodule(system).axioms_check(n_vectors=60, seed=seed)
    assert max(res.values()) <= DEFAULT_TOL.axiom, res


class TestInnerDerivationGenerator:
    def test_zero_vector(self, bim):
        l = inner_derivation_generator(bim, np.zeros((bim.m, 2, 2)))
        assert frob(l.matrix) == 0.0

    def test_sigma_x_oracle(self, w_tracial):
        system = JumpSystem(
            W=w_tracial, jumps=[(SX / np.sqrt(2.0), 0.0)], pairing=[0]
        )
        b = FinBimodule(system)
        xi = b.W.to_eig(np.array([SX / np.sqrt(2.0)]))
        l = inner_derivation_generator(b, xi)
        np.testing.assert_allclose(
            l.matrix, build_generator(system).matrix, atol=1e-12
        )

    def test_jump_vector_rebuilds_generator(self, qubit_system3):
        b = FinBimodule(qubit_system3)
        comps = np.array([
            np.exp(-om / 4.0) * v for v, om in qubit_system3.jumps
        ])
        xi = b.W.to_eig(comps)
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
            da = b.W.from_eig(b.delta(a))
            direct = w.h_sqrt @ sum(
                da[j].conj().T @ da[j] for j in range(b.m)
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


def _adjoint(x):
    return np.swapaxes(x, -1, -2).conj()


@settings(max_examples=10)
@example(case=(np.ones(3), 0), m_max=0)
@example(case=(np.ones(3), 1), m_max=6)
@example(case=(np.array([1.0, 1.0, 2.0]), 2), m_max=6)
@given(case=clustered_spectra(), m_max=st.integers(0, 6))
def test_eigenbasis_maps_match_standard_formulas(case, m_max):
    """Over tracial, repeated and clustered spectra, and with no jumps, the
    eigenbasis forms of the structure maps read, in standard components,
    the defining formulas: h^{iz} xi_j h^{-iz} e^{i omega_j z},
    sum_j tr(xi_j* eta_j h), J(xi_{j*}), vec(xi_j h^{1/2}), the actions,
    delta, and conj(delta(a)) = delta(J a)."""
    spectrum, seed = case
    rng = np.random.default_rng(seed)
    n = spectrum.size
    u = random_unitary(n, rng)
    w = WeightedAlgebra((u * (spectrum / spectrum.sum())) @ u.conj().T)
    system = random_jump_system(w, rng, m_max=min(m_max, 2 * n))
    b = FinBimodule(system)
    m = b.m
    s, t = (rng.standard_normal((2, 4, m, n, n)) + 1j * rng.standard_normal((2, 4, m, n, n)))
    a = np.array([random_matrix(n, rng) for _ in range(4)])
    z = rng.uniform(-1, 1, 4) + 0.5j * rng.uniform(-1, 1, 4)
    xi, eta = b.W.to_eig(s), b.W.to_eig(t)

    def close(got, want, rel=1e-12):
        assert got.shape == want.shape
        assert np.abs(got - want).max(initial=0.0) <= rel * max(np.abs(want).max(initial=0.0), 1.0)

    close(b.W.from_eig(xi), s)
    phase = np.exp(1j * np.multiply.outer(z, b.omegas))[..., None, None]
    close(b.W.from_eig(b.mod_group(z, xi)),
          phase * (mat_power(w.h, 1j * z, _eig=w.eig)[:, None] @ s
                   @ mat_power(w.h, -1j * z, _eig=w.eig)[:, None]))
    close(b.inner(xi, eta), np.trace(_adjoint(s) @ t @ w.h, axis1=-2, axis2=-1).sum(-1))
    close(b.W.from_eig(b.conj_ambient(xi)),
          w.h_sqrt @ _adjoint(s[:, system.pairing]) @ w.h_isqrt)
    close(b.coords(xi), np.swapaxes(s @ w.h_sqrt, -1, -2).reshape(4, -1))
    close(b.W.from_eig(b.from_coords(b.coords(xi))), s)
    close(b.W.from_eig(b.act_left(a, xi)), a[:, None] @ s)
    close(b.W.from_eig(b.act_right(a, xi)), s @ a[:, None])
    v = np.array([v for v, _ in system.jumps]).reshape(m, n, n)
    weights = 1j * np.exp(-b.omegas / 4.0)[:, None, None]
    close(b.W.from_eig(b.delta(a)), weights * (v @ a[:, None] - a[:, None] @ v))
    close(b.W.from_eig(b.conj(b.delta(a))),
          b.W.from_eig(b.delta(TomitaData(w).conj_J(a))), rel=1e-10)


def _counts(monkeypatch):
    """The byte counts the bimodule checks pass to ``check_stage_bytes``."""
    counts, check = [], qms.bimodule.check_stage_bytes
    monkeypatch.setattr(qms.bimodule, "check_stage_bytes",
                        lambda nbytes, what: counts.append(nbytes) or check(nbytes, what))
    return counts


class TestStageBudget:
    """``axioms_check`` and ``Derivation.check`` count what they hold before
    they allocate, and are refused above ``sampling._STAGE_BYTES``."""

    @staticmethod
    def checks(system):
        form = form_of(system)
        return {"axioms": lambda b: b.axioms_check(n_vectors=60),
                "derivation": lambda b: Derivation(b).check(form, n_samples=50)}

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 6), (3, 8), (4, 8),
                                      (4, 15), (5, 10), (6, 12), (6, 35)])
    def test_count_bounds_peak(self, n, m, monkeypatch):
        system = jump_system(n, m, 110 + n)
        counts = _counts(monkeypatch)
        for name, run in self.checks(system).items():
            b = FinBimodule(system, validate=False)
            peak = traced_peak(lambda: run(b))[1]
            assert peak <= counts[-1], name

    @pytest.mark.parametrize("check", ["axioms", "derivation"])
    def test_refused_before_allocating(self, check, monkeypatch):
        """One byte below its count a check raises the named size error
        before it forms any delta; at its count it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        system = jump_system(3, 6, 5)
        run = self.checks(system)[check]
        with monkeypatch.context() as mp:
            counts = _counts(mp)
            run(FinBimodule(system, validate=False))
        (count,) = counts
        with monkeypatch.context() as mp:
            mp.setattr(qms.sampling, "_STAGE_BYTES", count - 1)
            mp.setattr(FinBimodule, "_delta", refuse)
            with pytest.raises(SizeLimitExceeded, match="at its peak"):
                run(FinBimodule(system, validate=False))
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES", count)
        run(FinBimodule(system, validate=False))

    def test_default_limit_admits_n8(self, monkeypatch):
        """Under the default limit the bimodule-axioms suite passes at
        n = 8, m = 16; both counts grow with n and m, so every m = 2n run
        up to n = 8 is admitted."""
        system = jump_system(8, 16, 118)
        counts = _counts(monkeypatch)
        sc = Scenario(ScenarioData(W=system.W, system=system), DEFAULT_TOL)
        assert all(c["pass"] for c in run_suite("bimodule-axioms", sc, 0))
        assert len(counts) == 2 and max(counts) < qms.sampling._STAGE_BYTES
