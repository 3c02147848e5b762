"""Modular structure of (M_n, tr(. h)): inner product, Delta, U_z, J, sharp/flat."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qms.modular import TomitaData, WeightedAlgebra
from qms.errors import NotPositiveDefinite
from qms.numkernel import Superoperator, mat_power
from qms.sampling import random_matrix, random_unitary, random_weighted_algebra

from conftest import (E11, E12, E21, conj_j, flat, from_coords, inner,
                      modular_op, sharp)


def s_residual(w, x):
    """|| J(Delta^{1/2} x) - x* || — the polar decomposition S = J Delta^{1/2}."""
    d_half = w.h_sqrt @ x @ w.h_isqrt
    return np.linalg.norm(conj_j(w, d_half) - x.conj().T)


class TestWeightedAlgebra:
    def test_inner_identity(self, w_qubit):
        assert abs(inner(w_qubit, np.eye(2), np.eye(2)) - 1.0) < 1e-14
        assert abs(w_qubit.norm(np.eye(2)) - 1.0) < 1e-14

    def test_inner_unit_oracle(self, w_qubit):
        assert abs(inner(w_qubit, E11, E11) - 2.0 / 3.0) < 1e-14
        assert abs(w_qubit.norm(E11) ** 2 - 2.0 / 3.0) < 1e-14

    def test_faithful(self, w_qubit):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert inner(w_qubit, x, x).real > 0

    def test_coords_isometry(self, w_qubit):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(np.vdot(w_qubit.coords(x), w_qubit.coords(y))
                   - inner(w_qubit, x, y)) < 1e-12
        np.testing.assert_allclose(
            from_coords(w_qubit, w_qubit.coords(x)), x, atol=1e-12
        )

    def test_op_matrix_matches_definition(self):
        """Column k of op_matrix(S) is coords(S(from_coords(e_k)))."""
        rng = np.random.default_rng(18)
        w = random_weighted_algebra(3, rng)
        s = Superoperator.from_matrix(rng.standard_normal((9, 9))
                                      + 1j * rng.standard_normal((9, 9)))
        want = np.array([w.coords(s.apply(from_coords(w, e)))
                         for e in np.eye(9)]).T
        got = w.op_matrix(s)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_trace_rescale_warns(self):
        with pytest.warns(UserWarning):
            w = WeightedAlgebra(np.eye(2, dtype=complex))
        assert abs(np.trace(w.h) - 1.0) < 1e-14

    def test_rejects_singular_density(self):
        with pytest.raises(NotPositiveDefinite):
            WeightedAlgebra(np.diag([1.0, 0.0]).astype(complex))


class TestModularOperator:
    def test_tracial_identity(self, w_tracial):
        d = modular_op(w_tracial)
        np.testing.assert_allclose(d.matrix, np.eye(4), atol=1e-14)

    def test_delta_unit_oracle(self, w_qubit):
        d = modular_op(w_qubit)
        np.testing.assert_allclose(d.apply(E12), 2.0 * E12, atol=1e-13)

    def test_delta_fixes_h(self, w_qubit):
        d = modular_op(w_qubit)
        np.testing.assert_allclose(d.apply(w_qubit.h), w_qubit.h, atol=1e-14)


class TestModularGroup:
    def test_fixes_identity(self, w_qubit):
        td = TomitaData(w_qubit)
        np.testing.assert_allclose(
            td.modular_group(0.7 + 0.3j, np.eye(2)), np.eye(2), atol=1e-13
        )

    def test_continuation_to_delta(self, w_qubit):
        td = TomitaData(w_qubit)
        np.testing.assert_allclose(
            td.modular_group(-1j, E12), 2.0 * E12, atol=1e-13
        )

    def test_real_time_unitary(self, w_qubit):
        td = TomitaData(w_qubit)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            t = rng.uniform(-2, 2)
            assert abs(
                inner(w_qubit, td.modular_group(t, x), td.modular_group(t, y))
                - inner(w_qubit, x, y)
            ) < 1e-10


    @given(n=st.integers(2, 5), log_cond=st.floats(0.0, 4.0),
           re=st.floats(-3.0, 3.0), im=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_powers(self, n, log_cond, re, im, seed):
        """U_z through the modular eigenbasis is h^{iz} x h^{-iz} formed from
        the dense powers, to 1e-13 relative, for cond(h) <= 1e4 and
        |Im z| <= 2; also for a stack of x with one z each."""
        rng = np.random.default_rng(seed)
        lam = 10.0 ** np.r_[0.0, log_cond, rng.uniform(0.0, log_cond, n - 2)]
        u = random_unitary(n, rng)
        w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
        x = np.array([random_matrix(n, rng) for _ in range(3)])
        z = complex(re, im) * np.array([1.0, 0.5, -1.0])
        want = (mat_power(w.h, 1j * z, _eig=w.eig) @ x
                @ mat_power(w.h, -1j * z, _eig=w.eig))
        got = TomitaData(w).modular_group(z, x)
        assert np.all(np.linalg.norm(got - want, axis=(-2, -1))
                      <= 1e-13 * np.linalg.norm(want, axis=(-2, -1)))
        assert np.allclose(TomitaData(w).modular_group(z[0], x[0]), got[0],
                           rtol=1e-13, atol=0.0)

    def test_warns_beyond_supported_range(self, w_qubit):
        with pytest.warns(UserWarning, match="beyond supported range"):
            TomitaData(w_qubit).modular_group(4.5j, E12)


class TestConjugation:
    def test_tracial_is_adjoint(self, w_tracial):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(conj_j(w_tracial, x), x.conj().T, atol=1e-14)

    def test_fixes_h(self, w_qubit):
        np.testing.assert_allclose(conj_j(w_qubit, w_qubit.h), w_qubit.h, atol=1e-14)

    def test_unit_oracle(self, w_qubit):
        # h^{1/2} E21 h^{-1/2} = sqrt(1/3) sqrt(3/2) E21 = E21 / sqrt(2)
        np.testing.assert_allclose(
            conj_j(w_qubit, E12), E21 / np.sqrt(2.0), atol=1e-13
        )

    def test_polar_decomposition(self, w_qubit):
        rng = np.random.default_rng(15)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert s_residual(w_qubit, x) < 1e-12


class TestInvolutions:
    def test_fix_identity(self, w_qubit):
        np.testing.assert_allclose(sharp(np.eye(2)), np.eye(2))
        np.testing.assert_allclose(flat(w_qubit, np.eye(2)), np.eye(2), atol=1e-14)

    def test_tracial_both_adjoint(self, w_tracial):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(flat(w_tracial, x), sharp(x), atol=1e-14)

    def test_flat_unit_oracle(self, w_qubit):
        # h E21 h^{-1} = (1/3)(3/2) E21 = E21 / 2
        np.testing.assert_allclose(flat(w_qubit, E12), 0.5 * E21, atol=1e-13)

    def test_adjoint_pairings(self, w_qubit):
        """sharp/flat are the left/right multiplication adjoints."""
        rng = np.random.default_rng(17)
        for _ in range(20):
            a, x, y = (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)) for _ in range(3))
            assert abs(inner(w_qubit, a @ x, y)
                       - inner(w_qubit, x, sharp(a) @ y)) < 1e-12
            assert abs(inner(w_qubit, x @ a, y)
                       - inner(w_qubit, x, y @ flat(w_qubit, a))) < 1e-12
