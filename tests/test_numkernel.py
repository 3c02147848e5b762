"""Linear-algebra kernel: eigendecompositions, vec, Choi, null quotients."""

import numpy as np
import pytest

from qms.config import DEFAULT_TOL
from qms.errors import DimensionMismatch, NotHermitian, NotPositiveDefinite
from qms.numkernel import (
    Superoperator,
    choi,
    herm_eig,
    mat_power,
    matrix_units,
    null_quotient,
    unvec,
    vec,
)


class TestHermEig:
    def test_identity(self):
        eig = herm_eig(np.eye(2, dtype=complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(
            eig.reconstruct(), np.eye(2), atol=1e-14
        )

    def test_diagonal_oracle(self):
        eig = herm_eig(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
        np.testing.assert_allclose(eig.eigenvalues, [1.0 / 3.0, 2.0 / 3.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a + a.conj().T
        eig = herm_eig(h)
        assert np.linalg.norm(eig.reconstruct() - h) <= 1e-12 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            herm_eig(np.zeros((2, 3)))


class TestMatPower:
    def test_identity_any_power(self):
        np.testing.assert_allclose(
            mat_power(np.eye(3, dtype=complex), 1j), np.eye(3), atol=1e-14
        )

    def test_square_root(self):
        np.testing.assert_allclose(
            mat_power(np.diag([4.0, 1.0]).astype(complex), 0.5),
            np.diag([2.0, 1.0]),
            atol=1e-14,
        )

    def test_imaginary_power_oracle(self):
        got = mat_power(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex), 1j)
        want = np.diag(
            [np.exp(1j * np.log(2.0 / 3.0)), np.exp(1j * np.log(1.0 / 3.0))]
        )
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            mat_power(np.diag([1.0, 0.0]).astype(complex), 0.5)


class TestVec:
    def test_vec_identity(self):
        np.testing.assert_allclose(vec(np.eye(2)), [1, 0, 0, 1])

    def test_kron_convention(self):
        # vec(A x B) = kron(B.T, A) vec(x)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        e21 = e12.T
        got = np.kron(np.eye(2).T, e12) @ vec(e21)
        np.testing.assert_allclose(got, vec(e12 @ e21 @ np.eye(2)))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.array_equal(unvec(vec(x), 3), x)


class TestChoi:
    def test_identity_superoperator(self):
        c = choi(Superoperator.identity(2))
        ev = np.sort(np.linalg.eigvalsh(c))
        np.testing.assert_allclose(ev, [0, 0, 0, 2], atol=1e-14)
        # 2 * maximally entangled projector
        bell = vec(np.eye(2)) / np.sqrt(2.0)
        np.testing.assert_allclose(c, 2.0 * np.outer(bell, bell.conj()),
                                   atol=1e-14)

    def test_transpose_not_cp(self):
        n = 2
        m = np.zeros((4, 4), dtype=complex)
        e = np.zeros((n, n), dtype=complex)
        col = 0
        for j in range(n):
            for i in range(n):
                e[i, j] = 1.0
                m[:, col] = vec(e.T)
                e[i, j] = 0.0
                col += 1
        ev = np.linalg.eigvalsh(choi(Superoperator.from_matrix(m)))
        assert ev.min() < -0.9

    def test_depolarizing_cp(self):
        n = 2
        m = np.outer(vec(np.eye(n)), vec(np.eye(n)).conj()) / n
        c = choi(Superoperator.from_matrix(m))
        np.testing.assert_allclose(c, np.eye(4) / n, atol=1e-14)


    def test_matches_definition(self):
        """C[(i,k),(j,l)] = S(E_ij)[k,l] for a generic (non-Hermitian) map."""
        n = 3
        rng = np.random.default_rng(8)
        s = Superoperator.from_matrix(rng.standard_normal((9, 9))
                                      + 1j * rng.standard_normal((9, 9)))
        want = np.zeros((9, 9), dtype=complex)
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n), dtype=complex)
                e[i, j] = 1.0
                want[i * n:(i + 1) * n, j * n:(j + 1) * n] = s.apply(e)
        np.testing.assert_array_equal(choi(s), want)


class TestMatrixUnits:
    def test_row_major_units(self):
        units = matrix_units(3)
        assert units.shape == (9, 3, 3)
        for i in range(3):
            for j in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[i, j] = 1.0
                np.testing.assert_array_equal(units[i * 3 + j], e)


class TestNullQuotient:
    def test_zero_gram(self):
        assert null_quotient(np.zeros((3, 3))).rank == 0

    def test_threshold(self):
        q = null_quotient(np.diag([1.0, 1e-20]), eps_rel=1e-12)
        assert q.rank == 1

    def test_duplicated_vector(self):
        v = np.array([1.0, 2.0], dtype=complex)
        g = np.array([[np.vdot(v, v), np.vdot(v, v)],
                      [np.vdot(v, v), np.vdot(v, v)]])
        q = null_quotient(g)
        assert q.rank == 1

    def test_embed_lift_inverse(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        g = a @ a.conj().T
        q = null_quotient(g)
        assert q.rank == 3
        np.testing.assert_allclose(q.embed @ q.lift, np.eye(3), atol=1e-10)
        # embed reproduces the Gram geometry: embed* embed = G
        np.testing.assert_allclose(q.embed.conj().T @ q.embed, g, atol=1e-10)
        # the dropped eigenvectors: N - rank orthonormal columns killed by embed
        assert q.null.shape == (5, 2)
        np.testing.assert_allclose(q.null.conj().T @ q.null, np.eye(2),
                                   atol=1e-12)
        np.testing.assert_allclose(q.embed @ q.null, 0.0, atol=1e-10)
