"""Shared fixtures: small weighted algebras and reference jump systems."""

import numpy as np
import pytest
from hypothesis import settings

from qms.lindblad import JumpSystem
from qms.modular import WeightedAlgebra
from qms.numkernel import Superoperator, vec

# one derandomised profile for every property test: reproducible examples,
# no example database, no deadline, few examples
settings.register_profile("qms", max_examples=6, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("qms")


def matrix_unit(n, i, j):
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


E11 = matrix_unit(2, 0, 0)
E12 = matrix_unit(2, 0, 1)
E21 = matrix_unit(2, 1, 0)
E22 = matrix_unit(2, 1, 1)

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@pytest.fixture
def w_qubit():
    """M_2 with the non-tracial density diag(2/3, 1/3)."""
    return WeightedAlgebra(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))


@pytest.fixture
def w_tracial():
    """M_2 with the tracial state."""
    return WeightedAlgebra(np.eye(2, dtype=complex) / 2.0)


@pytest.fixture
def qubit_system(w_qubit):
    """The reference pair {(E21, log 2), (E12, -log 2)}."""
    return JumpSystem(
        W=w_qubit,
        jumps=[(E21, np.log(2.0)), (E12, -np.log(2.0))],
        pairing=[1, 0],
    )


@pytest.fixture
def qubit_system3(w_qubit):
    """Reference pair plus a Hermitian zero-weight diagonal jump."""
    d = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    return JumpSystem(
        W=w_qubit,
        jumps=[(E21, np.log(2.0)), (E12, -np.log(2.0)), (d, 0.0)],
        pairing=[1, 0, 2],
    )


# --- references for maps the package forms inline or not at all ---------------

def unvec(v, n):
    """The n x n matrix of a column-stacked vector: the inverse of ``vec``."""
    return np.asarray(v, dtype=np.complex128).reshape((n, n), order="F")


def sandwich(a, b):
    """The superoperator x -> a x b, of matrix kron(b^T, a) in vec coordinates."""
    return Superoperator.from_matrix(np.kron(np.asarray(b).T, np.asarray(a)))


def zero_map(n):
    return Superoperator.from_matrix(np.zeros((n * n, n * n)))


def identity_map(n):
    return Superoperator.from_matrix(np.eye(n * n))


def commutator_map(d):
    """The superoperator x -> i [d, x]."""
    eye = np.eye(len(d))
    return Superoperator.from_matrix(1j * (sandwich(d, eye).matrix
                                           - sandwich(eye, d).matrix))


def inner(w, x, y):
    """<x, y>_h = tr(x* y h)."""
    return complex(np.trace(np.asarray(x).conj().T @ y @ w.h))


def state(w, x):
    """phi(x) = tr(x h)."""
    return complex(np.trace(x @ w.h))


def from_coords(w, c):
    """The matrix x with ``w.coords(x) = c``: x h^{1/2} = unvec(c)."""
    return unvec(c, w.n) @ w.h_isqrt


def conj_j(w, x):
    """J x = h^{1/2} x* h^{-1/2}, through the modular eigenbasis."""
    return w.from_eig(w.conj_eig(w.to_eig(x)))


def sharp(x):
    """x -> x*, the adjoint for left multiplication; of each matrix of a stack."""
    return np.swapaxes(x, -1, -2).conj()


def flat(w, x):
    """x -> h x* h^{-1} = U_{-i}(x*), the adjoint for right multiplication."""
    return w.h @ sharp(x) @ w.h_inv


def modular_op(w):
    """Delta(x) = h x h^{-1} as a superoperator."""
    return sandwich(w.h, w.h_inv)


def act_left(b, a, xi):
    """a xi of a bimodule vector (stack) xi of a ``FinBimodule`` b."""
    return b.W.to_eig(a)[..., None, :, :] @ xi


def act_right(b, a, xi):
    """xi a of a bimodule vector (stack) xi of a ``FinBimodule`` b."""
    return xi @ b.W.to_eig(a)[..., None, :, :]


def depolarizing_generator(w):
    """L(x) = x - phi(x) 1 as a superoperator in plain vec coordinates."""
    n = w.n
    hv = np.zeros(n * n, dtype=np.complex128)
    for j in range(n):
        for i in range(n):
            hv[i + j * n] = w.h[j, i]  # tr(x h) = sum_ij x_ij h_ji
    m = np.eye(n * n, dtype=np.complex128) - np.outer(vec(np.eye(n)), hv)
    return Superoperator.from_matrix(m)
