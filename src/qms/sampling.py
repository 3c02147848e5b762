"""Seeded random instances used by check suites and tests.

Jump systems are built in the eigenbasis of a randomly drawn density h:
scaled matrix units U E_ab U* are exact modular eigenvectors with weight
omega = log(lambda_b / lambda_a), off-diagonal units come in adjoint pairs
with opposite weights, and Hermitian traceless diagonal jumps carry
omega = 0.  This produces every valid configuration the four conditions
allow, up to unitary gauge inside degenerate weight blocks.

The sampled checks draw each quantity they sample (``matrices``, ``DISK``,
``SQUARE``) for all samples in one generator call, bit for bit as a run of
scalar calls such as ``random_matrix`` would, one sample after the other.
"""

import math

import numpy as np

from .errors import SizeLimitExceeded
from .lindblad import JumpSystem
from .modular import WeightedAlgebra

__all__ = ["random_unitary", "random_density", "random_weighted_algebra",
           "random_jump_system", "random_matrix", "matrices", "DISK",
           "SQUARE", "draw_samples", "sample_blocks", "check_stage_bytes", "worst"]

# The sampled checks evaluate their samples in blocks whose stacks take at
# most this many bytes each, so that their working set does not grow with
# the sample count (one sample a block at least).  Each check counts the
# complex entries one sample holds at once, at 16 bytes each: at n = 4 a
# ``gram_axioms_check`` sample takes ~17 KB, so a block holds ~15 of them;
# at n = 8 ~270 KB, one.
_BLOCK_BYTES = 1 << 18

# The bytes any stage may hold at its peak (``check_stage_bytes``), and
# numpy's iteration buffers and small objects a stage holds beyond its arrays
_STAGE_BYTES = 1 << 28
_SMALL_BYTES = 1 << 19


def random_unitary(n, rng):
    z = random_matrix(n, rng)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(n, rng, spread=1.2):
    """Faithful density with eigenvalue logs spread over about [-s, s]."""
    lam = np.exp(rng.uniform(-spread, spread, size=n))
    lam /= lam.sum()
    u = random_unitary(n, rng)
    return (u * lam) @ u.conj().T


def random_weighted_algebra(n, rng, spread=1.2, tol=None):
    kwargs = {} if tol is None else {"tol": tol}
    return WeightedAlgebra(random_density(n, rng, spread), **kwargs)


def random_matrix(n, rng, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def matrices(n, scale=1.0):
    """The draw of ``count`` matrices ``random_matrix(n, rng, scale)``."""
    def draw(rng, count):
        x = rng.standard_normal((count, 2, n, n))
        return scale * (x[:, 0] + 1j * x[:, 1])
    return draw


def DISK(rng, count):
    """``count`` points of the closed unit disk, uniform in area."""
    u = rng.uniform(size=(count, 2))
    return np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])


def SQUARE(rng, count):
    """``count`` points uniform(-1, 1) + 1j uniform(-1, 1) of the square [-1, 1]^2."""
    u = rng.uniform(-1.0, 1.0, size=(count, 2))
    return u[:, 0] + 1j * u[:, 1]


def draw_samples(rng, count, *draws):
    """``count`` samples of each draw ``(rng, count) -> array`` in ``draws``,
    in order: one array per draw with a leading sample axis, each in one
    generator call.  The generator fills an array one value at a time, so a
    draw's values are those of ``count`` scalar calls in a row."""
    return [d(rng, count) for d in draws]


def sample_blocks(count, sample_bytes):
    """Slices of consecutive samples, each as many as fit ``_BLOCK_BYTES`` at
    ``sample_bytes`` per sample."""
    size = max(1, _BLOCK_BYTES // sample_bytes)
    return [slice(lo, lo + size) for lo in range(0, count, size)]


def check_stage_bytes(nbytes, what):
    """Refuse ``what`` if the ``nbytes`` it would hold exceed ``_STAGE_BYTES``."""
    if nbytes > _STAGE_BYTES:
        raise SizeLimitExceeded(f"{what} would hold {nbytes / 2 ** 20:.1f} MiB at its "
                                f"peak; the limit is {_STAGE_BYTES / 2 ** 20:.1f} MiB")


def worst(*residuals):
    """The largest entry over the given residuals, scalars or arrays; NaN if
    any entry is NaN, so that a check of it fails."""
    values = [float(np.max(r)) for r in residuals]
    return math.nan if any(map(math.isnan, values)) else max(values)


def random_jump_system(w: WeightedAlgebra, rng, m_max=6):
    """Valid jump system with at most m_max jumps over the given algebra."""
    n = w.n
    lam = w.eig.eigenvalues
    pairs = [(a, b) for a in range(n) for b in range(n) if a < b]
    rng.shuffle(pairs)

    jumps = []
    pairing = []
    budget = m_max
    n_offdiag = min(len(pairs), budget // 2)
    for a, b in pairs[:n_offdiag]:
        c = rng.uniform(0.3, 1.5) * np.exp(2j * np.pi * rng.uniform())
        e_ab = np.zeros((n, n), dtype=np.complex128)
        e_ab[a, b] = 1.0
        v = c * w.from_eig(e_ab)
        omega = float(np.log(lam[b]) - np.log(lam[a]))
        j = len(jumps)
        jumps.append((v, omega))
        jumps.append((v.conj().T, -omega))
        pairing.extend([j + 1, j])
    budget -= 2 * n_offdiag

    n_diag = min(budget, n - 1, int(rng.integers(0, budget + 1)))
    if n_diag > 0:
        # orthonormal traceless real diagonals in the eigenbasis of h
        raw = rng.standard_normal((n, n_diag))
        raw -= raw.mean(axis=0)
        q, _ = np.linalg.qr(raw)
        for k in range(min(n_diag, q.shape[1])):
            col = q[:, k]
            if np.linalg.norm(col) < 0.5:
                continue
            v = rng.uniform(0.3, 1.5) * w.from_eig(np.diag(col))
            pairing.append(len(jumps))
            jumps.append((v, 0.0))

    return JumpSystem(W=w, jumps=jumps, pairing=pairing)
