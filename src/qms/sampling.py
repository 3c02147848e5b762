"""Seeded random instances used by check suites and tests.

Jump systems are built in the eigenbasis of a randomly drawn density h:
scaled matrix units U E_ab U* are exact modular eigenvectors with weight
omega = log(lambda_b / lambda_a), off-diagonal units come in adjoint pairs
with opposite weights, and Hermitian traceless diagonal jumps carry
omega = 0.  This produces every valid configuration the four conditions
allow, up to unitary gauge inside degenerate weight blocks.
"""

import numpy as np

from .errors import SizeLimitExceeded
from .lindblad import JumpSystem
from .modular import WeightedAlgebra

__all__ = ["random_unitary", "random_density", "random_weighted_algebra",
           "random_jump_system", "random_matrix", "random_disk_point",
           "draw_samples", "sample_blocks", "check_stage_bytes", "worst"]

# The sampled checks evaluate their samples in blocks whose stacks take at
# most this many bytes each, so that their working set does not grow with
# the sample count (one sample a block at least).  Each check counts the
# complex entries one sample holds at once, at 16 bytes each:
# ``gram_axioms_check`` the rt x rt stacks of L_T and U_T plus one value per
# axiom (f) term (rt = rank / n), its (b) defect Gram n^2 per nonzero
# position of D, and ``FinBimodule.axioms_check`` the three n^4-wide ``conj``
# coefficient rows plus four m n^2 bimodule vectors.  At n = 4 a Gram
# sample takes ~17 KB, so a block holds ~15 of them; at n = 8 ~270 KB, one.
_BLOCK_BYTES = 1 << 18

# The bytes any stage may hold at its peak (``check_stage_bytes``)
_STAGE_BYTES = 1 << 28


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


def random_disk_point(rng):
    """A point of the closed unit disk, uniform in area."""
    r = np.sqrt(rng.uniform())
    return r * np.exp(2j * np.pi * rng.uniform())


def draw_samples(rng, count, *draws):
    """``count`` samples, each one call of every ``draws[k](rng)`` in order,
    as one array per draw with a leading sample axis.

    The generator is called sample by sample, exactly as a loop that draws
    each sample's values before the next sample would call it, so the
    stacked values are bit-identical to that loop's.
    """
    samples = [[draw(rng) for draw in draws] for _ in range(count)]
    return [np.array(values) for values in zip(*samples)]


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
    """The largest entry over the given residuals, scalars or arrays."""
    return max(float(np.max(r)) for r in residuals)


def random_jump_system(w: WeightedAlgebra, rng, m_max=6):
    """Valid jump system with at most m_max jumps over the given algebra."""
    n = w.n
    lam, u = w.eig.eigenvalues, w.eig.eigenvectors
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
        v = c * (u @ e_ab @ u.conj().T)
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
            v = rng.uniform(0.3, 1.5) * (u @ np.diag(col.astype(np.complex128)) @ u.conj().T)
            pairing.append(len(jumps))
            jumps.append((v, 0.0))

    return JumpSystem(W=w, jumps=jumps, pairing=pairing)
