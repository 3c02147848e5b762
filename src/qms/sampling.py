"""Seeded random instances used by check suites and tests.

Jump systems are built in the eigenbasis of a randomly drawn density h:
scaled matrix units U E_ab U* are exact modular eigenvectors with weight
omega = log(lambda_b / lambda_a), off-diagonal units come in adjoint pairs
with opposite weights, and Hermitian traceless diagonal jumps carry
omega = 0.  This produces every valid configuration the four conditions
allow, up to unitary gauge inside degenerate weight blocks.

The sampled checks draw by spec: a ``Draw`` names a generator method, the
values one sample takes of it and their map to the sample's value.
``draw_samples`` takes each run of draws of one kind in one generator call
per sample, bit for bit as scalar calls such as ``random_matrix`` would.
"""

import math
from collections import namedtuple
from itertools import groupby, product

import numpy as np

from .errors import SizeLimitExceeded
from .lindblad import JumpSystem
from .modular import WeightedAlgebra

__all__ = ["random_unitary", "random_density", "random_weighted_algebra",
           "random_jump_system", "random_matrix", "Draw", "matrices", "DISK",
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


# kind = (name, *args) of the generator method; make maps (..., size) to (...)
Draw = namedtuple("Draw", "kind size make")


def matrices(n, scale=1.0):
    """The draw of ``random_matrix(n, rng, scale)``."""
    return Draw(("standard_normal",), 2 * n * n, lambda x: scale * (
        x[..., :n * n] + 1j * x[..., n * n:]).reshape(x.shape[:-1] + (n, n)))


# a point of the closed unit disk, uniform in area
DISK = Draw(("uniform", 0.0, 1.0), 2,
            lambda u: np.sqrt(u[..., 0]) * np.exp(2j * np.pi * u[..., 1]))
# uniform(-1, 1) + 1j uniform(-1, 1): the square [-1, 1]^2 of the plane
SQUARE = Draw(("uniform", -1.0, 1.0), 2, lambda u: u[..., 0] + 1j * u[..., 1])


def draw_samples(rng, count, *draws):
    """``count`` samples, each one value of every ``Draw`` in ``draws`` in
    order, as one array per draw with a leading sample axis.

    Consecutive draws of one kind form a run, which a sample takes from the
    generator in one call; if a sample is a single run, one call takes all
    samples.  The generator fills an array one value at a time, as repeated
    scalar calls would, so the values are bit-identical to those of a loop
    that draws each sample's values before the next sample's.
    """
    def call(kind, size):
        return getattr(rng, kind[0])(*kind[1:], size=size)

    runs = [list(run) for _, run in groupby(draws, key=lambda d: d.kind)]
    sizes = [sum(d.size for d in run) for run in runs]
    if len(runs) == 1:
        values = [call(runs[0][0].kind, (count, sizes[0]))]
    else:
        values = [np.empty((count, size)) for size in sizes]
        for i, (run, v) in product(range(count), zip(runs, values)):
            v[i] = call(run[0].kind, v.shape[1])
    out = []
    for run, v in zip(runs, values):
        ends = np.cumsum([d.size for d in run])
        out.extend(d.make(v[:, end - d.size:end]) for d, end in zip(run, ends))
    return out


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
