"""Gram reconstruction, uniqueness isometry, the Stinespring route against
its Kraus dilation, the representing vector."""

import re
import tracemalloc
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qms.numkernel
import qms.reconstruct
import qms.sampling
from qms.bimodule import FinBimodule
from qms.cli import main
from qms.config import DEFAULT_TOL
from qms.errors import (GramNotPSD, NotGNSSymmetric, QMSError, RankUndecided,
                        SizeLimitExceeded)
from qms.lindblad import (DirichletForm, JumpSystem, build_generator,
                          dirichlet_form, extract_alicki)
from qms.modular import WeightedAlgebra
from qms.numkernel import (HermEig, Superoperator, as_cmatrix, choi, frob,
                           herm_eig, mat_power, matrix_units, null_quotient)
from qms.reconstruct import (
    boundary_pairing,
    build_gram_space,
    gram_axioms_check,
    gram_entry,
    stinespring_rate,
    stinespring_route,
    uniqueness_isometry,
)
from qms.sampling import (random_jump_system, random_matrix, random_unitary,
                          random_weighted_algebra)

from conftest import act_left as bim_left, act_right as bim_right
from conftest import (conj_j, depolarizing_generator, identity_map, inner, matrix_unit,
                      sandwich, state, zero_map)
from test_cli import base_scenario, mat_json, write_scenario
from test_sampled_checks import (GRAM_SYSTEMS, conj_matrix, form_of, jump_system,
                                 op_left, op_right, random_disk_point,
                                 ref_gram_axioms_check)


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
    l = zero_map(n) if zero else build_generator(system)
    return dirichlet_form(l, system.W)


def assert_rel_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * max(np.abs(want).max(), 1e-300)


def unit_gram(form, units=None):
    """The n^4 x n^4 Gram over unit pairs (p, q) at index p * n^2 + q, entry
    by entry from ``gram_entry``; over the matrix units E_p unless ``units``
    gives others."""
    units = matrix_units(form.W.n) if units is None else units
    k = units.shape[0]
    return gram_entry(form, units[:, None, None, None], units[None, :, None, None],
                      units[None, None, :, None],
                      units[None, None, None, :]).reshape(k * k, k * k)


def quotient_gram(g):
    """The Gram of the classes [E_p (x) E_q] in the quotient, over unit
    pairs (p, q) at index p * n^2 + q."""
    units = matrix_units(g.W.n)
    e = g.embed_pair(units[:, None], units[None, :]).reshape(units.shape[0] ** 2, -1)
    return e.conj() @ e.T


def pair_embed(g):
    """The quotient coordinates of the eigenbasis pairs F_p (x) F_q (index
    p * n^2 + q), as columns: kron(embed_T, diag(lam)^{1/2})."""
    return np.kron(g.qmap.embed, np.diag(np.sqrt(g.W.eig.eigenvalues)))


def mult_map(n):
    """coeff(b (x) c) -> coeff(bc) on unit pairs, from its definition."""
    units = matrix_units(n)
    return np.array([(a @ b).flatten() for a in units for b in units]).T


def act_left(a, coeff):
    """L(a) on unit-pair coefficient columns: [ab (x) c] - [a (x) bc]."""
    n = a.shape[0]
    c = coeff.reshape(n ** 4, -1)
    out = (a @ c.reshape(n, -1)).reshape(c.shape) - np.kron(a.reshape(-1, 1),
                                                            mult_map(n) @ c)
    return out.reshape(coeff.shape)


def triple_mult_map(n):
    """coeff(b (x) c) -> coeff(bc) on triples, b = F_ij and c a row index
    k: [j = k] F_i (F_ij F_kl = [j = k] F_il keeps the last index l, so the
    multiplication on unit pairs is kron(triple_mult_map(n), 1))."""
    eye = np.eye(n)
    return np.einsum("xi,jk->xijk", eye, eye).reshape(n, -1)


def act_left_t(a, coeff):
    """L_T(a) on triple coefficient columns: [ab (x) c] - [a (x) bc]."""
    n = a.shape[0]
    c = coeff.reshape(n ** 3, -1)
    out = (a @ c.reshape(n, -1)).reshape(c.shape) - np.kron(
        a.reshape(-1, 1), triple_mult_map(n) @ c)
    return out.reshape(coeff.shape)


def dense_images(g):
    """The quotient images L_T(F_p) as dense embed_T L_T(E_p) lift_T
    products over the triples, stacked over p."""
    return np.array([g.qmap.embed @ act_left_t(e, g.qmap.lift)
                     for e in matrix_units(g.W.n)])


def dense_conj(g):
    """The matrix Jq of J y = Jq conj(y) by two einsums over the factors:
    entry ((x, l), (r, m)) is
      lam_l^{1/2} sum_i embed_T[x, mil] lam_i^{-1/2} sum_j conj(lift_T[ijj, r])
      - sum_jk embed_T[x, mkj] c_kj conj(lift_T[ljk, r]),
    c_kj = (lam_j / lam_k)^{1/2}."""
    n, rt = g.W.n, g.qmap.rank
    s = np.sqrt(g.W.eig.eigenvalues)
    embed = g.qmap.embed.reshape(rt, n, n, n)
    lift = g.qmap.lift.conj().reshape(n, n, n, rt)
    trace = np.einsum("ijjr->ir", lift) / s[:, None]
    out = np.einsum("xmil,ir,l->xlrm", embed, trace, s)
    out -= np.einsum("xmkj,kj,ljkr->xlrm", embed, s / s[:, None], lift,
                     optimize=True)
    return out.reshape(g.rank, g.rank)


def images_matrix(g):
    """The images L_T(F_p), stacked over p, from their entries."""
    index, val, pos, _ = g._images
    out = np.zeros((g.W.n ** 2, g.qmap.rank ** 2), dtype=np.complex128)
    out[index, pos] = val
    return out.reshape(-1, g.qmap.rank, g.qmap.rank)


def act_right(a, coeff):
    """R(a) on unit-pair coefficient columns: [b (x) ca]."""
    n = a.shape[0]
    c = coeff.reshape(n ** 3, n, -1)
    return np.einsum("xlr,ly->xyr", c, a).reshape(coeff.shape)


def well_definedness_residual(g, n_samples=20, seed=23):
    """Max change of quotient images when a representative is shifted by a
    random Gram-null vector (Step-7 well-definedness probe); L and R act by
    eigenbasis units F_p, whose products are those of the E_p.  The dropped
    eigenspace is the orthogonal complement of the columns of
    ``pair_embed``."""
    if g.rank == 0:
        return 0.0
    embed = pair_embed(g)
    null = np.linalg.qr(embed.conj().T, mode="complete")[0][:, g.rank:]
    if null.shape[1] == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    n2 = g.W.n ** 2
    units = matrix_units(g.W.n)
    worst = 0.0
    scale = np.sqrt(max(g.eigenvalues[0], 1e-300))
    for _ in range(n_samples):
        z = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
        null_vec = null @ z
        nrm = max(np.linalg.norm(null_vec), 1e-300)
        # the class of the null vector is zero; so must be its images
        for act in (act_left, act_right):
            a = units[int(rng.integers(0, n2))]
            img = embed @ act(a, null_vec)
            worst = max(worst, np.linalg.norm(img) / (nrm * scale))
        worst = max(worst, np.linalg.norm(embed @ null_vec) / (nrm * scale))
    return worst


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
            rhs = bim.inner(bim_right(bim, b, bim.delta(a)),
                            bim_right(bim, d, bim.delta(c)))
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_depolarizing_diagonal(self, w_tracial):
        form = dirichlet_form(depolarizing_generator(w_tracial), w_tracial)
        sz = np.diag([1.0, -1.0]).astype(complex)
        eye = np.eye(2, dtype=complex)
        want = (inner(w_tracial, sz, sz)
                - abs(np.trace(sz @ w_tracial.h)) ** 2)
        got = gram_entry(form, sz, eye, sz, eye)
        assert abs(got - want) < 1e-12


class TestGramSpace:
    def test_zero_form_rank_zero(self, w_qubit):
        form = dirichlet_form(zero_map(2), w_qubit)
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
        assert_rel_close(quotient_gram(build_gram_space(form)), want, 1e-11)

    @pytest.mark.parametrize("zero", [False, True], ids=["generator", "zero"])
    def test_gram_matches_gram_entry_sampled(self, zero):
        """The quotient's Gram of the unit pairs against ``gram_entry`` over
        all unit quadruples at n = 3."""
        form = random_form(3, 72, zero)
        assert_rel_close(quotient_gram(build_gram_space(form)), unit_gram(form), 1e-11)

    def test_mult_map_matches_definition(self):
        units = matrix_units(3)
        want = np.array([(a @ b).flatten() for a in units for b in units]).T
        # F_ij F_kl = [j = k] F_il keeps the last index
        np.testing.assert_array_equal(np.kron(triple_mult_map(3), np.eye(3)), want)

    def test_op_conj_matches_definition(self):
        """J[a (x) b] = [Jb.Ja (x) 1] - [Jb (x) Ja], J a = h^1/2 a* h^-1/2, on
        random a, b: a statement about classes, in no particular basis."""
        rng = np.random.default_rng(76)
        for n in (2, 3):
            g = build_gram_space(random_form(n, 75))
            a, b = (np.array([random_matrix(n, rng) for _ in range(6)])
                    for _ in range(2))
            ja, jb = conj_j(g.W, a), conj_j(g.W, b)
            got = g.embed_pair(a, b).conj() @ conj_matrix(g).T
            want = g.embed_pair(jb @ ja, np.eye(n)) - g.embed_pair(jb, ja)
            assert_rel_close(got, want, 1e-10)

    def test_energy_identity(self, form3, gram3):
        for a in [matrix_unit(2, i, j) for i in range(2) for j in range(2)]:
            d = gram3.delta(a)
            assert abs(np.vdot(d, d) - form3(a, a)) < 1e-10

    def test_well_definedness(self, gram3):
        assert well_definedness_residual(gram3) < 1e-9

    def test_well_definedness_rank_zero(self, w_qubit):
        form = dirichlet_form(zero_map(2), w_qubit)
        assert well_definedness_residual(build_gram_space(form, w_qubit)) == 0.0

    def test_axioms(self, gram3):
        res = gram_axioms_check(gram3, n_samples=40, seed=54)
        assert max(res.values()) <= 1e-9


class DenseGramSpace:
    """The dense reference route: one quotient of the whole unit-pair Gram
    built by ``unit_gram``, and L(a), R(a), U_z, J descended from their
    n^4 x n^4 coefficient matrices over unit pairs."""

    off_sector = 0.0

    def __init__(self, form):
        self.W = form.W
        self.qmap = null_quotient(unit_gram(form))

    @property
    def rank(self):
        return self.qmap.rank

    def embed_pair(self, a, b):
        n2 = self.W.n ** 2
        embed = self.qmap.embed.reshape(self.rank, n2, n2)
        ca, cb = (np.reshape(x, np.shape(x)[:-2] + (n2,)) for x in (a, b))
        return np.einsum("...p,...rp->...r", ca,
                         np.einsum("rpq,...q->...rp", embed, cb))

    def _descend(self, coeff):
        return self.qmap.embed @ coeff @ self.qmap.lift

    @staticmethod
    def _each(op, x, core):
        """op of each entry of a stack x whose entries have ``core`` axes."""
        x = np.asarray(x)
        lead = x.shape[:x.ndim - core]
        out = np.array([op(v) for v in x.reshape((-1,) + x.shape[len(lead):])])
        return out.reshape(lead + out.shape[1:])

    def op_left(self, a):
        n = self.W.n
        return self._each(lambda a: self._descend(
            np.kron(np.kron(a, np.eye(n)), np.eye(n * n))
            - np.kron(a.reshape(-1, 1), mult_map(n))), a, 2)

    def op_right(self, a):
        return self._each(lambda a: self._descend(
            np.kron(np.eye(self.W.n ** 3), a.T)), a, 2)

    def op_group(self, z):
        def one(z):
            w = self.W
            f = np.kron(mat_power(w.h, 1j * z, _eig=w.eig),
                        mat_power(w.h, -1j * z, _eig=w.eig).T)
            return self._descend(np.kron(f, f))
        return self._each(one, z, 0)

    def op_conj(self):
        """Column (a, b): [Jb.Ja (x) 1] - [Jb (x) Ja] with
        J E_ij = h^{1/2} E_ji h^{-1/2}, over unit pairs."""
        n = self.W.n
        eye = np.eye(n)
        j_units = np.einsum("xj,iy->xyij", self.W.h_sqrt, self.W.h_isqrt)
        cols = (np.einsum("xyil,jk,uv->xyuvijkl", j_units, eye, eye)
                - np.einsum("xykl,uvij->xyuvijkl", j_units, j_units))
        return self.qmap.embed @ cols.reshape(n ** 4, n ** 4) @ self.qmap.lift.conj()


def spectrum_system(spectrum, seed):
    """A random jump system of at most 2n jumps over a density with the
    given spectrum (up to normalisation) in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(spectrum, dtype=float)
    u = random_unitary(lam.size, rng)
    w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
    return random_jump_system(w, rng, m_max=2 * lam.size)


def spectrum_form(spectrum, seed, source="jumps", validate=True):
    """Form of ``spectrum_system``; ``validate=False`` skips the jump-system
    gate of the generator."""
    system = spectrum_system(spectrum, seed)
    w = system.W
    if source == "generator":
        system = extract_alicki(build_generator(system), w)
    return dirichlet_form(build_generator(system, validate=validate), w)


SPECTRA = {
    "random-n3": (np.exp([0.3, -0.8, 1.1]), "jumps"),
    "random-n4": (np.exp([0.3, -0.8, 1.1, 0.1]), "jumps"),
    "tracial-n3": ((1, 1, 1), "jumps"),
    "tracial-n3-generator": ((1, 1, 1), "generator"),
    "repeated-n4": ((1, 1, 2, 3), "jumps"),
    "repeated-n3-generator": ((1, 1, 2), "generator"),
    "geometric-n3": ((1, 2, 4), "jumps"),
    "geometric-n3-generator": ((1, 2, 4), "generator"),
    "near-degenerate-n3": ((1, 1 + 1e-9, 2), "jumps"),
    "near-degenerate-n3-generator": ((1, 1 + 1e-7, 2), "generator"),
    "near-degenerate-1e-9-n3-generator": ((1, 1 + 1e-9, 2), "generator"),
    "equally-spaced-n4": (np.exp(-3.0 * np.arange(4)), "jumps"),
    "equally-spaced-n4-generator": (np.exp(-3.0 * np.arange(4)), "generator"),
}


class TestSectors:
    """The Bohr-frequency sector route against the dense route."""

    @pytest.mark.parametrize("case", sorted(SPECTRA))
    def test_matches_dense_route(self, case):
        spectrum, source = SPECTRA[case]
        form = spectrum_form(spectrum, 90, source)
        g = build_gram_space(form)
        dense = DenseGramSpace(form)
        # the sector quotient rebuilds the dense Gram over unit pairs
        assert_rel_close(quotient_gram(g), unit_gram(form), 1e-11)
        assert g.rank == dense.rank
        assert np.all(np.diff(g.eigenvalues) <= 0)
        assert_rel_close(g.eigenvalues, dense.qmap.eigenvalues, 1e-11)
        if np.ptp(spectrum) == 0:
            assert g.bohr.size == 1
        assert g.off_sector <= 1e-3 * DEFAULT_TOL.axiom
        got = gram_axioms_check(g, n_samples=8, seed=91)
        ref = ref_gram_axioms_check(dense, n_samples=8, seed=91)[0]
        for k in "abcdef":
            assert got[k] <= DEFAULT_TOL.axiom
            assert got[k] <= ref[k] + 1e-11   # no worse than the dense route
            # the dense route loses (a), (c) and (e) to rounding across the
            # sectors of the equally spaced spectrum (condition number 8e3)
            assert ref[k] <= DEFAULT_TOL.axiom or case.startswith("equally")
        assert well_definedness_residual(g) <= 1e-9

    @pytest.mark.parametrize("case", ["random-n4", "repeated-n4", "tracial-n3",
                                      "near-degenerate-n3"])
    def test_batched_eigh_matches_sector_loop(self, case, monkeypatch):
        """One eigh call per sector size gives the quotient of one call per
        sector of triples."""
        spectrum, source = SPECTRA[case]
        form = spectrum_form(spectrum, 90, source)
        calls = []

        def spy(blocks, tol):
            calls.append(len(blocks))
            return herm_eig(blocks, tol)

        def per_sector(blocks, tol):
            eigs = [herm_eig(b, tol) for b in blocks]
            return HermEig(np.array([e.eigenvalues for e in eigs]),
                           np.array([e.eigenvectors for e in eigs]))

        monkeypatch.setattr(qms.reconstruct, "herm_eig", spy)
        g = build_gram_space(form)
        sizes = np.bincount(g.sector)
        assert len(calls) == np.unique(sizes).size
        assert sum(calls) == sizes.size
        monkeypatch.setattr(qms.reconstruct, "herm_eig", per_sector)
        ref = build_gram_space(form)
        assert g.rank == ref.rank
        assert_rel_close(g.qmap.eigenvalues, ref.qmap.eigenvalues, 1e-13)
        assert_rel_close(g.qmap.embed, ref.qmap.embed, 1e-13)

    @pytest.mark.parametrize("step", [1.0, 3.0, 6.0])
    def test_equal_frequencies_share_sector(self, step):
        """Over an equally spaced spectrum (condition number up to 7e7) many
        triples share a frequency by accident of the spectrum; rounding in
        the computed eigenvalues must not split them."""
        k = np.arange(4)
        # the exact frequencies omega_ij + log lam_k are step (i - j + k)
        # less log sum(lam): i - j + k runs over -3 ... 6
        i, j, kk = np.meshgrid(k, k, k, indexing="ij")
        want = (i - j + kk).ravel() + 3
        rng = np.random.default_rng(95)
        for _ in range(20):
            u = random_unitary(4, rng)
            lam = np.exp(step * k)
            w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
            got = qms.reconstruct._sectors(w)[2]
            for s in range(10):
                assert np.ptp(got[want == s]) == 0
            # at step 6 the two smallest eigenvalues are closer than
            # _EIG_GAP lam_max, which merges sectors
            assert got.max() + 1 == (10 if step <= 3 else 1)

    @pytest.mark.parametrize("seed", [90, 91])
    def test_conj_in_eigenbasis(self, seed):
        """J in closed form on the eigenbasis pairs keeps (f) U_z J = J U_conj(z)
        at rounding at condition number 2e5 (spectrum exp(-4k)), where
        descending h^{1/2} E_ji h^{-1/2} from unit pairs loses it to 3e-8.
        (b) J L(a) = R(Ja) J still passes through the lift 1/sqrt(lam) of
        small Gram eigenvalues and stays above tol.axiom."""
        g = build_gram_space(spectrum_form(np.exp(-4.0 * np.arange(4)), seed))
        res = gram_axioms_check(g, n_samples=20, seed=0)
        assert res["f"] <= DEFAULT_TOL.axiom
        assert res["b"] <= 1e-8

    def test_broken_covariance_lifts_group_axioms(self):
        """A weight-1e-8 admixture of the form of a Hermitian jump that is no
        modular eigenvector keeps the Gram inside the PSD gate but couples
        the sectors: (c), (d) and (f) fail."""
        form = spectrum_form(np.exp([0.3, -0.8, 1.1]), 92)
        w = form.W
        v = random_matrix(3, np.random.default_rng(93))
        v = v + v.conj().T - 2 * np.trace(v).real / 3 * np.eye(3)
        l = build_generator(JumpSystem(W=w, jumps=[(v, 0.0)], pairing=[0]),
                            validate=False)
        m = w.op_matrix(l)
        broken = DirichletForm(form.L, w, form.matrix + 0.5e-8 * (m + m.conj().T))
        g = build_gram_space(broken)
        assert g.off_sector > 10 * DEFAULT_TOL.axiom
        res = gram_axioms_check(g, n_samples=4, seed=94)
        for key in "cdf":
            assert res[key] >= g.off_sector
        assert build_gram_space(form).off_sector <= 1e-13


def captured_gram(form):
    """``build_gram_space`` of the form (None where the Gram fails the PSD
    gate), and the factor T it quotients."""
    grams, gram = [], qms.reconstruct._gram
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qms.reconstruct, "_gram",
                   lambda *args: grams.append(gram(*args)) or grams[-1])
        try:
            g = build_gram_space(form)
        except GramNotPSD:
            g = None
    return g, grams[0]


RIGHT_SPECTRA = {
    "random": lambda n: np.exp([0.3, -0.8, 1.1, 0.1, -0.5][:n]),
    "repeated": lambda n: [1, 1, 2, 3, 4][:n],
    "tracial": lambda n: [1] * n,
    "equally-spaced": lambda n: np.exp(-3.0 * np.arange(n)),
    "near-degenerate": lambda n: [1, 1 + 1e-9, 2, 3, 4][:n],
    # condition number up to 7e7; from n = 4 the two smallest are closer
    # than _EIG_GAP lam_max, which merges all triples into one sector
    "merged": lambda n: np.exp(6.0 * np.minimum(np.arange(n), 3)),
}


# random spectra at n = 2...5 and the repeated-eigenvalue spectrum of the
# golden cases, (1, 1, 2, 3, ...), at n = 3...5, with a jumps and a generator
# source; the near-degenerate spectrum has only wide sectors
ENTRY_SPECTRA = {
    **{f"{case}-n{n}-{source}": (RIGHT_SPECTRA[case](n), source)
       for case, sizes in (("random", range(2, 6)), ("repeated", range(3, 6)))
       for n in sizes for source in ("jumps", "generator")},
    "near-degenerate-n3": ((1, 1 + 1e-9, 2), "jumps"),
}


class TestEntryLists:
    """J and the images L_T(F_p) by their nonzero entries against the dense
    products over the triples they replace."""

    @pytest.mark.parametrize("case", sorted(ENTRY_SPECTRA))
    def test_match_dense_products(self, case):
        spectrum, source = ENTRY_SPECTRA[case]
        g = build_gram_space(spectrum_form(spectrum, 104, source))
        assert_rel_close(images_matrix(g), dense_images(g), 1e-13)
        assert_rel_close(conj_matrix(g), dense_conj(g), 1e-13)
        row, col, val = g.op_conj()
        assert np.all(np.diff(row * g.rank + col) > 0) and np.all(val != 0)
        _, val, pos, starts = g._images
        assert np.all(np.diff(pos) >= 0) and np.all(val != 0)
        assert np.array_equal(starts, np.flatnonzero(np.diff(pos, prepend=-1)))
        if case.startswith("near-degenerate"):
            assert g._group[2] and not g._group[1].any()


class TestRightBlocks:
    """The Gram is kron(T, diag(lam)): the right block H F_ll of the
    quotient is the coordinates (r, l) of one l, and L(a) = kron(L_T(a), 1)
    keeps it."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("case", sorted(RIGHT_SPECTRA))
    def test_exact_zeros(self, case, n):
        """The T coordinates are exact zeros off their sector (U_T reads the
        sector of a coordinate from ``coord_sector``), L(a) is an exact zero
        across right blocks, and ||L(a)|| = ||L_T(a)||.  The zeros hold for
        any form, so the jump-system gate (which the merged spectrum fails
        at 2e-8 from n = 4) is off; from n = 4 the merged spectrum's rank
        is undecided."""
        form = spectrum_form(RIGHT_SPECTRA[case](n), 96, validate=False)
        if case == "merged" and n >= 4:
            # one sector, and a T eigenvalue between the cutoffs of the
            # largest and the smallest right block (a cutoff per right block
            # keeps 16, 32, 33 and 45 coordinates at n = 4)
            assert qms.reconstruct._sectors(form.W)[2].max() == 0
            with pytest.raises(RankUndecided):
                build_gram_space(form)
            return
        g = build_gram_space(form)
        assert g.rank == n * g.qmap.rank
        support = g.qmap.embed != 0
        assert not np.any(support & (g.sector != g.coord_sector[:, None]))
        rng = np.random.default_rng(97)
        a = np.array([random_matrix(n, rng) for _ in range(3)])
        la = op_left(g, a)
        right = np.arange(g.rank) % n
        off = right[:, None] != right[None, :]
        assert np.array_equal(la[:, off], np.zeros((3, off.sum())))
        got = qms.numkernel.spectral_norm(g._op_left_t(g.W.to_eig(a)))
        want = np.linalg.norm(la, 2, axis=(-2, -1))
        assert np.all(np.abs(got - want) <= 1e-14 * want)


@st.composite
def conditioned_systems(draw):
    """A jump system of ``random_jump_system`` (m <= 2n jumps) over a density
    of size n = 2..4 in a random eigenbasis, with log-eigenvalues spread
    over [0, log c], c log-uniform in [1, 1e4], and one eigenvalue then set
    to (1 + g) times another, g log-uniform in [1e-9, 1e-1]."""
    n = draw(st.integers(2, 4))
    log_c = np.log(10.0) * draw(st.floats(0.0, 4.0))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))
    lam = np.exp(log_c * np.array([0.0, 1.0] + inner))
    k = draw(st.integers(0, n - 2))
    lam[k + 1] = lam[k] * (1.0 + 10.0 ** draw(st.floats(-9.0, -1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u = random_unitary(n, rng)
    w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
    return random_jump_system(w, rng, m_max=2 * n)


@settings(max_examples=20)
@given(system=conditioned_systems())
def test_right_blocks_match_one_dense_eigh(system):
    """Over condition numbers up to ~1e4 and eigenvalue gaps down to 1e-9
    relative, the quotient of T by sectors has the rank and, to 1e-13 of
    the largest, the eigenvalues mu_r lam_l of one eigh of the whole
    entrywise Gram over unit pairs; at full rank m n^2 T has rank m n."""
    n = system.W.n
    form = dirichlet_form(build_generator(system), system.W)
    g = build_gram_space(form)
    dense = null_quotient(unit_gram(form))
    assert g.rank == dense.rank
    scale = np.max(dense.eigenvalues, initial=0.0)
    assert np.all(np.abs(g.eigenvalues - dense.eigenvalues) <= 1e-13 * scale)
    if g.rank == system.m * n * n:
        assert g.qmap.rank == system.m * n


class TestFactors:
    """The Gram over eigenbasis pairs is kron(T, diag(lam)), and the
    operators read off its factors are those of the dense route."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("covariant", [True, False], ids=["form", "psd"])
    def test_unit_gram_is_kron(self, n, covariant):
        """The Hermitian part of the entrywise Gram over the matrix units is
        kron(T_E, h^T) to 1e-14 relative, T_E the factor T turned from the
        eigenbasis triples to the matrix-unit ones; also for a random PSD
        form without modular covariance (whose Gram is not Hermitian)."""
        form = spectrum_form(np.exp([0.3, -0.8, 1.1, 0.1][:n]), 98)
        if not covariant:
            x = random_matrix(n * n, np.random.default_rng(99))
            form = DirichletForm(form.L, form.W, x @ x.conj().T)
        _, t = captured_gram(form)
        u = form.W.eig.eigenvectors
        # F_ij (x) F_kl: the pair (i, j) turns by kron(u, conj(u)), the row
        # index k of F_kl by u (its column index l goes with h)
        turn = np.kron(np.kron(u, u.conj()), u)
        want = unit_gram(form)
        want = 0.5 * (want + want.conj().T)
        assert_rel_close(np.kron(turn @ t @ turn.conj().T, form.W.h.T), want, 1e-14)

    @pytest.mark.parametrize("case", ["random-n4", "repeated-n3-generator",
                                      "near-degenerate-n3", "geometric-n3"])
    def test_operators_match_dense_route(self, case):
        """<[x (x) y], Op [v (x) w]> of L(a), R(a), U_z and J agree with the
        dense route on random pairs: a statement about classes, in no
        particular basis."""
        spectrum, source = SPECTRA[case]
        form = spectrum_form(spectrum, 90, source)
        g, dense = build_gram_space(form), DenseGramSpace(form)
        n = g.W.n
        rng = np.random.default_rng(100)
        x, y, a = (np.array([random_matrix(n, rng) for _ in range(12)])
                   for _ in range(3))
        z = random_disk_point(rng)
        for space, left, right in ((g, partial(op_left, g), partial(op_right, g)),
                                   (dense, dense.op_left, dense.op_right)):
            e = space.embed_pair(x, y)
            ops = [left(a[0]), right(a[1]), space.op_group(z)]
            got = [e.conj() @ op @ e.T for op in ops]
            got.append(e.conj() @ conj_matrix(space) @ e.T.conj())
            if space is g:
                want = got
        for u, v in zip(got, want):
            assert_rel_close(v, u, 1e-10)

    def test_right_norm_closed_form(self):
        """||R(a)|| = ||h^{-1/2} a h^{1/2}||."""
        form = spectrum_form(np.exp([0.3, -0.8, 1.1]), 101)
        g = build_gram_space(form)
        a = np.array([random_matrix(3, np.random.default_rng(102)) for _ in range(4)])
        got = np.linalg.norm(op_right(g, a), 2, axis=(-2, -1))
        want = np.linalg.norm(g.W.h_isqrt @ a @ g.W.h_sqrt, 2, axis=(-2, -1))
        assert_rel_close(got, want, 1e-14)

    def test_memory_below_one_dense_gram(self, monkeypatch):
        """At n = 5, m = 10 building the space allocates less than one
        n^4 x n^4 complex array (6.25 MB), and no eigendecomposition is
        wider than n^3."""
        system = jump_system(5, 10, 103)
        form = dirichlet_form(build_generator(system), system.W)
        sides = []

        def spy(h, tol):
            sides.append(np.shape(h)[-1])
            return herm_eig(h, tol)

        monkeypatch.setattr(qms.reconstruct, "herm_eig", spy)
        tracemalloc.start()
        try:
            g = build_gram_space(form)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.rank == 10 * 25
        assert peak < 16 * 625 ** 2
        assert max(sides) <= 125


def traced_peak(fn):
    """fn() and the most bytes tracemalloc saw held during the call."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# m = n and m = 2n (at most n^2 - 1 jumps exist), a T of full rank at
# n = 4...6, and the sector cases of the sampled checks
BUDGET_SYSTEMS = {
    **{f"n{n}-m{m}": partial(jump_system, n, m, 110 + n)
       for n in range(2, 7) for m in sorted({n, min(2 * n, n * n - 1)})},
    "n4-m15": partial(jump_system, 4, 15, 117),
    "n5-m24": partial(jump_system, 5, 24, 115),
    "n6-m35": partial(jump_system, 6, 35, 116),
    **GRAM_SYSTEMS,
}


def stage_counts(monkeypatch):
    """The byte counts the Gram stages pass to ``check_stage_bytes``, in call
    order."""
    counts, check = [], qms.reconstruct.check_stage_bytes
    monkeypatch.setattr(qms.reconstruct, "check_stage_bytes",
                        lambda nbytes, what: counts.append(nbytes)
                        or check(nbytes, what))
    return counts


class TestStageBudget:
    """Each Gram stage counts its arrays before it allocates them and is
    refused above ``sampling._STAGE_BYTES``."""

    @staticmethod
    def stages(system):
        """The three counted stages: build the space, check uniqueness, and
        the Gram axioms (which count the part J fixes once J is formed, and
        the rest once the images and the (f) terms are)."""
        form = form_of(system)
        g = build_gram_space(form)
        bim = FinBimodule(system, validate=False)
        return g, {"gram": lambda: build_gram_space(form),
                   "uniqueness": lambda: uniqueness_isometry(g, bim),
                   "gram-axioms": lambda: gram_axioms_check(g, n_samples=1)}

    @pytest.mark.parametrize("case", sorted(BUDGET_SYSTEMS))
    def test_count_bounds_peak(self, case, monkeypatch):
        """The last count of each stage bounds its traced peak, and the
        early part the Gram axioms check after forming J never exceeds
        their full count."""
        g, stages = self.stages(BUDGET_SYSTEMS[case]())
        counts = stage_counts(monkeypatch)
        for name, run in stages.items():
            start = len(counts)
            peak = traced_peak(run)[1]
            assert peak <= counts[-1], name
            assert counts[start:] == sorted(counts[start:]), name
        assert len(counts) == 4

    @pytest.mark.parametrize("stage", ["gram", "uniqueness", "gram-axioms"])
    def test_refused_before_allocating(self, stage, monkeypatch):
        """One byte below its count a stage raises the named size error
        before it assembles T, T_B or the join of J with the images; at its
        count it runs."""
        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the size check")

        g, stages = self.stages(jump_system(3, 6, 5))
        run = stages[stage]
        with monkeypatch.context() as mp:
            counts = stage_counts(mp)
            run()
        count = counts[-1]
        assert max(counts) == count
        with monkeypatch.context() as mp:
            mp.setattr(qms.sampling, "_STAGE_BYTES", count - 1)
            mp.setattr(qms.reconstruct, "_gram", refuse)
            mp.setattr(qms.reconstruct, "_conj_defect_gram", refuse)
            mp.setattr(FinBimodule, "delta", refuse)
            with pytest.raises(SizeLimitExceeded, match="at its peak"):
                run()
        monkeypatch.setattr(qms.sampling, "_STAGE_BYTES", count)
        run()

    def test_default_limit_admits_n8(self, monkeypatch):
        """Under the default limit every Gram stage runs at n = 8, m = 16
        (rank 1024)."""
        counts = stage_counts(monkeypatch)
        g, stages = self.stages(jump_system(8, 16, 118))
        assert g.rank == 1024
        for run in stages.values():
            run()
        assert len(counts) == 5

    def test_one_sector_refused_before_images(self, monkeypatch):
        """h = I/8, m = 16 (rank 1024, one sector): J and the images are
        dense, and the part of the count J fixes already exceeds the limit,
        so the Gram axioms are refused before the images and the (f) terms
        are formed, holding less than 100 MiB."""
        w = WeightedAlgebra(np.eye(8) / 8)
        g = build_gram_space(form_of(random_jump_system(
            w, np.random.default_rng(0), m_max=16)))
        assert g.rank == 1024

        def refuse(*args, **kwargs):
            raise AssertionError("formed the (f) terms before the count")

        def run():
            with pytest.raises(SizeLimitExceeded, match="at its peak"):
                gram_axioms_check(g, n_samples=1)

        monkeypatch.setattr(qms.reconstruct, "_conj_group_terms", refuse)
        assert traced_peak(run)[1] < 100 * 2 ** 20
        assert "_images" not in g.__dict__


EXP_SEEDS = [88, 90, 91, 92]


class TestRankUndecided:
    """n = 4, m = 8, lam ~ exp(-c k): at c = 4.5 (condition number 7e5) one
    T eigenvalue per seed lies between the cutoffs of the largest and the
    smallest right block."""

    @pytest.mark.parametrize("seed", EXP_SEEDS)
    def test_raised(self, seed):
        form = spectrum_form(np.exp(-4.5 * np.arange(4)), seed)
        with pytest.raises(RankUndecided) as exc:
            build_gram_space(form)
        # T eigenvalue r of the largest lies in (tol, tol cond(h)]
        ratio, lo, hi = map(float, re.findall(r"\d\.\d+e[-+]\d+", str(exc.value)))
        cond = form.W.eig.eigenvalues[-1] / form.W.eig.eigenvalues[0]
        assert lo == DEFAULT_TOL.decomp and np.isclose(hi, lo * cond, rtol=1e-3)
        assert lo < ratio <= hi

    @pytest.mark.parametrize("seed", EXP_SEEDS)
    def test_decided_at_lower_condition(self, seed):
        """At c = 3 (condition number 8e3) the rank is m n^2 = 128."""
        assert build_gram_space(spectrum_form(np.exp(-3.0 * np.arange(4)), seed)).rank == 128

    @pytest.mark.parametrize("seed", EXP_SEEDS)
    def test_cli_exit_2(self, seed, tmp_path, capsys):
        """``qms run`` reports it as a scenario error, exit 2."""
        form = spectrum_form(np.exp(-4.5 * np.arange(4)), seed)
        scenario = base_scenario(checks=["gram-axioms"])
        scenario["algebra"] = {"dim": 4, "h": mat_json(form.W.h)}
        scenario["source"] = {"generator": mat_json(form.L.matrix)}
        assert main(["run", write_scenario(tmp_path, scenario)]) == 2
        assert "scenario error: RankUndecided" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", EXP_SEEDS)
    def test_cli_exit_2_jumps_source(self, seed, tmp_path, capsys):
        """The same from the jumps: the density read back from the file
        differs from theirs by rounding, which the modular-eigenvector gate
        of ``alicki-validate`` does not amplify by cond(h)."""
        system = spectrum_system(np.exp(-4.5 * np.arange(4)), seed)
        scenario = base_scenario(checks=["alicki-validate", "gram-axioms"])
        scenario["algebra"] = {"dim": 4, "h": mat_json(system.W.h)}
        scenario["source"] = {"jumps": [{"matrix": mat_json(v), "omega": omega}
                                        for v, omega in system.jumps]}
        assert main(["run", write_scenario(tmp_path, scenario)]) == 2
        assert "scenario error: RankUndecided" in capsys.readouterr().err


class TestUniqueness:
    def test_zero_generator(self, w_qubit):
        from qms.lindblad import JumpSystem
        form = dirichlet_form(zero_map(2), w_qubit)
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

    def test_rank_matches_span_quotient(self):
        """The explicit rank equals the rank of the quotient of span* span,
        and the least squares of the conjugation is never built for it."""
        for seed in range(5):
            system = random_system(2 + seed % 2, 80 + seed)
            if seed == 0:
                system = JumpSystem(W=system.W, jumps=[], pairing=[])
            span = dense_span(FinBimodule(system))
            want = null_quotient(span.conj().T @ span).rank
            assert (want == 0) == (seed == 0)
            form = dirichlet_form(build_generator(system), system.W)
            bim = FinBimodule(system)
            u = uniqueness_isometry(build_gram_space(form, system.W), bim)
            assert "_conj_maps" not in bim.__dict__
            assert u["rank_bimodule"] == want
            assert u["ranks_agree"]

    @pytest.mark.parametrize("spectrum, seed", [
        (None, 0), (None, 1), ([1.0, 1.0, 2.0], 2), ([1.0, 1.0], 3),
        ([1.0, 1.0, 1.0], 4), ([1.0, 2.0, 4.0], 5)])
    def test_dense_reference(self, spectrum, seed):
        """The n^4 route: the span rotated to the eigenbasis pairs, its Gram
        span* span equals kron(T_B, diag(lam)), and its rank (read off the
        singular values) and the quotient's Gram match the factored check."""
        system = (random_system(2 + seed, 60 + seed) if spectrum is None
                  else spectrum_system(spectrum, 60 + seed))
        n, w = system.W.n, system.W
        bim = FinBimodule(system)
        g = build_gram_space(dirichlet_form(build_generator(system), w), w)
        lam, u = w.eig.eigenvalues, w.eig.eigenvectors
        rot = np.kron(u, u.conj())
        span = (rot.T @ (dense_span(bim).reshape(-1, n * n, n * n) @ rot)).reshape(
            -1, n ** 4)
        dense = span.conj().T @ span
        sv = np.linalg.svd(span, compute_uv=False)
        rank = int(np.sum(sv ** 2 > DEFAULT_TOL.decomp * sv.max() ** 2))
        # T_B[ijk, rst] = sum_p (u* delta_p(F_ij)* delta_p(F_rs) u)_kt
        d = u.conj().T @ bim.W.from_eig(bim.delta(u @ matrix_units(n) @ u.conj().T)) @ u
        t_b = np.einsum("apxk,bpxt->akbt", d.conj(), d).reshape(n ** 3, n ** 3)
        scale = np.abs(dense).max()
        by_right = dense.reshape(n ** 3, n, n ** 3, n)
        off = np.abs(by_right * (1 - np.eye(n))[None, :, None, :]).max()
        assert off <= 1e-14 * scale
        assert np.abs(dense - np.kron(t_b, np.diag(lam))).max() <= 1e-13 * scale
        gram_t = g.qmap.embed.conj().T @ g.qmap.embed
        assert np.abs(dense - np.kron(gram_t, np.diag(lam))).max() <= 1e-12 * scale
        res = uniqueness_isometry(g, bim)
        assert res["rank_bimodule"] == res["rank_gram"] == rank
        assert res["relative_residual"] <= 1e-12


def dense_span(bim):
    """The spanning family R(E_q) delta(E_p) over the matrix-unit pairs in
    standard coordinates: column p n^2 + q holds its coordinates."""
    units = matrix_units(bim.n)
    pairs = bim_right(bim, units[None], bim.delta(units)[:, None])
    return bim.coords(pairs).reshape(bim.n ** 4, -1).T


def stinespring_case(n, seed, t=0.3):
    """P_t of a random jump system of size n, with its algebra."""
    from qms.lindblad import semigroup
    system = random_system(n, seed)
    return semigroup(build_generator(system), t), system.W


class NotUCP(QMSError):
    """The map handed to ``kraus_dilation`` is not unital CP."""


@dataclass
class KrausDilation:
    """The Stinespring bimodule C^R (x) L2(M, phi) of Phi in Kraus form,
    x (x) y -> 2^{-1/2} (x V_r y)_r, for the Kraus operators V_r of
    Phi(x) = sum_r V_r* x V_r (``kraus``, shape (R, n, n)): the reference
    for the pairing that ``boundary_pairing`` reads off Phi alone."""

    phi: Superoperator
    W: WeightedAlgebra
    kraus: np.ndarray

    @property
    def rank(self):
        return self.kraus.shape[0] * self.W.n ** 2

    def boundary(self, x):
        """del(x) = [x (x) 1] - [1 (x) x] = 2^{-1/2} ([x, V_r])_r, in the
        coordinates of ``WeightedAlgebra.coords`` stacked over r."""
        x = as_cmatrix(x)
        return self.W.coords(x @ self.kraus - self.kraus @ x).ravel() / np.sqrt(2.0)


def kraus_dilation(phi: Superoperator, w: WeightedAlgebra, tol=DEFAULT_TOL):
    """The Stinespring bimodule of a unital CP GNS-symmetric map, in the
    Kraus form read off the eigendecomposition of its Choi matrix."""
    n = w.n
    eye = np.eye(n, dtype=np.complex128)
    if w.norm(phi.apply(eye) - eye) > 1e-8:
        raise NotUCP("map is not unital")
    ch = choi(phi)
    # looked up on the module, where test_one_choi_eigendecomposition spies
    ch_eig = qms.numkernel.herm_eig(0.5 * (ch + ch.conj().T), tol)
    if ch_eig.eigenvalues[0] < -tol.choi * max(ch_eig.eigenvalues[-1], 1.0):
        raise NotUCP(f"Choi matrix eigenvalue {ch_eig.eigenvalues[0]:.3e} < 0")
    m = w.op_matrix(phi)
    if frob(m - m.conj().T) > 1e-8 * max(frob(m), 1e-300):
        raise NotGNSSymmetric("map is not self-adjoint for <.,.>_h")
    # choi(Phi) = sum_r w_r w_r* with w_r[(i, k)] = conj(V_r[i, k]), so the
    # eigenvectors of the Choi matrix give the Kraus operators
    mu, u = ch_eig.eigenvalues, ch_eig.eigenvectors
    keep = mu > tol.decomp * mu[-1]
    kraus = (np.sqrt(mu[keep]) * u[:, keep].conj()).T.reshape(-1, n, n)
    return KrausDilation(phi=phi, W=w, kraus=kraus)


def embedded_pair(sb, x, y):
    """The image 2^{-1/2} (x V_r y)_r of x (x) y, in the coordinates of
    ``KrausDilation.boundary``."""
    return sb.W.coords(x @ sb.kraus @ y).ravel() / np.sqrt(2.0)


class TestStinespring:
    """``boundary_pairing`` and ``stinespring_route`` against the Kraus
    dilation (``kraus_dilation``), and the rate."""

    def test_identity_map_zero_boundary(self, w_qubit):
        sb = kraus_dilation(identity_map(2), w_qubit)
        rng = np.random.default_rng(56)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.linalg.norm(sb.boundary(x)) < 1e-7
        assert np.linalg.norm(boundary_pairing(sb.phi, x, x)) < 1e-12

    def test_pairing_routes_agree(self, qubit_system3):
        """(1/2) sum_r [x, V_r]* [y, V_r] is the M-valued pairing of the
        boundaries."""
        from qms.lindblad import semigroup
        l = build_generator(qubit_system3)
        p = semigroup(l, 0.2)
        v = kraus_dilation(p, qubit_system3.W).kraus
        rng = np.random.default_rng(57)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            a = boundary_pairing(p, x, y)
            cx, cy = x @ v - v @ x, y @ v - v @ y
            b = 0.5 * np.sum(np.swapaxes(cx, -1, -2).conj() @ cy, axis=0)
            assert np.linalg.norm(a - b) < 1e-10 * max(np.linalg.norm(a), 1.0)

    def test_boundary_gram_consistency(self, qubit_system3):
        """phi((del x | del y)) equals the quotient inner product."""
        from qms.lindblad import semigroup
        w = qubit_system3.W
        p = semigroup(build_generator(qubit_system3), 0.3)
        sb = kraus_dilation(p, w)
        rng = np.random.default_rng(58)
        for _ in range(10):
            x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            lhs = np.vdot(sb.boundary(x), sb.boundary(y))
            rhs = state(w, boundary_pairing(p, x, y))
            assert abs(lhs - rhs) < 1e-10 * max(abs(rhs), 1.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_route_is_dilation_boundary_norm(self, n):
        """phi((del a | del a)) over the matrix units is |del a|^2 in the
        Kraus dilation, unit by unit in row-major order."""
        p_t, w = stinespring_case(n, 81)
        sb = kraus_dilation(p_t, w)
        want = [np.vdot(sb.boundary(a), sb.boundary(a)).real for a in matrix_units(n)]
        assert_rel_close(stinespring_route(p_t, w), np.array(want), 1e-12)

    def test_rate_slope(self, qubit_system3, form3):
        l = build_generator(qubit_system3)
        r = stinespring_rate(l, qubit_system3.W, form3)
        assert abs(r["slope"] - 1.0) <= 0.2
        assert r["route_gap"] <= 1e-9

    def test_rate_builds_no_quotient(self, qubit_system3, form3, monkeypatch):
        """The rate reads the pairing off P_t: the same result without any
        null-space quotient."""
        l = build_generator(qubit_system3)
        want = stinespring_rate(l, qubit_system3.W, form3)

        def refuse(*args, **kwargs):
            raise AssertionError("quotient built")

        monkeypatch.setattr(qms.reconstruct, "quotient", refuse)
        monkeypatch.setattr(qms.numkernel, "null_quotient", refuse)
        assert stinespring_rate(l, qubit_system3.W, form3) == want

    def test_rate_linear_bound(self, w_tracial):
        """First-order deviation at t = 0.1 is O(t), depolarizing case."""
        l = depolarizing_generator(w_tracial)
        form = dirichlet_form(l, w_tracial)
        r = stinespring_rate(l, w_tracial, form, ts=(0.1, 0.05))
        spec_radius = np.linalg.norm(l.matrix @ l.matrix, 2)
        assert r["deviations"][0] <= spec_radius * 0.1

    def test_gram_matches_definition(self):
        """<x (x) y, c (x) d> = phi(y* Phi(x* c) d) / 2 is the inner product
        of the embedded pairs, over all unit pairs, at n = 2 and 3."""
        for n in (2, 3):
            p_t, w = stinespring_case(n, 76)
            sb = kraus_dilation(p_t, w)
            units = matrix_units(n)
            want = np.array([[0.5 * state(w, y.conj().T @ p_t.apply(x.conj().T @ c) @ d)
                              for c in units for d in units]
                             for x in units for y in units])
            emb = np.array([embedded_pair(sb, x, y) for x in units for y in units])
            assert_rel_close(emb.conj() @ emb.T, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kraus_form(self, n):
        """sum_r V_r* V_r = 1 and sum_r V_r* x V_r = Phi(x)."""
        p_t, w = stinespring_case(n, 77)
        v = kraus_dilation(p_t, w).kraus
        v_adj = np.swapaxes(v, -1, -2).conj()
        assert_rel_close(np.sum(v_adj @ v, axis=0), np.eye(n), 1e-13)
        rng = np.random.default_rng(78)
        for _ in range(5):
            x = random_matrix(n, rng)
            assert_rel_close(np.sum(v_adj @ x @ v, axis=0), p_t.apply(x), 1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_matches_dense_quotient(self, n):
        """n^2 R is the rank of the dense Gram over unit pairs, which is
        (1/2) kron(I, choi(Phi), h^T)."""
        p_t, w = stinespring_case(n, 79)
        gram = 0.5 * np.kron(np.kron(np.eye(n), choi(p_t)), w.h.T)
        sb = kraus_dilation(p_t, w)
        assert sb.rank == null_quotient(gram).rank
        assert sb.rank == n * n * sb.kraus.shape[0]

    def test_one_choi_eigendecomposition(self, monkeypatch):
        """The dilation takes one eigendecomposition, of the n^2 x n^2 Choi
        matrix, and builds no quotient."""
        p_t, w = stinespring_case(3, 80)
        sides = []

        def spy(h, tol):
            sides.append(np.shape(h))
            return herm_eig(h, tol)

        def refuse(*args, **kwargs):
            raise AssertionError("quotient built")

        monkeypatch.setattr(qms.numkernel, "herm_eig", spy)
        monkeypatch.setattr(qms.numkernel, "quotient", refuse)
        monkeypatch.setattr(qms.numkernel, "null_quotient", refuse)
        kraus_dilation(p_t, w)
        assert sides == [(9, 9)]

    def test_rejects_nonunital(self, w_qubit):
        with pytest.raises(NotUCP):
            kraus_dilation(zero_map(2), w_qubit)

    def test_rejects_non_cp(self, w_tracial):
        """The transpose is unital and positive, but not CP."""
        transpose = Superoperator.from_matrix(
            np.eye(4)[[0, 2, 1, 3]].astype(complex))
        with pytest.raises(NotUCP, match="Choi"):
            kraus_dilation(transpose, w_tracial)

    def test_rejects_asymmetric(self, w_tracial):
        """x -> U* x U is UCP, and GNS-symmetric only if U^2 is a phase."""
        u = np.diag([1.0, np.exp(1j)])
        with pytest.raises(NotGNSSymmetric):
            kraus_dilation(sandwich(u.conj().T, u), w_tracial)


class TestRepVector:
    """The representing vector xi_j = -i e^{-omega_j/4} v_j of the
    derivation of a jump system, in closed form."""

    @staticmethod
    def spec_vector(system):
        return FinBimodule(system).W.to_eig(np.array([
            -1j * np.exp(-om / 4.0) * v for v, om in system.jumps
        ]))

    def test_spec_vector_invariances(self, qubit_system):
        """xi_j = -i e^{-omega_j/4} v_j is group-invariant and conj-anti-fixed."""
        b = FinBimodule(qubit_system)
        xi = self.spec_vector(qubit_system)
        for t in (0.4, 1.0):
            assert b.norm(b.mod_group(t, xi) - xi) < 1e-12
        assert b.norm(b.conj_ambient(xi) + xi) < 1e-12

    def test_implements_derivation_up_to_phase(self, qubit_system3):
        b = FinBimodule(qubit_system3)
        xi = self.spec_vector(qubit_system3)
        rng = np.random.default_rng(59)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        comm = bim_left(b, a, xi) - bim_right(b, a, xi)
        da = b.delta(a)
        mu = b.inner(comm, da) / b.inner(comm, comm).real
        assert abs(abs(mu) - 1.0) < 1e-9
        assert b.norm(mu * comm - da) < 1e-9 * b.norm(da)
