"""The batched sampled checks against per-sample reference loops.

Each reference below draws the samples of each quantity it samples in its
own run of scalar calls (``random_matrix``, ``random_disk_point``,
``random_square_point``), one quantity after the other, then evaluates its
check one sample at a time through the single-vector forms of the structure
maps; it also returns the inputs it drew, per sample.  The batched check,
which draws each quantity in one generator call, must see bit-identical
inputs (recorded by a spy on ``draw_samples``) and report every residual
within rounding of the loop's.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qms import bimodule, reconstruct, sampling, suites
from qms.bimodule import Derivation, FinBimodule, carre_du_champ
from qms.config import DEFAULT_TOL
from qms.errors import NotInGeneratedSpan
from qms.lindblad import JumpSystem, build_generator, dirichlet_form, semigroup
from qms.modular import TomitaData, WeightedAlgebra
from qms.numkernel import matrix_units
from qms.reconstruct import (GramSpace, boundary_pairing, build_gram_space,
                             gram_axioms_check, gram_entry, stinespring_rate)
from qms.sampling import (DISK, SQUARE, matrices, random_jump_system,
                          random_matrix, random_unitary, random_weighted_algebra)
from qms.suites import Scenario, ScenarioData, run_suite

from conftest import E12, E21, SX, act_left, act_right, conj_j, inner, state


# --- references: the per-sample loops ------------------------------------------

def random_disk_point(rng):
    """A point of the closed unit disk, uniform in area, by scalar calls."""
    r = np.sqrt(rng.uniform())
    return r * np.exp(2j * np.pi * rng.uniform())


def random_square_point(rng):
    """A point of the square [-1, 1]^2 of the plane, by scalar calls."""
    return rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)


def scalar_runs(rng, count, *refs):
    """The samples of each quantity in its own run of ``count`` scalar calls
    ``ref(rng)``, one quantity after the other, as one tuple per sample."""
    return list(zip(*[[ref(rng) for _ in range(count)] for ref in refs]))


def ref_axioms_check(self, n_vectors=200, seed=11):
    rng = np.random.default_rng(seed)
    res = {k: 0.0 for k in "abcdef"}
    if self.m == 0:
        return res, []
    n = self.n
    mg = TomitaData(self.W).modular_group
    mat = partial(random_matrix, n)
    drawn = scalar_runs(rng, n_vectors, mat, mat, mat, mat, random_disk_point, mat,
                        random_disk_point)
    for a, b, eta_r, eta_a, z, c, z2 in drawn:
        xi = act_right(self, b, self.delta(a))
        eta = act_right(self, eta_r, self.delta(eta_a))
        norm_xi = self.norm(xi)
        nrm_xi = max(norm_xi, 1e-300)

        opn_l = float(np.linalg.norm(c, 2))
        opn_r = float(np.linalg.norm(
            self.W.h_isqrt @ c @ self.W.h_sqrt, 2))
        res["a"] = max(
            res["a"],
            (self.norm(act_left(self, c, xi)) - opn_l * norm_xi) / nrm_xi,
            (self.norm(act_right(self, c, xi)) - opn_r * norm_xi) / nrm_xi,
        )

        lhs = self.conj(act_left(self, c, xi))
        conj_xi = self.conj(xi)
        rhs = act_right(self, conj_j(self.W, c), conj_xi)
        res["b"] = max(res["b"], self.norm(lhs - rhs) / (opn_l * nrm_xi))

        def gap(lhs, rhs):
            return self.norm(lhs - rhs) / max(self.norm(lhs), self.norm(rhs), nrm_xi)

        lhs = self.mod_group(z, self.mod_group(z2, xi))
        rhs = self.mod_group(z + z2, xi)
        res["c"] = max(res["c"], gap(lhs, rhs))

        u_eta, u_xi = self.mod_group(z, eta), self.mod_group(-np.conj(z), xi)
        lhs_ip = self.inner(xi, u_eta)
        rhs_ip = self.inner(u_xi, eta)
        norm_eta = self.norm(eta)
        res["d"] = max(res["d"], abs(lhs_ip - rhs_ip) / max(
            norm_xi * self.norm(u_eta), self.norm(u_xi) * norm_eta, norm_xi * norm_eta,
            1e-300))

        lhs = self.mod_group(z, xi)
        rhs = act_right(self, mg(z, b), self.delta(mg(z, a)))
        res["e"] = max(res["e"], gap(lhs, rhs))

        lhs = self.mod_group(z, conj_xi)
        rhs = self.conj(self.mod_group(np.conj(z), xi))
        res["f"] = max(res["f"], gap(lhs, rhs))
    return res, drawn


def ref_derivation_check(b, form=None, n_samples=100, seed=13):
    rng = np.random.default_rng(seed)
    n = b.n
    res = {"product_rule": 0.0, "conj_intertwine": 0.0,
           "mod_intertwine": 0.0, "energy_identity": 0.0}
    mat = partial(random_matrix, n)
    drawn = scalar_runs(rng, n_samples, mat, mat, random_square_point)
    for x, y, z in drawn:
        dx, dy = b.delta(x), b.delta(y)
        scale = max(b.norm(dx) * np.linalg.norm(y), 1e-300)
        lhs = b.delta(x @ y)
        rhs = act_left(b, x, dy) + act_right(b, y, dx)
        res["product_rule"] = max(res["product_rule"], b.norm(lhs - rhs) / scale)

        lhs = b.conj(dx)
        rhs = b.delta(conj_j(b.W, x))
        res["conj_intertwine"] = max(
            res["conj_intertwine"], b.norm(lhs - rhs) / max(b.norm(rhs), 1e-300)
        )

        lhs = b.mod_group(z, dx)
        rhs = b.delta(TomitaData(b.W).modular_group(z, x))
        res["mod_intertwine"] = max(
            res["mod_intertwine"], b.norm(lhs - rhs) / max(b.norm(rhs), 1e-300)
        )

        if form is not None:
            lhs_ip = b.inner(dx, dy)
            rhs_ip = form(x, y)
            res["energy_identity"] = max(
                res["energy_identity"],
                abs(lhs_ip - rhs_ip) / max(abs(rhs_ip), 1.0),
            )
    return res, drawn


def ref_carre_du_champ(form, a, b):
    w = form.W
    n = w.n
    eye = np.eye(n, dtype=np.complex128)
    m = np.array([gram_entry(form, a, eye, b, e) for e in matrix_units(n)])
    return w.h_isqrt @ m.reshape(n, n).T @ w.h_isqrt


def ref_carre_positivity(w, form, bim, seed):
    rng = np.random.default_rng(seed)
    worst_neg = 0.0
    worst_cons = 0.0
    drawn = scalar_runs(rng, 100, partial(random_matrix, w.n))
    for (a,) in drawn:
        g = ref_carre_du_champ(form, a, a)
        ev = np.linalg.eigvals(g)
        worst_neg = max(worst_neg, max(-ev.real.min(), 0.0))
        da = bim.W.from_eig(bim.delta(a))
        direct = w.h_sqrt @ sum(
            (da[j].conj().T @ da[j] for j in range(bim.m)),
            np.zeros((w.n, w.n))) @ w.h_isqrt
        worst_cons = max(worst_cons, np.linalg.norm(g - direct)
                         / max(np.linalg.norm(direct), 1e-300))
    return {"carre/psd": worst_neg, "carre/consistency": worst_cons}, drawn


def op_left(g, a):
    """Matrix of L(a) = kron(L_T(a), 1) on the quotient coordinates of a
    ``GramSpace`` g (a dense reference space forms its own); a stack of them
    for a stack (..., n, n) of a."""
    if not isinstance(g, GramSpace):
        return g.op_left(a)
    lt = g._op_left_t(g.W.to_eig(a))
    out = np.einsum("...ij,kl->...ikjl", lt, np.eye(g.W.n))
    return out.reshape(lt.shape[:-2] + (g.rank, g.rank))


def op_right(g, a):
    """Matrix of R(a) = kron(1, rho(a)) on the quotient coordinates of g."""
    if not isinstance(g, GramSpace):
        return g.op_right(a)
    rho = g._right_factor(g.W.to_eig(a))
    out = np.einsum("ij,...kl->...ikjl", np.eye(g.qmap.rank), rho)
    return out.reshape(rho.shape[:-2] + (g.rank, g.rank))


def conj_matrix(g):
    """The matrix Jq of J y = Jq conj(y) on the quotient coordinates of a
    ``GramSpace`` g, from the entries its ``op_conj`` gives (a dense
    reference space forms the matrix itself)."""
    if not isinstance(g, GramSpace):
        return g.op_conj()
    row, col, val = g.op_conj()
    out = np.zeros((g.rank, g.rank), dtype=np.complex128)
    out[row, col] = val
    return out


def ref_gram_axioms_check(g, n_samples=200, seed=29):
    rng = np.random.default_rng(seed)
    n = g.W.n
    td = TomitaData(g.W)
    res = {k: 0.0 for k in "abcdef"}
    if g.rank == 0:
        return res, []
    jq = conj_matrix(g)
    drawn = scalar_runs(rng, n_samples, partial(random_matrix, n), random_disk_point,
                        random_disk_point)
    for a, z, z2 in drawn:
        la = op_left(g, a)
        ra = op_right(g, a)
        uz = g.op_group(z)
        norm_l = np.linalg.norm(la, 2)

        opn_l = float(np.linalg.norm(a, 2))
        opn_r = float(np.linalg.norm(g.W.h_isqrt @ a @ g.W.h_sqrt, 2))
        res["a"] = max(res["a"], (norm_l - opn_l) / opn_l,
                       (np.linalg.norm(ra, 2) - opn_r) / opn_r)
        rja = op_right(g, conj_j(g.W, a))
        res["b"] = max(res["b"], np.linalg.norm(jq @ la.conj() - rja @ jq)
                       / max(norm_l, 1e-300))
        uzz = g.op_group(z + z2)
        res["c"] = max(res["c"], np.linalg.norm(uz @ g.op_group(z2) - uzz)
                       / max(np.linalg.norm(uzz), 1e-300))
        res["d"] = max(res["d"], np.linalg.norm(
            uz.conj().T - g.op_group(-np.conj(z)))
            / max(np.linalg.norm(uz), 1e-300))
        lhs = uz @ la @ g.op_group(-z)
        rhs = op_left(g, td.modular_group(z, a))
        res["e"] = max(res["e"], np.linalg.norm(lhs - rhs)
                       / max(np.linalg.norm(rhs), 1e-300))
        uzj = uz @ jq
        res["f"] = max(res["f"], np.linalg.norm(
            uzj - jq @ g.op_group(np.conj(z)).conj())
            / max(np.linalg.norm(uzj), 1e-300))
    for k in "cdf":
        res[k] = max(res[k], g.off_sector)
    return res, drawn


def ref_triple_agreement(form, bim, gram):
    units = matrix_units(bim.n)
    d_bim = [bim.delta(a) for a in units]
    d_gram = [gram.delta(a) for a in units]
    d_form_bim = d_form_gram = d_bim_gram = 0.0
    for a, bim_a, gram_a in zip(units, d_bim, d_gram):
        for b, bim_b, gram_b in zip(units, d_bim, d_gram):
            e_form = form(a, b)
            e_bim = bim.inner(bim_a, bim_b)
            e_gram = np.vdot(gram_a, gram_b)
            d_form_bim = max(d_form_bim, abs(e_form - e_bim))
            d_form_gram = max(d_form_gram, abs(e_form - e_gram))
            d_bim_gram = max(d_bim_gram, abs(e_bim - e_gram))
    return {"triple/form_vs_bimodule": d_form_bim,
            "triple/form_vs_gram": d_form_gram,
            "triple/bimodule_vs_gram": d_bim_gram}


def ref_stinespring_rate(l, w, form, ts=(1e-1, 1e-2, 1e-3)):
    """One matrix unit at a time, through the single-matrix calls."""
    units = matrix_units(w.n)
    devs = []
    route_gap = 0.0
    for t in ts:
        p_t = semigroup(l, t)
        worst = 0.0
        for a in units:
            direct = (inner(w, a - p_t.apply(a), a) / t).real
            via_pairing = (state(w, boundary_pairing(p_t, a, a)) / t).real
            route_gap = max(route_gap, abs(direct - via_pairing))
            worst = max(worst, abs(direct - form(a, a).real))
        devs.append(worst)
    lt = np.log(np.asarray(ts))
    ld = np.log(np.maximum(np.asarray(devs), 1e-300))
    slope = float(np.polyfit(lt, ld, 1)[0])
    return {"ts": list(ts), "deviations": devs, "slope": slope,
            "route_gap": route_gap}


# --- helpers ------------------------------------------------------------------

@pytest.fixture
def drawn(monkeypatch):
    """The arrays every ``draw_samples`` call of the checks returns."""
    record = []

    def spy(rng, count, *draws):
        out = sampling.draw_samples(rng, count, *draws)
        record.append(out)
        return out

    for module in (bimodule, reconstruct, suites):
        monkeypatch.setattr(module, "draw_samples", spy)
    return record


def assert_same_draws(got, per_sample):
    """Stacked draws equal the reference's per-sample draws, bit for bit."""
    assert len(got) == len(per_sample[0])
    for k, stack in enumerate(got):
        want = np.array([sample[k] for sample in per_sample])
        assert stack.dtype == want.dtype and stack.shape == want.shape
        assert np.array_equal(stack, want)


def assert_residuals_agree(got, want):
    assert list(got) == list(want)
    for k, value in want.items():
        assert abs(got[k] - value) <= 1e-12 * abs(value) + 1e-14, (k, got[k], value)


def jump_system(n, m, seed):
    """A valid random jump system with exactly m jumps over M_n."""
    rng = np.random.default_rng(seed)
    w = random_weighted_algebra(n, rng)
    while True:
        system = random_jump_system(w, rng, m_max=m)
        if system.m == m:
            return system


def perturbed_qubit_system():
    """The reference pair with one weight off by 0.1 (breaks axiom (e))."""
    w = WeightedAlgebra(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
    return JumpSystem(W=w, jumps=[(E21, np.log(2.0) + 0.1), (E12, -np.log(2.0))],
                      pairing=[1, 0])


def form_of(system):
    return dirichlet_form(build_generator(system, validate=False), system.W,
                          skip_certify=True)


def spectrum_system(spectrum, seed):
    """A random jump system over a density with the given spectrum (up to
    normalisation) in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    lam = np.asarray(spectrum, dtype=float)
    u = random_unitary(lam.size, rng)
    w = WeightedAlgebra((u * (lam / lam.sum())) @ u.conj().T)
    return random_jump_system(w, rng, m_max=2 * lam.size)


SYSTEMS = {
    "n2-m0": lambda: jump_system(2, 0, 3),
    "n2-m3": lambda: jump_system(2, 3, 4),
    "n3-m6": lambda: jump_system(3, 6, 5),
    "n4-m8": lambda: jump_system(4, 8, 6),
    "perturbed-weight": perturbed_qubit_system,
}
# every quotient coordinate of the first lies in a sector of several Bohr
# classes; the second has a single class
GRAM_SYSTEMS = {
    "near-degenerate-n3": lambda: spectrum_system((1, 1 + 1e-9, 2), 90),
    "tracial-n3": lambda: spectrum_system((1, 1, 1), 91),
}
GRAM_CASES = {**SYSTEMS, **GRAM_SYSTEMS, "n5-m10": lambda: jump_system(5, 10, 7)}


# --- the batched checks against the references -----------------------------------

@pytest.mark.parametrize("case", list(SYSTEMS))
def test_axioms_check_matches_reference(case, drawn):
    b = FinBimodule(SYSTEMS[case](), validate=False)
    want, per_sample = ref_axioms_check(b, n_vectors=40, seed=17)
    got = b.axioms_check(n_vectors=40, seed=17)
    assert_residuals_agree(got, want)
    if b.m:
        assert_same_draws(drawn[0], per_sample)
    if case == "perturbed-weight":
        assert got["e"] > 1e-3


@pytest.mark.parametrize("case", list(SYSTEMS))
def test_derivation_check_matches_reference(case, drawn):
    system = SYSTEMS[case]()
    b = FinBimodule(system, validate=False)
    form = form_of(system)
    want, per_sample = ref_derivation_check(b, form, n_samples=30, seed=19)
    got = Derivation(b).check(form, n_samples=30, seed=19)
    assert_residuals_agree(got, want)
    assert_same_draws(drawn[0], per_sample)


@pytest.mark.parametrize("case", list(SYSTEMS))
def test_carre_du_champ_matches_reference(case):
    system = SYSTEMS[case]()
    form = form_of(system)
    rng = np.random.default_rng(23)
    a = np.array([random_matrix(system.W.n, rng) for _ in range(6)])
    b = np.array([random_matrix(system.W.n, rng) for _ in range(6)])
    got = carre_du_champ(form, a, b)
    for k in range(len(a)):
        want = ref_carre_du_champ(form, a[k], b[k])
        np.testing.assert_allclose(got[k], want, rtol=1e-12, atol=1e-14)
        # a single pair is the stack without leading axes
        np.testing.assert_array_equal(carre_du_champ(form, a[k], b[k]), got[k])


@pytest.mark.parametrize("case", ["n2-m3", "n3-m6", "n4-m8"])
def test_suites_match_reference(case, drawn):
    system = SYSTEMS[case]()
    w = system.W
    sc = Scenario(ScenarioData(W=w, system=system), DEFAULT_TOL)
    report = {c["name"]: c["residual"] for c in run_suite("carre-positivity", sc, 31)}
    want, per_sample = ref_carre_positivity(w, sc.form, sc.bimodule, 31)
    assert_residuals_agree(report, want)
    assert_same_draws(drawn[0], per_sample)
    report = {c["name"]: c["residual"] for c in run_suite("triple-agreement", sc, 31)}
    assert_residuals_agree(report, ref_triple_agreement(sc.form, sc.bimodule, sc.gram))


@pytest.mark.parametrize("case", ["n2-m0", "n2-m3", "n3-m6", "n4-m8",
                                  *GRAM_SYSTEMS, "n5-m10"])
def test_gram_axioms_check_matches_reference(case, drawn, monkeypatch):
    g = build_gram_space(form_of(GRAM_CASES[case]()))
    if case.startswith("near-degenerate"):
        assert not g._group[1].any()
    if case.startswith("tracial"):
        assert g.bohr.size == 1
    # at a small block size every case spans several sample blocks, and
    # several chunks of the (b) defect Gram over D's nonzero positions
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1 << 12)
    blocks = []

    def spy(count, sample_bytes):
        out = sampling.sample_blocks(count, sample_bytes)
        blocks.append((sample_bytes, len(out)))
        return out

    monkeypatch.setattr(reconstruct, "sample_blocks", spy)
    samples = 4 if case == "n5-m10" else 20
    want, per_sample = ref_gram_axioms_check(g, n_samples=samples, seed=37)
    got = gram_axioms_check(g, n_samples=samples, seed=37)
    assert_residuals_agree(got, want)
    if g.rank:
        # the defect's blocks, for each run of rows of J it joins at once
        *defect, (_, sample_blocks) = blocks
        assert all(nbytes == 16 * g.W.n ** 2 for nbytes, _ in defect)
        assert sum(chunks for _, chunks in defect) > 1 and sample_blocks > 1
        assert_same_draws(drawn[0], per_sample)


@pytest.mark.parametrize("case", ["n3-m6", "near-degenerate-n3"])
def test_gram_axioms_check_sees_conj_off_support(case, monkeypatch):
    """An entry added to J where it vanishes is not skipped as a known zero:
    (b) and (f) read the large residuals of the dense reference."""
    g = build_gram_space(form_of(GRAM_CASES[case]()))
    bad = conj_matrix(g)
    bad[tuple(np.argwhere(bad == 0)[0])] = 0.5
    row, col = np.nonzero(bad)
    monkeypatch.setattr(g, "op_conj", lambda: (row, col, bad[row, col]))
    want = ref_gram_axioms_check(g, n_samples=20, seed=37)[0]
    got = gram_axioms_check(g, n_samples=20, seed=37)
    assert_residuals_agree(got, want)
    assert got["b"] > 1e-2 and got["f"] > 1e-2


def ref_op_group(g, z):
    """U_z = sum_k exp(i z nu_k) P_k with P_k = embed[:, k] lift[k] over
    the eigenbasis pairs of Bohr frequency nu_k, as dense rank x rank
    matrices: the pair F_ij (x) F_kl has the frequency of its triple
    (i, j, k) less log lam_l, and the embedding of the pairs is
    kron(embed_T, diag(lam)^{1/2})."""
    lam = g.W.eig.eigenvalues
    embed = np.kron(g.qmap.embed, np.diag(np.sqrt(lam)))
    lift = np.kron(g.qmap.lift, np.diag(1.0 / np.sqrt(lam)))
    nu = np.subtract.outer(g.bohr[g.bohr_class], np.log(lam)).ravel()
    return np.einsum("ip,...p,pj->...ij", embed,
                     np.exp(1j * np.multiply.outer(z, nu)), lift)


@pytest.mark.parametrize("case", ["n2-m3", "n3-m6", "n4-m8", *GRAM_SYSTEMS])
def test_op_group_matches_projections(case):
    g = build_gram_space(form_of(GRAM_CASES[case]()))
    rng = np.random.default_rng(43)
    z = np.array([[random_disk_point(rng) for _ in range(3)] for _ in range(2)])
    got, want = g.op_group(z), ref_op_group(g, z)
    assert got.shape == want.shape == (2, 3, g.rank, g.rank)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("case", ["n2-m3", "n3-m6", "n5-m10"])
def test_stinespring_rate_matches_reference(case):
    system = GRAM_CASES[case]()
    l = build_generator(system)
    form = dirichlet_form(l, system.W)
    got = stinespring_rate(l, system.W, form)
    want = ref_stinespring_rate(l, system.W, form)
    assert got["ts"] == want["ts"]
    for g, v in zip(got["deviations"] + [got["route_gap"]],
                    want["deviations"] + [want["route_gap"]]):
        assert abs(g - v) <= 1e-13 * abs(v)
    assert abs(got["slope"] - want["slope"]) <= 1e-12


def spy_blocks(module, monkeypatch):
    """The slices every ``sample_blocks`` call of ``module`` returns."""
    record = []

    def spy(count, sample_bytes):
        out = sampling.sample_blocks(count, sample_bytes)
        record.append(out)
        return out

    monkeypatch.setattr(module, "sample_blocks", spy)
    return record


def test_gram_axioms_check_blocks_at_default_budget(monkeypatch):
    """At n = 4, m = 8 a default block holds several samples, and the
    residuals are those of one-sample blocks."""
    g = build_gram_space(form_of(GRAM_CASES["n4-m8"]()))
    blocks = spy_blocks(reconstruct, monkeypatch)
    got = gram_axioms_check(g, n_samples=60)
    samples = blocks[-1]
    assert len(samples) > 1 and all(b.stop - b.start >= 8 for b in samples[:-1])
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1 << 12)
    want = gram_axioms_check(g, n_samples=60)
    assert len(blocks[-1]) == 60
    for k, v in want.items():
        assert abs(got[k] - v) <= 1e-13 * abs(v), (k, got[k], v)


def test_axioms_check_blocks_at_default_budget(monkeypatch):
    """At n = 3, m = 6 the residuals of default blocks are those of
    one-sample blocks."""
    b = FinBimodule(SYSTEMS["n3-m6"](), validate=False)
    blocks = spy_blocks(bimodule, monkeypatch)
    got = b.axioms_check()
    monkeypatch.setattr(sampling, "_BLOCK_BYTES", 1 << 12)
    want = b.axioms_check()
    default, small = blocks
    assert len(small) == 200 and len(default) < len(small)
    for k, v in want.items():
        assert abs(got[k] - v) <= 1e-13 * abs(v), (k, got[k], v)


def test_stacked_conj_raises_like_the_loop():
    """A stack holding vectors outside the generated span raises for the
    first of them, with the residual of the single-vector call."""
    w = WeightedAlgebra(np.eye(2, dtype=complex) / 2.0)
    # two copies of one jump: the span couples the components, so it is
    # a proper subspace of H^{+2}
    b = FinBimodule(JumpSystem(W=w, jumps=[(SX, 0.0), (SX, 0.0)], pairing=[0, 1]),
                    validate=False)
    rng = np.random.default_rng(41)
    inside = act_right(b, random_matrix(2, rng), b.delta(random_matrix(2, rng)))
    outside = [rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
               for _ in range(2)]
    b.conj(inside)
    with pytest.raises(NotInGeneratedSpan) as single:
        b.conj(outside[0])
    stack = np.array([inside, outside[0], outside[1]])
    with pytest.raises(NotInGeneratedSpan) as stacked:
        b.conj(stack)
    assert stacked.value.residual == pytest.approx(single.value.residual, rel=1e-12)
    assert stacked.value.residual > DEFAULT_TOL.span


# --- a NaN residual is no pass -------------------------------------------------

@pytest.mark.parametrize("residuals", [
    (0.0, np.nan), (np.nan, 0.0), (0.0, np.array([1.0, np.nan])),
    (np.array([np.nan, 2.0]), 1.0), (1.0, 2.0, np.nan)])
def test_worst_propagates_nan(residuals):
    """Python's max keeps the first of two floats that do not compare."""
    assert np.isnan(sampling.worst(*residuals))


def test_worst_is_the_largest_entry():
    assert sampling.worst(0.0, np.array([1.0, 3.0]), 2.0) == 3.0


def test_tiny_jumps_axiom_d_is_finite():
    """The reference pair over diag(0.6, 0.4) scaled by 1e-200: the product
    |xi| |eta| underflows to 0, so (d) floors its scale as a product and
    reads 0, not 0/0."""
    w = WeightedAlgebra(np.diag([0.6, 0.4]).astype(complex))
    omega = float(np.log(1.5))
    b = FinBimodule(JumpSystem(W=w, jumps=[(1e-200 * E21, omega), (1e-200 * E12, -omega)],
                               pairing=[1, 0]))
    with np.errstate(invalid="raise", divide="raise"):
        res = b.axioms_check(n_vectors=20)
    assert np.isfinite(res["d"]) and res["d"] <= DEFAULT_TOL.axiom


@pytest.mark.parametrize("module, suite, check", [
    (bimodule, "bimodule-axioms", "axiom (a)"),
    (reconstruct, "gram-axioms", "gram axiom (a)"),
])
def test_nan_in_one_sample_fails_its_check(monkeypatch, module, suite, check):
    """A NaN planted in the first sample's operator norm makes its (a)
    residual NaN: the suite reports NaN and fails the check."""
    norms = module.spectral_norm
    calls = []

    def planted(x):
        out = np.array(norms(x))
        if not calls:
            out.flat[0] = np.nan
        calls.append(1)
        return out

    monkeypatch.setattr(module, "spectral_norm", planted)
    system = jump_system(2, 3, 4)
    scenario = Scenario(ScenarioData(W=system.W, system=system), DEFAULT_TOL)
    with np.errstate(invalid="ignore"):
        records = {r["name"]: r for r in run_suite(suite, scenario, seed=0)}
    assert np.isnan(records[check]["residual"]) and not records[check]["pass"]


# --- draws ---------------------------------------------------------------------

_default_rng = np.random.default_rng


class CountingRng:
    """A generator that counts the method calls made on it."""

    def __init__(self, seed):
        self.rng, self.calls = _default_rng(seed), 0

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def ref_draw_runs(seed, count, refs, shapes):
    """Each draw's ``count`` values in its own run of scalar calls
    ``refs[k](rng)``, one draw after the other, as stacks of the given value
    shapes; and the generator."""
    rng = np.random.default_rng(seed)
    return [np.array([f(rng) for _ in range(count)], dtype=complex).reshape(
        (count,) + shape) for f, shape in zip(refs, shapes)], rng


@pytest.mark.parametrize("count", [0, 1, 9])
def test_draw_samples_matches_loop_for_mixed_kinds(count):
    """Draws of three kinds, a scale != 1 and Derivation's z: bit for bit the
    scalar runs' values, one generator call per draw, and the generator left
    where the runs leave it."""
    draws = (matrices(2), matrices(3, scale=0.5), DISK, SQUARE, SQUARE,
             matrices(2), DISK)
    refs = (partial(random_matrix, 2), partial(random_matrix, 3, scale=0.5),
            random_disk_point, random_square_point, random_square_point,
            partial(random_matrix, 2), random_disk_point)
    shapes = ((2, 2), (3, 3), (), (), (), (2, 2), ())
    rng = CountingRng(5)
    got = sampling.draw_samples(rng, count, *draws)
    want, ref = ref_draw_runs(5, count, refs, shapes)
    for stack, stack_want in zip(got, want, strict=True):
        assert stack.dtype == stack_want.dtype and stack.shape == stack_want.shape
        assert np.array_equal(stack, stack_want)
    assert rng.calls == len(draws)
    assert rng.rng.random() == ref.random()


@pytest.mark.parametrize("count", [0, 7])
def test_draw_samples_single_run_is_one_call(count):
    """All samples of one draw take one generator call."""
    rng = CountingRng(6)
    (got,) = sampling.draw_samples(rng, count, matrices(3, scale=2.0))
    (want,), ref = ref_draw_runs(6, count, (partial(random_matrix, 3, scale=2.0),),
                                 ((3, 3),))
    assert got.shape == want.shape and np.array_equal(got, want)
    assert rng.calls == 1
    assert rng.rng.random() == ref.random()


@pytest.mark.parametrize("count", [5, 40])
def test_sampled_checks_call_the_generator_once_per_quantity(count, monkeypatch):
    """Each sampled check calls its generator once per quantity it draws,
    whatever its sample count (carre-positivity draws a fixed 100 matrices,
    fock-commutant 5 matrices and 5 vectors)."""
    system = jump_system(2, 3, 4)
    sc = Scenario(ScenarioData(W=system.W, system=system), DEFAULT_TOL)
    b, form, g = sc.bimodule, sc.form, sc.gram
    checks = {
        "axioms_check": (7, lambda: b.axioms_check(n_vectors=count)),
        "Derivation.check": (3, lambda: Derivation(b).check(form, n_samples=count)),
        "gram_axioms_check": (3, lambda: gram_axioms_check(g, n_samples=count)),
        "carre du champ": (1, lambda: run_suite("carre-positivity", sc, 0)),
        "fock-commutant": (2, lambda: run_suite("fock-commutant", sc, 0)),
    }
    rngs = []

    def counting(seed):
        rngs.append(CountingRng(seed))
        return rngs[-1]

    monkeypatch.setattr(np.random, "default_rng", counting)
    for name, (calls, check) in checks.items():
        rngs.clear()
        check()
        assert [r.calls for r in rngs] == [calls], name


# --- property test --------------------------------------------------------------

@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_checks_match_reference_on_random_systems(n, seed):
    rng = np.random.default_rng(seed)
    system = random_jump_system(random_weighted_algebra(n, rng), rng, m_max=2 * n)
    b = FinBimodule(system)
    form = form_of(system)
    assert_residuals_agree(b.axioms_check(n_vectors=12, seed=seed % 1000),
                           ref_axioms_check(b, 12, seed % 1000)[0])
    assert_residuals_agree(Derivation(b).check(form, n_samples=12, seed=seed % 997),
                           ref_derivation_check(b, form, 12, seed % 997)[0])
    a = np.array([random_matrix(n, rng) for _ in range(4)])
    got = carre_du_champ(form, a, a)
    for k in range(len(a)):
        np.testing.assert_allclose(got[k], ref_carre_du_champ(form, a[k], a[k]),
                                   rtol=1e-12, atol=1e-14)


@st.composite
def clustered_spectra(draw):
    """A spectrum of n = 2 or 3 eigenvalues, each the one before times
    1 + gap, gap 0 (a repeated eigenvalue), log-uniform in [1e-9, 1e-3],
    or 1; and a seed for the eigenbasis and the jumps."""
    n = draw(st.sampled_from([2, 3]))
    gap = st.one_of(st.just(0.0), st.just(1.0),
                    st.floats(-9.0, -3.0).map(lambda e: 10.0 ** e))
    gaps = draw(st.lists(gap, min_size=n - 1, max_size=n - 1))
    return np.cumprod([1.0] + [1.0 + x for x in gaps]), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=10)
@example(case=(np.array([1.0, 1.0 + 1e-9, 2.0]), 90))
@given(case=clustered_spectra())
def test_gram_axioms_check_matches_reference_on_clustered_spectra(case):
    """Over repeated and close eigenvalues, where sectors hold several Bohr
    classes, the check reads the reference's residuals."""
    spectrum, seed = case
    g = build_gram_space(form_of(spectrum_system(spectrum, seed)))
    want = ref_gram_axioms_check(g, n_samples=8, seed=seed % 1000)[0]
    assert_residuals_agree(gram_axioms_check(g, n_samples=8, seed=seed % 1000), want)
