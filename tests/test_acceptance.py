"""Acceptance gate: ten standalone property checks at stated tolerances.

Each test prints a single ``[PASS]``/``[FAIL]`` line for its criterion in
addition to the usual pytest verdict; a criterion's assertions run only
after the residuals have been gathered, so the printed line is accurate
even on failure.
"""

import time

import numpy as np
import scipy.linalg

from qms.bimodule import FinBimodule, carre_du_champ
from qms.fock import fock_build, free_aw
from qms.lindblad import (
    JumpSystem,
    build_generator,
    certify,
    dirichlet_form,
    extract_alicki,
)
from qms.modular import WeightedAlgebra
from qms.numkernel import frob, matrix_units
from qms.reconstruct import (
    build_gram_space,
    gram_axioms_check,
    stinespring_rate,
    uniqueness_isometry,
)
from qms.sampling import random_jump_system, random_matrix, random_weighted_algebra

from conftest import E12, E21, SX, SZ
from test_fock import (modular_unitary, ou_semigroup, pi_left, s_op,
                       safe_projector, vacuum_expectation)


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def sample_systems(rng, count, sizes, m_max=6):
    out = []
    for _ in range(count):
        n = int(rng.choice(sizes))
        w = random_weighted_algebra(n, rng)
        out.append(random_jump_system(w, rng, m_max=m_max))
    return out


def test_criterion_1_alicki_roundtrip():
    """50 random systems, n in {2,3,4}, m <= 6: extraction round-trip."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for system in sample_systems(rng, 50, (2, 3, 4)):
        l = build_generator(system)
        rebuilt = build_generator(extract_alicki(l, system.W))
        worst = max(worst, frob(rebuilt.matrix - l.matrix)
                    / max(frob(l.matrix), 1e-300))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report("criterion 1 (Alicki round-trip)", ok,
           f"max relative residual {worst:.3e} (tol 1e-8), {elapsed:.1f} s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_energy_identity():
    """<delta(a), delta(b)> = <a, L(b)>_h on matrix units, 50 systems."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for system in sample_systems(rng, 50, (2, 3, 4)):
        w = system.W
        l = build_generator(system)
        form = dirichlet_form(l, w, skip_certify=True)
        bim = FinBimodule(system)
        scale = max(frob(l.matrix), 1.0)
        units = matrix_units(w.n)
        deltas = [bim.delta(a) for a in units]
        for a, da in zip(units, deltas):
            for b, db in zip(units, deltas):
                lhs = bim.inner(da, db)
                rhs = form(a, b)
                worst = max(worst, abs(lhs - rhs) / scale)
    ok = worst <= 1e-10
    report("criterion 2 (energy identity)", ok,
           f"max scaled residual {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_3_triple_agreement_and_uniqueness():
    """Gram reconstruction = form = explicit pairing; uniqueness isometry."""
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    worst_triple = 0.0
    worst_unique = 0.0
    for system in sample_systems(rng, 20, (2, 3), m_max=4):
        w = system.W
        form = dirichlet_form(build_generator(system), w, skip_certify=True)
        bim = FinBimodule(system)
        gram = build_gram_space(form, w)
        units = matrix_units(w.n)
        d_bim = [bim.delta(a) for a in units]
        d_gram = [gram.delta(a) for a in units]
        for a, bim_a, gram_a in zip(units, d_bim, d_gram):
            for b, bim_b, gram_b in zip(units, d_bim, d_gram):
                e_form = form(a, b)
                e_bim = bim.inner(bim_a, bim_b)
                e_gram = np.vdot(gram_a, gram_b)
                worst_triple = max(worst_triple, abs(e_form - e_bim),
                                   abs(e_form - e_gram), abs(e_bim - e_gram))
        u = uniqueness_isometry(gram, bim)
        assert u["ranks_agree"]
        worst_unique = max(worst_unique, u["relative_residual"])
    elapsed = time.monotonic() - t0
    ok = worst_triple <= 1e-9 and worst_unique <= 1e-8 and elapsed < 120.0
    report("criterion 3 (triple agreement + uniqueness)", ok,
           f"triple {worst_triple:.3e} (tol 1e-9), "
           f"isometry {worst_unique:.3e} (tol 1e-8), {elapsed:.1f} s")
    assert worst_triple <= 1e-9
    assert worst_unique <= 1e-8
    assert elapsed < 120.0


def test_criterion_4_bimodule_axioms():
    """Axioms (a)-(f) for explicit and reconstructed bimodules, 200 vectors."""
    rng = np.random.default_rng(104)
    worst_explicit = 0.0
    worst_gram = 0.0
    for system in sample_systems(rng, 2, (2, 3), m_max=4):
        bim = FinBimodule(system)
        worst_explicit = max(worst_explicit,
                             max(bim.axioms_check(n_vectors=200).values()))
        form = dirichlet_form(build_generator(system), system.W,
                              skip_certify=True)
        gram = build_gram_space(form, system.W)
        worst_gram = max(worst_gram,
                         max(gram_axioms_check(gram, n_samples=200).values()))
    ok = worst_explicit <= 1e-9 and worst_gram <= 1e-9
    report("criterion 4 (Tomita-bimodule axioms)", ok,
           f"explicit {worst_explicit:.3e}, reconstructed {worst_gram:.3e} "
           f"(tol 1e-9)")
    assert worst_explicit <= 1e-9
    assert worst_gram <= 1e-9


def test_criterion_5_markov_certificates():
    """Choi positivity at t in {0.05, 0.5, 2.0}; symmetry residuals <= 1e-9."""
    rng = np.random.default_rng(105)
    worst_choi = 0.0
    worst_res = 0.0
    for system in sample_systems(rng, 10, (2, 3)):
        rep = certify(build_generator(system), system.W,
                      ts=(0.05, 0.5, 2.0))
        worst_choi = max(worst_choi, -rep.residuals["min_choi_eig"])
        for key in ("unital", "gns_symmetric", "modular_commuting",
                    "semigroup_unital", "semigroup_crosscheck"):
            worst_res = max(worst_res, rep.residuals[key])
    ok = worst_choi <= 1e-9 and worst_res <= 1e-9
    report("criterion 5 (Markov certificates)", ok,
           f"min Choi eigenvalue >= {-worst_choi:.3e} (gate -1e-9), "
           f"residuals {worst_res:.3e} (tol 1e-9)")
    assert worst_choi <= 1e-9
    assert worst_res <= 1e-9


def test_criterion_6_stinespring_rate():
    """log-log slope of |E_t - E| over t in {1e-1, 1e-2, 1e-3} is 1 +- 0.2."""
    rng = np.random.default_rng(106)
    worst_dev = 0.0
    for system in sample_systems(rng, 10, (2, 3), m_max=4):
        l = build_generator(system)
        form = dirichlet_form(l, system.W, skip_certify=True)
        r = stinespring_rate(l, system.W, form)
        worst_dev = max(worst_dev, abs(r["slope"] - 1.0))
    ok = worst_dev <= 0.2
    report("criterion 6 (Stinespring rate)", ok,
           f"max slope deviation {worst_dev:.3f} (tol 0.2)")
    assert worst_dev <= 0.2


def test_criterion_7_carre_du_champ():
    """Gamma(a) PSD and consistent with the bimodule pairing, 100 random a."""
    rng = np.random.default_rng(107)
    system = sample_systems(rng, 1, (3,))[0]
    w = system.W
    form = dirichlet_form(build_generator(system), w, skip_certify=True)
    bim = FinBimodule(system)
    worst_neg = 0.0
    worst_cons = 0.0
    for _ in range(100):
        a = random_matrix(w.n, rng)
        g = carre_du_champ(form, a, a)
        ev = np.linalg.eigvals(g)
        worst_neg = max(worst_neg, max(-ev.real.min(), 0.0))
        da = bim.W.from_eig(bim.delta(a))
        direct = w.h_sqrt @ sum(
            da[j].conj().T @ da[j] for j in range(bim.m)
        ) @ w.h_isqrt
        worst_cons = max(worst_cons, frob(g - direct)
                         / max(frob(direct), 1e-300))
    ok = worst_neg <= 1e-9 and worst_cons <= 1e-9
    report("criterion 7 (carre du champ)", ok,
           f"min eigenvalue >= {-worst_neg:.3e} (gate -1e-9), "
           f"consistency {worst_cons:.3e} (tol 1e-9)")
    assert worst_neg <= 1e-9
    assert worst_cons <= 1e-9


def test_criterion_8_free_araki_woods():
    """Scalar free model, dim H <= 4, depth 4: derivation pairing, OU
    commutation, commutant lemma."""
    t0 = time.monotonic()
    rng = np.random.default_rng(108)
    k = rng.standard_normal((4, 4))
    a = scipy.linalg.expm(1j * 0.6 * (k - k.T))
    f = free_aw(a, d_max=4)
    worst_pair = 0.0
    for layer in range(f.d_max + 1):
        xi = rng.standard_normal(f.dims[layer]) \
            + 1j * rng.standard_normal(f.dims[layer])
        got = f.derivation_pairing(xi, layer, xi, layer)
        worst_pair = max(worst_pair, abs(got - layer * np.vdot(xi, xi))
                         / max(abs(np.vdot(xi, xi)), 1.0))
    mu = modular_unitary(f, 0.43)
    ou = ou_semigroup(f, 0.31)
    comm = np.linalg.norm(mu @ ou - ou @ mu) / np.linalg.norm(ou)

    # commutant lemma: the scalar model is the layered model over M_1 = C
    worst_comm = 0.0
    xis, etas = f.fixed_vectors()
    for xi in xis[:3]:
        for eta in etas[:3]:
            worst_comm = max(worst_comm, f.commutant_check(xi, eta))
    elapsed = time.monotonic() - t0
    ok = (worst_pair <= 1e-10 and comm <= 1e-10 and worst_comm <= 1e-9
          and elapsed < 10.0)
    report("criterion 8 (free Araki-Woods)", ok,
           f"pairing {worst_pair:.3e} (tol 1e-10), OU commutation "
           f"{comm:.3e} (tol 1e-10), commutant {worst_comm:.3e} (tol 1e-9), "
           f"{elapsed:.1f} s")
    assert worst_pair <= 1e-10
    assert comm <= 1e-10
    assert worst_comm <= 1e-9
    assert elapsed < 10.0


def test_criterion_9_operator_valued_fock():
    """M = M_2, depth 3: vacuum identities and the expectation probe."""
    w = WeightedAlgebra(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
    d = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)
    system = JumpSystem(
        W=w,
        jumps=[(E21, np.log(2.0)), (E12, -np.log(2.0)), (d, 0.0)],
        pairing=[1, 0, 2],
    )
    f = fock_build(FinBimodule(system), d_max=3)
    rng = np.random.default_rng(109)
    xs = [random_matrix(2, rng) for _ in range(10)]
    xis = [rng.standard_normal(f.dims[1]) + 1j * rng.standard_normal(f.dims[1])
           for _ in range(10)]
    lam = f.lambda_identities(xs, xis)

    # expectation probe: unital, and faithful on random field polynomials
    e_unit, weight = vacuum_expectation(f, np.eye(f.D, dtype=complex))
    unital_res = max(np.linalg.norm(e_unit - np.eye(2)), abs(weight - 1.0))
    safe = safe_projector(f, f.d_max - 2)
    min_weight = np.inf
    for _ in range(20):
        word = np.eye(f.D, dtype=complex)
        for _ in range(int(rng.integers(1, 4))):
            if rng.uniform() < 0.5:
                word = word @ pi_left(f, random_matrix(2, rng))
            else:
                xi = rng.standard_normal(f.dims[1]) \
                    + 1j * rng.standard_normal(f.dims[1])
                word = word @ s_op(f, xi)
        if np.linalg.norm(word @ safe) < 1e-12:
            continue
        _, wt = vacuum_expectation(f, word.conj().T @ word)
        min_weight = min(min_weight, wt.real
                         / max(np.linalg.norm(word @ safe, 2) ** 2, 1e-300))
    ok = (lam["pi_left"] <= 1e-10 and lam["s_vector"] <= 1e-10
          and unital_res <= 1e-10 and min_weight > 0)
    report("criterion 9 (operator-valued Fock)", ok,
           f"vacuum identities {max(lam.values()):.3e} (tol 1e-10), "
           f"unital {unital_res:.3e}, faithfulness margin {min_weight:.3e}")
    assert lam["pi_left"] <= 1e-10
    assert lam["s_vector"] <= 1e-10
    assert unital_res <= 1e-10
    assert min_weight > 0


def test_criterion_10_deliberate_breaks():
    """Each structural condition, broken by a 1e-1 perturbation, is caught by
    exactly its named check (others stay at numerical zero)."""
    w = WeightedAlgebra(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex))
    wt = WeightedAlgebra(np.eye(2, dtype=complex) / 2.0)
    log2 = np.log(2.0)
    d = np.diag([1.0, -1.0]).astype(complex) / np.sqrt(2.0)

    cases = {
        # trace added to the zero-weight diagonal jump
        "traceless": JumpSystem(
            W=w,
            jumps=[(E21, log2), (E12, -log2),
                   (d + 0.1 * np.eye(2), 0.0)],
            pairing=[1, 0, 2],
        ),
        # overlapping Pauli jumps in the tracial case
        "orthogonal": JumpSystem(
            W=wt,
            jumps=[(SX / np.sqrt(2.0), 0.0),
                   ((SZ + 0.1 * SX) / np.sqrt(2.0), 0.0)],
            pairing=[0, 1],
        ),
        # partner scaled away from the adjoint
        "self-adjoint-set": JumpSystem(
            W=w,
            jumps=[(E21, log2), (1.1 * E12, -log2)],
            pairing=[1, 0],
        ),
        # weights shifted consistently across the adjoint pair
        "modular-eigenvector": JumpSystem(
            W=w,
            jumps=[(E21, log2 + 0.1), (E12, -log2 - 0.1)],
            pairing=[1, 0],
        ),
    }
    all_ok = True
    details = []
    for target, system in cases.items():
        res = system.validate()
        hit = res.pop(target)
        others = max(res.values())
        ok = hit > 1e-2 and others < 1e-8
        all_ok = all_ok and ok
        details.append(f"{target}: {hit:.2e} vs others {others:.1e}")
        assert hit > 1e-2, f"{target} not caught: {hit}"
        assert others < 1e-8, f"{target} break leaked into {res}"
    report("criterion 10 (deliberate breaks)", all_ok, "; ".join(details))
