"""Named check suites run by the command-line front-end.

Each suite takes a ``Scenario`` and returns a list of check records
{name, residual, tolerance, pass}.  Suites are deterministic for a fixed
scenario and seed.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bimodule import Derivation, FinBimodule, carre_du_champ
from .errors import NotGNSSymmetric, QMSError
from .fock import fock_build, free_aw
from .lindblad import (JumpSystem, _extract_certified, build_generator, certify,
                       dirichlet_form)
from .modular import WeightedAlgebra
from .numkernel import Superoperator, matrix_units
from .reconstruct import (build_gram_space, gram_axioms_check,
                          stinespring_rate, uniqueness_isometry)
from .sampling import draw_samples, matrices, sample_blocks, worst

__all__ = ["ScenarioData", "Scenario", "SUITES", "run_suite", "suite_names"]


@dataclass
class ScenarioData:
    """Parsed scenario payload: the algebra plus exactly one source."""

    W: WeightedAlgebra
    system: JumpSystem = None
    generator: Superoperator = None
    fock_spec: dict = None
    name: str = ""


class Scenario:
    """The objects derived from one scenario, each built at most once.

    Nothing is validated on construction: ``bimodule-axioms`` must see a
    broken jump system as failing residuals.  Suites that need a valid,
    GNS-symmetric generator call ``certified()`` first.
    """

    def __init__(self, data: ScenarioData, tol):
        self.data = data
        self.W = data.W
        self.tol = tol

    @cached_property
    def system(self):
        if self.data.system is not None:
            return self.data.system
        if self.data.generator is not None:    # extract_alicki, certified once
            return _extract_certified(self.data.generator, self.W,
                                      self.certificate, self.tol)
        raise QMSError("suite needs a jump system or a generator")

    @cached_property
    def generator(self):
        return build_generator(self.system, validate=False)

    @cached_property
    def certificate(self):
        """The certificate of the input generator, else of the jump system's."""
        l = self.data.generator
        return certify(self.generator if l is None else l, self.W, self.tol)

    @cached_property
    def form(self):
        return dirichlet_form(self.generator, self.W, self.tol, skip_certify=True)

    @cached_property
    def bimodule(self):
        return FinBimodule(self.system, self.tol, validate=False)

    @cached_property
    def gram(self):
        return build_gram_space(self.form, self.W, self.tol)

    def certified(self):
        """Raise unless the jump system is valid and ``certificate`` GNS-symmetric."""
        self.system.check_valid()
        if not self.certificate.gns_symmetric:
            raise NotGNSSymmetric(f"residuals: {self.certificate.residuals}")


def _check(name, residual, tolerance):
    residual = float(residual)
    return {"name": name, "residual": residual, "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance)}


def suite_alicki_validate(sc, seed):
    res = sc.system.validate()
    return [_check(f"alicki/{k}", v, sc.tol.roundtrip)
            for k, v in sorted(res.items())]


def suite_certify_generator(sc, seed):
    # a generator source is certified as given; the suite reports, rather
    # than raises on, a failing symmetry residual
    if sc.data.generator is None:
        sc.system.check_valid()
    out = []
    for k, v in sorted(sc.certificate.residuals.items()):
        if k == "min_choi_eig":
            out.append(_check("certify/choi_positive", max(-v, 0.0), sc.tol.choi))
        else:
            out.append(_check(f"certify/{k}", v, sc.tol.axiom))
    return out


def suite_triple_agreement(sc, seed):
    sc.certified()
    form, bim, gram = sc.form, sc.bimodule, sc.gram
    units = matrix_units(sc.W.n)
    # pairing matrices [p, q] over the unit pairs (E_p, E_q)
    e_form = form(units[:, None], units[None, :])
    c_bim = bim.coords(bim.delta(units))
    e_bim = c_bim.conj() @ c_bim.T
    d_gram = gram.delta(units)
    e_gram = d_gram.conj() @ d_gram.T
    return [
        _check("triple/form_vs_bimodule", np.abs(e_form - e_bim).max(), sc.tol.axiom),
        _check("triple/form_vs_gram", np.abs(e_form - e_gram).max(), sc.tol.axiom),
        _check("triple/bimodule_vs_gram", np.abs(e_bim - e_gram).max(), sc.tol.axiom),
    ]


def suite_uniqueness(sc, seed):
    sc.certified()
    u = uniqueness_isometry(sc.gram, sc.bimodule, sc.tol)
    return [
        _check("uniqueness/isometry", u["relative_residual"], sc.tol.roundtrip),
        _check("uniqueness/rank_match",
               0.0 if u["ranks_agree"] else 1.0, 0.5),
    ]


def suite_bimodule_axioms(sc, seed):
    # no up-front structural validation here: a broken jump system should
    # surface as a failing axiom residual, not as an exception
    res = sc.bimodule.axioms_check(n_vectors=200, seed=seed)
    out = [_check(f"axiom ({k})", v, sc.tol.axiom) for k, v in sorted(res.items())]
    dres = Derivation(sc.bimodule).check(sc.form, n_samples=50, seed=seed)
    out.extend(_check(f"derivation/{k}", v, sc.tol.axiom)
               for k, v in sorted(dres.items()))
    return out


def suite_stinespring_rate(sc, seed):
    sc.certified()
    r = stinespring_rate(sc.generator, sc.W, sc.form)
    slope_dev = abs(r["slope"] - 1.0)
    return [
        _check("stinespring/slope_dev", slope_dev, 0.2),
        _check("stinespring/route_gap", r["route_gap"], sc.tol.axiom),
    ]


def suite_carre_positivity(sc, seed):
    sc.certified()
    w, form, bim = sc.W, sc.form, sc.bimodule
    rng = np.random.default_rng(seed)
    (a,) = draw_samples(rng, 100, matrices(w.n))
    g = carre_du_champ(form, a, a)
    worst_neg = worst(0.0, -np.linalg.eigvals(g).real.min(axis=-1))
    da = w.from_eig(bim.delta(a))
    direct = w.h_sqrt @ np.einsum("sjrk,sjrl->skl", da.conj(), da) @ w.h_isqrt
    worst_cons = worst(0.0, np.linalg.norm(g - direct, axis=(-2, -1))
                       / np.maximum(np.linalg.norm(direct, axis=(-2, -1)), 1e-300))
    return [
        _check("carre/psd", worst_neg, sc.tol.axiom),
        _check("carre/consistency", worst_cons, sc.tol.axiom),
    ]


def suite_fock_commutant(sc, seed):
    tol = sc.tol
    sc.system.check_valid()
    f = fock_build(sc.bimodule, d_max=3, tol=tol)
    xis, etas = f.fixed_vectors()
    worst = float(np.max(f.commutant_check(xis[:3], etas[:3]), initial=0.0))
    rng = np.random.default_rng(seed)
    (xs,) = draw_samples(rng, 5, matrices(sc.W.n))
    v = rng.standard_normal((5, 2, f.dims[1]))
    lam = f.lambda_identities(xs, v[:, 0] + 1j * v[:, 1])
    return [
        _check("fock/commutant", worst, tol.axiom),
        _check("fock/lambda_pi_left", lam["pi_left"], tol.check),
        _check("fock/lambda_s_vector", lam["s_vector"], tol.check),
    ]


def suite_free_aw_derivation(sc, seed):
    tol = sc.tol
    spec = sc.data.fock_spec
    if spec is None:
        raise QMSError("suite needs a fock_spec source")
    f = free_aw(spec["A"], spec.get("I"), spec.get("depth", 4), tol)
    rng = np.random.default_rng(seed)
    pairing = []    # np.max of it keeps a NaN residual
    for layer in range(1, f.d_max + 1):
        dim = f.dims[layer]
        xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        got = f.derivation_pairing(xi, layer, xi, layer)
        norm2 = np.vdot(xi, xi)
        pairing.append(abs(got - layer * norm2) / max(abs(norm2), 1e-300))
    # Delta^{it} is (V_{-t})^{(x)k} and exp(-sN) the scalar e^{-sk} on layer
    # k: ||[Delta^{it}, exp(-sN)]||_F / ||exp(-sN)||_F, one layer at a time,
    # each commutator in row chunks so that the top block is the only one
    # held.  A block times one scalar commutes exactly in floating point, so
    # this reads 0 on every input and tests nothing of the model
    ou, comm = np.exp(-0.51 * np.arange(f.d_max + 1.0)), 0.0
    for mu, o in zip(f.modular_blocks(0.37), ou):
        for rows in sample_blocks(len(mu), 16 * len(mu)):
            diff = mu[rows] * o
            diff -= o * mu[rows]
            comm += np.linalg.norm(diff) ** 2
    comm = np.sqrt(comm) / max(np.linalg.norm(np.repeat(ou, f.dims)), 1e-300)
    # E(xi) = <xi, N xi> equals the derivation pairing summed over layers
    full = rng.standard_normal(f.D) + 1j * rng.standard_normal(f.D)
    e_direct = f.energy(full)
    e_sum = sum(
        f.derivation_pairing(f.layer_block(full, k), k,
                             f.layer_block(full, k), k)
        for k in range(f.d_max + 1)
    )
    return [
        _check("free_aw/derivation_pairing", np.max(pairing, initial=0.0), tol.check),
        _check("free_aw/ou_modular_commute", comm, tol.check),
        _check("free_aw/energy_identity",
               abs(e_direct - e_sum) / max(abs(e_direct), 1e-300), tol.check),
        _check("free_aw/commutation", f.commutation_residual, tol.roundtrip),
    ]


def suite_gram_axioms(sc, seed):
    sc.certified()
    res = gram_axioms_check(sc.gram, n_samples=60, seed=seed)
    return [_check(f"gram axiom ({k})", v, sc.tol.axiom)
            for k, v in sorted(res.items())]


SUITES = {
    "alicki-validate": (suite_alicki_validate,
                        "four structural conditions of the jump system"),
    "bimodule-axioms": (suite_bimodule_axioms,
                        "Tomita-bimodule axioms (a)-(f) and derivation checks"),
    "carre-positivity": (suite_carre_positivity,
                         "carre du champ is PSD and matches the derivation"),
    "certify-generator": (suite_certify_generator,
                          "Markovianity and symmetry certificates"),
    "fock-commutant": (suite_fock_commutant,
                       "s/t commutation and vacuum identities on Fock space"),
    "free-aw-derivation": (suite_free_aw_derivation,
                           "scalar free Araki-Woods derivation identities"),
    "gram-axioms": (suite_gram_axioms,
                    "Tomita-bimodule axioms on the reconstructed quotient"),
    "stinespring-rate": (suite_stinespring_rate,
                         "first-order recovery of the form from semigroup maps"),
    "triple-agreement": (suite_triple_agreement,
                         "form = explicit pairing = reconstructed pairing"),
    "uniqueness": (suite_uniqueness,
                   "isometry between reconstructed and explicit bimodules"),
}


def suite_names():
    return sorted(SUITES)


def run_suite(name, scenario: Scenario, seed=0):
    fn, _ = SUITES[name]
    return fn(scenario, seed)
