"""Every check can fail: for each check name, a library-level perturbation
under which the check's residual exceeds its tolerance.

Each row names a check, the suite that reports it and a perturbation of the
library that a wrong implementation could make.  The suite runs on random
jump systems at n = 2 and 3 with the perturbation in place, and the row
asserts that the named check fails.  A check that reads rounding only
(README, "Checks that read rounding only") gets a row that pins that it
stays within its tolerance under the same perturbations.
"""

import numpy as np
import pytest

import qms.suites
from qms.config import DEFAULT_TOL
from qms.fock import TruncatedFock
from qms.lindblad import DirichletForm
from qms.sampling import random_jump_system, random_weighted_algebra
from qms.suites import Scenario, ScenarioData, run_suite


def scenario(n, seed=3):
    """A random jump system of size n over a random density."""
    rng = np.random.default_rng(seed)
    system = random_jump_system(random_weighted_algebra(n, rng), rng, m_max=4)
    return Scenario(ScenarioData(W=system.W, system=system), DEFAULT_TOL)


def scaled_form(monkeypatch):
    """The Dirichlet form scaled by 1.05: E_t still tends to the true form."""
    form = qms.suites.dirichlet_form

    def scaled(*args, **kwargs):
        f = form(*args, **kwargs)
        return DirichletForm(f.L, f.W, 1.05 * f.matrix)

    monkeypatch.setattr(qms.suites, "dirichlet_form", scaled)


def perturbed_right_creator(monkeypatch):
    """b(eta) built from e^{0.1 i} eta, which is not F_0-fixed."""
    creator = TruncatedFock._creator

    def perturbed(self, xi, right=False):
        return creator(self, np.exp(0.1j) * xi if right else xi, right)

    monkeypatch.setattr(TruncatedFock, "_creator", perturbed)


def perturbed_left_creator(monkeypatch):
    """a(xi) built from 1.05 xi."""
    creator = TruncatedFock._creator

    def perturbed(self, xi, right=False):
        return creator(self, xi if right else 1.05 * xi, right)

    monkeypatch.setattr(TruncatedFock, "_creator", perturbed)


def perturbed_left_action(monkeypatch):
    """pi_l(x) acting as pi_l(1.05 x)."""
    left = TruncatedFock._left
    monkeypatch.setattr(TruncatedFock, "_left", lambda self, x, v: left(self, 1.05 * x, v))


# (check name, suite, perturbation)
FAILING = [
    ("stinespring/slope_dev", "stinespring-rate", scaled_form),
    ("fock/commutant", "fock-commutant", perturbed_right_creator),
    ("fock/lambda_pi_left", "fock-commutant", perturbed_left_action),
    ("fock/lambda_s_vector", "fock-commutant", perturbed_left_creator),
]

# (check name, suite, perturbation) of checks that read rounding only
ROUNDING_ONLY = [
    # phi((del a | del a)) and <a - P_t a, a>_h agree for every phi-invariant,
    # GNS-symmetric P_t, whatever the form
    ("stinespring/route_gap", "stinespring-rate", scaled_form),
]


def record(suite, sc, name):
    (rec,) = [r for r in run_suite(suite, sc, 0) if r["name"] == name]
    return rec


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, suite, perturb", FAILING, ids=[r[0] for r in FAILING])
def test_check_fails_under_perturbation(name, suite, perturb, n, monkeypatch):
    sc = scenario(n)
    assert record(suite, sc, name)["pass"]
    perturb(monkeypatch)
    rec = record(suite, scenario(n), name)
    assert rec["residual"] > rec["tolerance"] and not rec["pass"]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name, suite, perturb", ROUNDING_ONLY,
                         ids=[r[0] for r in ROUNDING_ONLY])
def test_rounding_only_check_stays_within_tolerance(name, suite, perturb, n,
                                                    monkeypatch):
    perturb(monkeypatch)
    rec = record(suite, scenario(n), name)
    assert rec["residual"] <= rec["tolerance"] and rec["pass"]
