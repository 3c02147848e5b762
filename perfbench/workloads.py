"""Seeded inputs, op lists and correctness gates of the three workloads.

An op is one unit of timed work: a ``qms run <scenario> --json <report>``
call through ``qms.cli.main``, or a three-route library job on a scenario
file that the CLI cannot run (n = 5).  The sizes, suites and sources of the
ops are fixed per workload, so that one pass over the op list does the same
amount of work for every seed; the seed draws only the matrices (densities,
jump operators, free-model data) through ``qms.sampling``.
"""

import hashlib
import json
import os

import numpy as np
import scipy.linalg

from qms.config import DEFAULT_TOL
from qms.lindblad import build_generator
from qms.modular import WeightedAlgebra
from qms.sampling import random_density, random_jump_system, random_matrix

# Check names each suite reports, in report order.
EXPECTED_CHECKS = {
    "alicki-validate": [
        "alicki/modular-eigenvector", "alicki/orthogonal",
        "alicki/self-adjoint-set", "alicki/traceless"],
    "bimodule-axioms": [
        "axiom (a)", "axiom (b)", "axiom (c)", "axiom (d)", "axiom (e)",
        "axiom (f)", "derivation/conj_intertwine",
        "derivation/energy_identity", "derivation/mod_intertwine",
        "derivation/product_rule"],
    "carre-positivity": ["carre/psd", "carre/consistency"],
    "certify-generator": [
        "certify/gns_symmetric", "certify/choi_positive",
        "certify/modular_commuting", "certify/semigroup_crosscheck",
        "certify/semigroup_unital", "certify/unital"],
    "fock-commutant": [
        "fock/commutant", "fock/lambda_pi_left", "fock/lambda_s_vector"],
    "free-aw-derivation": [
        "free_aw/derivation_pairing", "free_aw/ou_modular_commute",
        "free_aw/energy_identity", "free_aw/commutation"],
    "gram-axioms": [f"gram axiom ({k})" for k in "abcdef"],
    "stinespring-rate": ["stinespring/slope_dev", "stinespring/route_gap"],
    "triple-agreement": [
        "triple/form_vs_bimodule", "triple/form_vs_gram",
        "triple/bimodule_vs_gram"],
    "uniqueness": ["uniqueness/isometry", "uniqueness/rank_match"],
}

# The eight suites that need no Fock space, split into groups of 1-3 suites
# with one of the three slow suites in each of the first three groups;
# every (n, source) pair of sweep-small runs each group once per pass.
_SWEEP_GROUPS = (
    ("bimodule-axioms", "alicki-validate"),
    ("gram-axioms", "certify-generator"),
    ("carre-positivity", "triple-agreement", "uniqueness"),
    ("stinespring-rate",),
)
# jump counts per algebra size, all <= 2n; random_jump_system(m_max=m)
# returns exactly m jumps for these after at most a few redraws
_SWEEP_M = {2: (2, 3), 3: (4, 6)}

_GRAM_SUITES = ("triple-agreement", "uniqueness", "gram-axioms")
_GRAM_N4_M = 8
_GRAM_N5_M = 10

_FOCK_COMMUTANT = ((2, 3), (3, 2))          # (n, m), d_max = 3 in the suite
_FREE_AW = ((2, 6), (3, 5), (4, 4))         # (d, depth)


def _mat_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _jump_system(n, m, rng):
    """Jump system with exactly m jumps over a random density of size n."""
    w = WeightedAlgebra(random_density(n, rng))
    for _ in range(100):
        system = random_jump_system(w, rng, m_max=m)
        if system.m == m:
            return w, system
    raise RuntimeError(f"no jump system with m = {m} at n = {n}")


def _scenario(name, n, m, source, checks, rng):
    w, system = _jump_system(n, m, rng)
    if source == "jumps":
        src = {"jumps": [{"matrix": _mat_json(v), "omega": float(om)}
                         for v, om in system.jumps]}
    else:
        src = {"generator": _mat_json(build_generator(system).matrix)}
    return {
        "v": 1,
        "name": name,
        "algebra": {"dim": n, "h": _mat_json(w.h)},
        "source": src,
        "checks": list(checks),
        "seed": int(rng.integers(1 << 30)),
    }


def _free_aw_scenario(name, d, depth, rng):
    # A = exp(iK) with K real antisymmetric is positive definite and
    # satisfies conj(A) = A^{-1}, the commutation condition for I = conj
    k = random_matrix(d, rng, scale=0.5).real
    a = scipy.linalg.expm(0.5j * (k - k.T))
    return {
        "v": 1,
        "name": name,
        "source": {"fock_spec": {"A": _mat_json(a), "I": "conjugation",
                                 "depth": depth}},
        "checks": ["free-aw-derivation"],
        "seed": int(rng.integers(1 << 30)),
    }


def _specs(workload, rng):
    """(kind, scenario) pairs of one pass, in run order."""
    if workload == "sweep-small":
        out = []
        for n in (2, 3):
            for g, group in enumerate(_SWEEP_GROUPS):
                for s, source in enumerate(("jumps", "generator")):
                    m = _SWEEP_M[n][(g + s) % 2]
                    out.append(("cli", _scenario(
                        f"sweep-n{n}-m{m}-{source}-{g}", n, m, source, group, rng)))
        return out
    if workload == "gram-heavy":
        return [
            ("cli", _scenario("gram-n4", 4, _GRAM_N4_M, "jumps",
                              _GRAM_SUITES, rng)),
            ("three-route", _scenario("routes-n5", 5, _GRAM_N5_M, "jumps",
                                      (), rng)),
        ]
    if workload == "fock-layers":
        out = [("cli", _scenario(f"fock-n{n}-m{m}", n, m, "jumps",
                                 ("fock-commutant",), rng))
               for n, m in _FOCK_COMMUTANT]
        out += [("cli", _free_aw_scenario(f"free-aw-d{d}-k{depth}", d, depth, rng))
                for d, depth in _FREE_AW]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _warmup_specs(workload, rng):
    """Small ops that load every code path of the workload before timing."""
    if workload == "sweep-small":
        return [("cli", _scenario("warm-sweep", 2, 2, source, group, rng))
                for source, group in (("jumps", sum(_SWEEP_GROUPS, ())),
                                      ("generator", ("alicki-validate",)))]
    if workload == "gram-heavy":
        return [("cli", _scenario("warm-gram", 2, 2, "jumps", _GRAM_SUITES, rng)),
                ("three-route", _scenario("warm-routes", 2, 2, "jumps", (), rng))]
    return [("cli", _scenario("warm-fock", 2, 2, "jumps", ("fock-commutant",), rng)),
            ("cli", _free_aw_scenario("warm-free-aw", 2, 3, rng))]


def write_ops(workload, seed, workdir):
    """Write the scenario files of a workload; returns (warm-up ops, ops)."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)

    def materialise(specs, prefix):
        ops = []
        for i, (kind, scenario) in enumerate(specs):
            path = os.path.join(workdir, f"{prefix}{i:02d}.json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            ops.append({"kind": kind, "name": scenario["name"],
                        "scenario": path, "report": path[:-5] + ".report.json",
                        "checks": scenario["checks"]})
        return ops

    ops = materialise(_specs(workload, rng), "op")
    warm = materialise(_warmup_specs(workload, rng), "warm")
    return warm, ops


# --- running and checking one op ---------------------------------------------

def run_op(op):
    """Do the op's work; returns what ``check_op`` needs."""
    if op["kind"] == "cli":
        from qms.cli import main
        return main(["run", op["scenario"], "--json", op["report"]])
    return _three_routes(op["scenario"])


def _three_routes(path):
    """Explicit bimodule vs Gram quotient vs Stinespring route, by library calls.

    Imports at call time, so that a traced run sees its wrapped functions.
    """
    from qms.bimodule import FinBimodule
    from qms.cli import parse_scenario
    from qms.lindblad import build_generator, dirichlet_form
    from qms.reconstruct import build_gram_space, stinespring_rate, uniqueness_isometry

    with open(path) as fh:
        data, _, tol, _ = parse_scenario(json.load(fh))
    w, system = data.W, data.system
    l = build_generator(system)
    form = dirichlet_form(l, w, tol)
    gram = build_gram_space(form, w, tol, allow_large=True)
    u = uniqueness_isometry(gram, FinBimodule(system, tol), tol)
    rate = stinespring_rate(l, w, form)
    return {"relative_residual": u["relative_residual"],
            "ranks_agree": bool(u["ranks_agree"]), "rank": int(gram.rank),
            "expected_rank": system.m * w.n ** 2,
            "slope": rate["slope"], "route_gap": rate["route_gap"]}


def check_op(op, result, tol=DEFAULT_TOL):
    """(ok, digest, reason): the op's own pass/fail gates.

    The digest (of the JSON report, or of the job's numbers) is information
    only: reports differ in the last digits between BLAS thread counts.
    """
    if op["kind"] == "cli":
        if result != 0:
            return False, "", f"exit code {result}"
        with open(op["report"], "rb") as fh:
            raw = fh.read()
        os.remove(op["report"])     # the next run of the op must write it anew
        report = json.loads(raw)
        digest = hashlib.sha256(raw).hexdigest()
        expected = [name for s in op["checks"] for name in EXPECTED_CHECKS[s]]
        got = [c["name"] for c in report["checks"]]
        if got != expected:
            return False, digest, f"checks {got} != {expected}"
        bad = [c["name"] for c in report["checks"]
               if not (c["pass"] and c["residual"] <= c["tolerance"])]
        if bad or not report["overall_pass"]:
            return False, digest, f"failed checks {bad}"
        return True, digest, ""
    digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
    gates = {
        "uniqueness/isometry": result["relative_residual"] <= tol.roundtrip,
        "uniqueness/ranks_agree": result["ranks_agree"],
        "gram/rank": result["rank"] == result["expected_rank"],
        "stinespring/slope_dev": abs(result["slope"] - 1.0) <= 0.2,
        "stinespring/route_gap": result["route_gap"] <= tol.axiom,
    }
    bad = [k for k, ok in gates.items() if not ok]
    return not bad, digest, f"failed gates {bad}" if bad else ""
