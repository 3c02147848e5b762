"""Compare the reports of two source trees on a fixed golden scenario set.

    python3 tools/golden.py BASE_TREE CHANGE_TREE

Each tree is a checkout of this repository (a directory with ``src/qms`` and
``perfbench``).  The scenario files are written once, by the base tree, and
fed to both.  Each tree then runs every case in one fresh Python process
with OPENBLAS/OMP/MKL_NUM_THREADS=1.  The cases:

* the ops of ``perfbench.workloads._specs`` for seeds 0-2 of every workload:
  ``qms run`` reports, and the results of the three-route library jobs;
* every non-Fock suite alone at n = 2, m = 3 and n = 3, m = 4, with a jumps
  and a generator source;
* the three Gram suites at n = 3 and 4 over degenerate modular spectra
  (h = I/n, a repeated eigenvalue, a geometric spectrum 1, 2, 4, ..., the
  equally spaced spectrum exp(-3k) of condition number up to 8e3) in a
  random eigenbasis, with a jumps and a generator source;
* ``bimodule-axioms`` and ``carre-positivity``, whose vectors are kept in
  the eigenbasis of h, over the same degenerate spectra, sizes and sources;
* the three Gram suites with a jumps source at m = 2n for n = 5, 6, 10 and
  12, the largest n the stage byte limit admits;
* ``fock-commutant`` at n = 3, m = 6 and n = 4, m = 8 (d_max = 3), and
  ``free-aw-derivation`` at the largest depth the stage byte limit admits
  for d = 2 (depth 10) and d = 3 (depth 6);
* ``alicki-validate`` and ``gram-axioms`` on a generator source over a
  near-degenerate spectrum (1, 1 + g, 2), g = 1e-9 and 1e-8, in a random
  eigenbasis.  The density read back from the file differs from the one the
  jumps were built on by rounding, which turns the computed eigenvectors of
  the two close eigenvalues by about eps / g: the generator comes in another
  eigenbasis than the one the extraction computes;
* two cases that fail a check (exit 1), so that a FAIL report is compared
  too: ``bimodule-axioms`` on the qubit jump pair {(E21, log 2), (E12,
  -log 2)} over diag(2/3, 1/3) with the first weight off by 0.1 (axiom (e)
  fails), and ``certify-generator`` on the non-symmetric generator
  1 + 0.3 E_{0,1} of M_2 (certify/gns_symmetric fails).

Per case the tool compares the exit code, stderr and report bytes (for a
three-route job, its result).  Where the bytes differ it prints, for each
check name whose residual moved, the base -> change residuals of its largest
move.  After the case counts it prints one tally line per check name whose
residual moved anywhere: the number of cases it moved in and the base ->
change residuals of its largest move over all cases.  It exits with 1 if any
exit code, check name or pass flag differs, else with 0.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(TOOLS))
from perfbench.run import BLAS_ENV, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)
NON_FOCK_SUITES = ("alicki-validate", "bimodule-axioms", "carre-positivity",
                   "certify-generator", "gram-axioms", "stinespring-rate",
                   "triple-agreement", "uniqueness")
SUITE_SIZES = ((2, 3), (3, 4))
SUITE_SEED = 20
GRAM_SUITES = ("triple-agreement", "uniqueness", "gram-axioms")
DEGENERATE_SPECTRA = {
    "tracial": lambda n: [1.0] * n,
    "repeated": lambda n: [1.0, 1.0] + [2.0 + k for k in range(n - 2)],
    "geometric": lambda n: [2.0 ** k for k in range(n)],
    "equally-spaced": lambda n: [math.exp(-3.0 * k) for k in range(n)],
}
DEGENERATE_SEED = 21
BIMODULE_SUITES = ("bimodule-axioms", "carre-positivity")
DEGENERATE_BIMODULE_SEED = 24
LARGE_SIZES = ((5, 10), (6, 12), (10, 20), (12, 24))
LARGE_SEED = 23
LARGE_FOCK_SIZES = ((3, 6), (4, 8))
LARGE_FREE_AW = ((2, 10), (3, 6))
LARGE_FOCK_SEED = 25
NEAR_DEGENERATE_GAPS = (1e-9, 1e-8)
NEAR_DEGENERATE_SUITES = ("alicki-validate", "gram-axioms")
NEAR_DEGENERATE_SEED = 22
_LOG2 = math.log(2.0)
FAILING_CASES = {
    "fail-perturbed-weight-bimodule-axioms": {
        "algebra": {"dim": 2, "h": [[2 / 3, 0], [0, 1 / 3]]},
        "source": {"jumps": [
            {"matrix": [[0, 0], [1, 0]], "omega": _LOG2 + 0.1},
            {"matrix": [[0, 1], [0, 0]], "omega": -_LOG2},
            {"matrix": [[0.7071067811865476, 0], [0, -0.7071067811865476]],
             "omega": 0.0}]},
        "checks": ["bimodule-axioms"]},
    "fail-asymmetric-generator-certify": {
        "algebra": {"dim": 2, "h": [[2 / 3, 0], [0, 1 / 3]]},
        "source": {"generator": [[1.0 if i == j else 0.3 if (i, j) == (0, 1)
                                  else 0.0 for j in range(4)] for i in range(4)]},
        "checks": ["certify-generator"]},
}

# Runs one step inside a tree: argv = tree, step name, step arguments.
_CHILD = """
import sys
tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree, sys.argv[2]]
import golden
getattr(golden, sys.argv[3])(*sys.argv[4:])
"""


def _in_tree(tree, step, *args):
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", _CHILD, os.path.abspath(tree), TOOLS,
                    step, *args], env=env, cwd=tree, check=True)


# --- steps run inside a tree --------------------------------------------------

def write_cases(workdir):
    """Write the scenario files and ``cases.json`` into workdir."""
    import numpy as np
    from perfbench import workloads

    specs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, (kind, sc) in enumerate(
                    workloads._specs(workload, np.random.default_rng(seed))):
                specs.append((f"{workload}-s{seed}-{i:02d}-{sc['name']}", kind, sc))
    rng = np.random.default_rng(SUITE_SEED)
    for n, m in SUITE_SIZES:
        for source in ("jumps", "generator"):
            for suite in NON_FOCK_SUITES:
                name = f"suite-{suite}-n{n}-m{m}-{source}"
                specs.append((name, "cli", workloads._scenario(
                    name, n, m, source, (suite,), rng)))
    for prefix, checks, seed in (("degenerate", GRAM_SUITES, DEGENERATE_SEED),
                                 ("degenerate-bimodule", BIMODULE_SUITES,
                                  DEGENERATE_BIMODULE_SEED)):
        rng = np.random.default_rng(seed)
        for spectrum, lams in DEGENERATE_SPECTRA.items():
            for n in (3, 4):
                for source in ("jumps", "generator"):
                    name = f"{prefix}-{spectrum}-n{n}-{source}"
                    specs.append((name, "cli", _spectrum_scenario(
                        name, lams(n), source, rng, checks)))
    rng = np.random.default_rng(LARGE_SEED)
    for n, m in LARGE_SIZES:
        name = f"large-gram-n{n}-m{m}-jumps"
        specs.append((name, "cli", workloads._scenario(
            name, n, m, "jumps", GRAM_SUITES, rng)))
    rng = np.random.default_rng(LARGE_FOCK_SEED)
    for n, m in LARGE_FOCK_SIZES:
        name = f"large-fock-n{n}-m{m}-jumps"
        specs.append((name, "cli", workloads._scenario(
            name, n, m, "jumps", ("fock-commutant",), rng)))
    for d, depth in LARGE_FREE_AW:
        name = f"large-free-aw-d{d}-k{depth}"
        specs.append((name, "cli", workloads._free_aw_scenario(name, d, depth, rng)))
    rng = np.random.default_rng(NEAR_DEGENERATE_SEED)
    for gap in NEAR_DEGENERATE_GAPS:
        name = f"near-degenerate-{gap:g}-n3-generator"
        specs.append((name, "cli", _spectrum_scenario(
            name, [1.0, 1.0 + gap, 2.0], "generator", rng,
            NEAR_DEGENERATE_SUITES)))
    for name, sc in FAILING_CASES.items():
        specs.append((name, "cli", {"v": 1, "name": name, "seed": 7, **sc}))
    cases = []
    for name, kind, sc in specs:
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(sc, fh)
        cases.append({"name": name, "kind": kind, "scenario": path})
    with open(os.path.join(workdir, "cases.json"), "w") as fh:
        json.dump(cases, fh)


def _spectrum_scenario(name, lams, source, rng, checks=GRAM_SUITES):
    """The given suites (the Gram suites by default) on a random jump system
    over a density with eigenvalues proportional to lams."""
    import numpy as np
    from perfbench.workloads import _mat_json
    from qms.lindblad import build_generator
    from qms.modular import WeightedAlgebra
    from qms.sampling import random_jump_system, random_unitary

    lam = np.asarray(lams) / np.sum(lams)
    u = random_unitary(lam.size, rng)
    w = WeightedAlgebra((u * lam) @ u.conj().T)
    system = random_jump_system(w, rng, m_max=2 * lam.size)
    if source == "jumps":
        src = {"jumps": [{"matrix": _mat_json(v), "omega": float(om)}
                         for v, om in system.jumps]}
    else:
        src = {"generator": _mat_json(build_generator(system).matrix)}
    return {"v": 1, "name": name, "algebra": {"dim": lam.size, "h": _mat_json(w.h)},
            "source": src, "checks": list(checks),
            "seed": int(rng.integers(1 << 30))}


def run_cases(workdir, out):
    """Run every case of ``cases.json``; write exit codes, stderr and reports."""
    from perfbench import workloads
    from qms.cli import main

    with open(os.path.join(workdir, "cases.json")) as fh:
        cases = json.load(fh)
    results = {}
    for case in cases:
        err = io.StringIO()
        rec = {}
        try:
            if case["kind"] == "cli":
                report = os.path.join(workdir, "report.json")
                with contextlib.suppress(FileNotFoundError):
                    os.remove(report)
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    rec["exit"] = main(["run", case["scenario"], "--json", report])
                if os.path.exists(report):
                    with open(report) as fh:
                        rec["report"] = fh.read()
            else:
                rec["result"] = workloads._three_routes(case["scenario"])
                rec["exit"] = 0
                ok, _, why = workloads.check_op(case, rec["result"])
                rec["gates"] = [why, ok]
        except Exception as exc:  # noqa: BLE001 - an uncaught error is a result
            rec["exit"] = f"uncaught {type(exc).__name__}: {exc}"
        rec["stderr"] = err.getvalue()
        results[case["name"]] = rec
    with open(out, "w") as fh:
        json.dump(results, fh)


# --- comparison ---------------------------------------------------------------

def _flags(rec):
    """Check names with pass flags, and overall pass, of a run."""
    if "report" in rec:
        rep = json.loads(rec["report"])
        return ([(c["name"], c["pass"]) for c in rep["checks"]],
                rep["overall_pass"])
    return rec.get("gates")


def _residual_moves(base, change):
    """(base, change) residuals of the largest |change| per check name (per
    key for a three-route result), of the names whose residual moved."""
    if "report" in base:
        pairs = [(c["name"], c["residual"], d["residual"]) for c, d in zip(
            json.loads(base["report"])["checks"],
            json.loads(change["report"])["checks"])]
    else:
        pairs = [(k, v, change["result"][k]) for k, v in base["result"].items()
                 if isinstance(v, float)]
    out = {}
    for name, a, b in pairs:
        prev = out.get(name)
        if a != b and (prev is None or abs(a - b) > abs(prev[0] - prev[1])):
            out[name] = (a, b)
    return out


def _larger(move, other):
    """The larger of two (base, change) moves."""
    return move if abs(move[0] - move[1]) >= abs(other[0] - other[1]) else other


def compare(base, change):
    """(identical, breaking, lines, tally) for two runs of the same cases;
    tally maps each check name whose residual moved to (cases, largest move)."""
    identical = breaking = 0
    lines = []
    tally = {}
    for name, b in base.items():
        c = change[name]
        problems = []
        if b["exit"] != c["exit"]:
            problems.append(f"exit {b['exit']} -> {c['exit']}")
        if _flags(b) != _flags(c):
            problems.append("check names or pass flags differ")
        if problems:
            breaking += 1
            lines.append(f"BREAK {name}: " + "; ".join(problems))
        same_out = b.get("report") == c.get("report") and \
            b.get("result") == c.get("result")
        if b["stderr"] != c["stderr"]:
            lines.append(f"  {name}: stderr {b['stderr']!r} -> {c['stderr']!r}")
        if same_out and b["stderr"] == c["stderr"] and not problems:
            identical += 1
        if not same_out and any(k in b and k in c for k in ("report", "result")):
            moves = _residual_moves(b, c)
            lines.append(f"  {name}: differs; residuals base -> change: " + ", ".join(
                f"{k} {u:.1e} -> {v:.1e}" for k, (u, v) in sorted(moves.items())))
            for k, move in moves.items():
                cases, largest = tally.get(k, (0, move))
                tally[k] = (cases + 1, _larger(move, largest))
    return identical, breaking, lines, tally


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_tree, change_tree = argv
    with tempfile.TemporaryDirectory(prefix="golden-") as workdir:
        _in_tree(base_tree, "write_cases", workdir)
        runs = []
        for label, tree in (("base", base_tree), ("change", change_tree)):
            out = os.path.join(workdir, f"{label}.out.json")
            _in_tree(tree, "run_cases", workdir, out)
            with open(out) as fh:
                runs.append(json.load(fh))
    identical, breaking, lines, tally = compare(*runs)
    for line in lines:
        print(line)
    print(f"{len(runs[0])} cases: {identical} identical, "
          f"{len(runs[0]) - identical - breaking} differ in residuals or stderr "
          f"only, {breaking} differ in an exit code, check name or pass flag")
    for name, (cases, (u, v)) in sorted(tally.items()):
        print(f"moved {name}: {cases} cases, largest {u:.1e} -> {v:.1e}")
    return 1 if breaking else 0


if __name__ == "__main__":
    sys.exit(main())
