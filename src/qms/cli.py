"""``qms`` command line: run scenario files through named check suites.

Scenario files are JSON (schema version 1):

    {
      "v": 1,
      "name": "depolarizing",
      "algebra": {"dim": 2, "h": [[0.6, 0], [0, 0.4]]},
      "source": {"jumps": [{"matrix": [[0, 1], [0, 0]], "omega": 0.0}, ...]},
      "checks": ["triple-agreement"],
      "tolerances": {"axiom": 1e-9},
      "seed": 7
    }

Complex entries are written as [re, im]; matrices are row-major nested
lists.  ``algebra`` takes either a density ``h`` or ``blocks`` (a list of
block densities assembled block-diagonally).  Exactly one of ``jumps``,
``generator`` (an n^2 x n^2 superoperator matrix in column-stacking vec
coordinates) or ``fock_spec`` (a scalar free model: matrix ``A``, optional
``I`` and ``depth``) must appear under ``source``.

Exit codes: 0 all checks pass, 1 check failure, 2 parse error, 3 internal
error.  JSON reports (--json) are byte-identical for the same scenario and
seed; wall-clock timing appears only in the text report.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .config import DEFAULT_TOL
from .errors import QMSError, ScenarioParseError, SizeLimitExceeded
from .lindblad import JumpSystem
from .modular import WeightedAlgebra
from .numkernel import Superoperator
from .suites import SUITES, Scenario, ScenarioData, run_suite, suite_names

SCHEMA_VERSION = 1


def parse_scalar(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
            isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise ScenarioParseError(f"bad numeric entry: {v!r}")


def parse_real(v, what):
    """A finite JSON number; bools and strings are not numbers here."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            if math.isfinite(v):
                return float(v)
        except OverflowError:
            pass
    raise ScenarioParseError(f"{what} must be a finite number, got {v!r}")


def parse_count(v, what):
    """A JSON integer >= 0; bools and strings are not counts here."""
    if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
        return v
    raise ScenarioParseError(f"{what} must be an integer >= 0, got {v!r}")


def parse_matrix(rows):
    if not isinstance(rows, list) or not rows or not all(
            isinstance(r, list) for r in rows):
        raise ScenarioParseError("matrix must be a nested list")
    try:
        return np.array([[parse_scalar(v) for v in row] for row in rows],
                        dtype=np.complex128)
    except ScenarioParseError:
        raise
    except Exception as exc:
        raise ScenarioParseError(f"bad matrix: {exc}") from exc


def parse_algebra(spec):
    if not isinstance(spec, dict):
        raise ScenarioParseError("algebra must be an object")
    if "h" in spec:
        h = parse_matrix(spec["h"])
    elif "blocks" in spec:
        import scipy.linalg
        blocks = [parse_matrix(b) for b in spec["blocks"]]
        h = scipy.linalg.block_diag(*blocks)
    else:
        raise ScenarioParseError("algebra needs 'h' or 'blocks'")
    dim = spec.get("dim")
    if dim is not None and parse_count(dim, "algebra dim") != h.shape[0]:
        raise ScenarioParseError(
            f"algebra dim {dim} != density size {h.shape[0]}")
    tr = np.trace(h).real
    if tr <= 0:
        raise ScenarioParseError("density must have positive trace")
    try:
        return WeightedAlgebra(h / tr)
    except QMSError as exc:
        raise ScenarioParseError(f"bad density: {exc}") from exc


def parse_scenario(payload):
    if not isinstance(payload, dict):
        raise ScenarioParseError("scenario must be a JSON object")
    if payload.get("v") != SCHEMA_VERSION:
        raise ScenarioParseError(
            f"unsupported schema version {payload.get('v')!r}")
    source = payload.get("source")
    if not isinstance(source, dict):
        raise ScenarioParseError("scenario needs a 'source' object")
    kinds = [k for k in ("jumps", "generator", "fock_spec") if k in source]
    if len(kinds) != 1:
        raise ScenarioParseError(
            f"source must contain exactly one of jumps/generator/fock_spec, "
            f"got {sorted(source)}")
    kind = kinds[0]

    if kind == "fock_spec":
        raw = source["fock_spec"]
        if not isinstance(raw, dict) or "A" not in raw:
            raise ScenarioParseError("fock_spec needs a matrix 'A'")
        a = parse_matrix(raw["A"])
        conj_i = raw.get("I", "conjugation")
        imat = None if conj_i == "conjugation" else parse_matrix(conj_i)
        # the scalar model needs no matrix algebra; a trivial one is enough
        w = WeightedAlgebra(np.eye(1))
        data = ScenarioData(W=w, fock_spec={
            "A": a, "I": imat,
            "depth": parse_count(raw.get("depth", 4), "fock_spec 'depth'")})
    else:
        w = parse_algebra(payload.get("algebra", {}))
        data = ScenarioData(W=w)
        if kind == "jumps":
            jumps = []
            for entry in source["jumps"]:
                if not isinstance(entry, dict) or "matrix" not in entry:
                    raise ScenarioParseError(
                        "each jump needs 'matrix' (and optional 'omega')")
                v = parse_matrix(entry["matrix"])
                if v.shape != (w.n, w.n):
                    raise ScenarioParseError(
                        f"jump shape {v.shape} != algebra dim {w.n}")
                jumps.append((v, parse_real(entry.get("omega", 0.0), "omega")))
            data.system = JumpSystem(W=w, jumps=jumps)
        else:
            m = parse_matrix(source["generator"])
            if m.shape != (w.n ** 2, w.n ** 2):
                raise ScenarioParseError(
                    f"superoperator shape {m.shape} != ({w.n ** 2}, {w.n ** 2})")
            data.generator = Superoperator.from_matrix(m)

    checks = payload.get("checks", [])
    if not isinstance(checks, list) or not all(
            isinstance(c, str) for c in checks):
        raise ScenarioParseError("'checks' must be a list of suite names")
    for c in checks:
        if c not in SUITES:
            raise ScenarioParseError(f"unknown suite {c!r}")

    tol = DEFAULT_TOL
    overrides = payload.get("tolerances", {})
    if overrides:
        if not isinstance(overrides, dict):
            raise ScenarioParseError("'tolerances' must be an object")
        try:
            tol = tol.override(**{k: float(v) for k, v in overrides.items()})
        except (TypeError, ValueError, KeyError) as exc:
            raise ScenarioParseError(f"bad tolerance override: {exc}") from exc

    seed = parse_count(payload.get("seed", 0), "'seed'")
    data.name = str(payload.get("name", ""))
    return data, checks, tol, seed


def build_report(scenario, checks, seed):
    results = []
    for suite in checks:
        results.extend(run_suite(suite, scenario, seed))
    return {
        "v": SCHEMA_VERSION,
        "name": scenario.data.name,
        "checks": results,
        "environment": {
            "seed": seed,
            "tolerances": dict(sorted(scenario.tol.as_dict().items())),
            "version": __version__,
        },
        "overall_pass": all(c["pass"] for c in results),
    }


def render_text(report, elapsed):
    lines = [f"scenario: {report['name'] or '(unnamed)'}"]
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(
            f"  [{status}] {c['name']:<32s} residual {c['residual']:.3e}"
            f"  tol {c['tolerance']:.1e}"
        )
    lines.append("tolerances:")
    for k, v in report["environment"]["tolerances"].items():
        lines.append(f"  {k:<12s} {v:.3e}")
    lines.append(f"seed: {report['environment']['seed']}")
    lines.append(f"elapsed: {elapsed:.2f} s")
    lines.append("overall: " + ("PASS" if report["overall_pass"] else "FAIL"))
    return "\n".join(lines)


def emit_artifacts(scenario, out_dir):
    """Write reconstruction artifacts for scenarios that support them."""
    os.makedirs(out_dir, exist_ok=True)
    if scenario.data.system is None and scenario.data.generator is None:
        return []
    scenario.certified()
    system, l, gram = scenario.system, scenario.generator, scenario.gram
    written = []

    def dump(name, obj):
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
        written.append(path)

    def mat_json(m):
        m = np.asarray(m)
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]

    dump("jumps.json", {
        "jumps": [{"matrix": mat_json(v), "omega": float(om)}
                  for v, om in system.jumps],
        "pairing": list(map(int, system.pairing)),
    })
    dump("gram.json", {
        "rank": int(gram.rank),
        "eigenvalues": [float(x) for x in gram.qmap.eigenvalues],
    })
    dump("generator.json", {"matrix": mat_json(l.matrix)})
    return written


def cmd_run(args):
    try:
        with open(args.scenario) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        data, checks, tol, seed = parse_scenario(payload)
        if args.seed is not None:
            seed = parse_count(args.seed, "--seed")
        for item in args.tol or []:
            if "=" not in item:
                raise ScenarioParseError(f"--tol expects name=value, got {item!r}")
            k, v = item.split("=", 1)
            tol = tol.override(**{k: float(v)})
    except (ScenarioParseError, ValueError, KeyError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    scenario = Scenario(data, tol)
    t0 = time.monotonic()
    try:
        report = build_report(scenario, checks, seed)
        if args.emit:
            emit_artifacts(scenario, args.emit)
    except SizeLimitExceeded as exc:
        print(f"scenario error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QMSError as exc:
        print(f"check failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is internal
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    elapsed = time.monotonic() - t0

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(render_text(report, elapsed))
    return 0 if report["overall_pass"] else 1


def cmd_suites(_args):
    for name in suite_names():
        print(f"{name:<22s} {SUITES[name][1]}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="qms",
        description="numerical checks for GNS-symmetric Markov semigroups, "
                    "Dirichlet forms, bimodules and derivations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--json", help="write a machine-readable report here")
    p_run.add_argument("--emit", help="directory for reconstruction artifacts")
    p_run.add_argument("--tol", action="append",
                       help="override a tolerance, e.g. --tol axiom=1e-8")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_suites = sub.add_parser("suites", help="list available check suites")
    p_suites.set_defaults(func=cmd_suites)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
