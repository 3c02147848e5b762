"""Source-level rules of the package layout."""

import ast
import glob
import inspect
import json
import os
import re
import sys

import numpy as np

import qms.errors
from qms.cli import main
from qms.lindblad import JumpSystem, build_generator
from qms.modular import WeightedAlgebra
from qms.suites import suite_names

from test_cli import mat_json
from test_tracer_names import load_tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qms")


def test_only_modular_reads_the_density_eigenvectors():
    """The modular eigenbasis of h is chosen in one module: every other layer
    maps through ``WeightedAlgebra.to_eig``/``from_eig`` instead of reading
    the density's eigenvectors."""
    readers = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            source = fh.read()
        if os.path.basename(path) != "modular.py" and re.search(
                r"\.eig\.eigenvectors", source):
            readers.append(os.path.basename(path))
    assert readers == []


def test_every_error_is_raised():
    """Every exception class of ``qms.errors`` but the base ``QMSError`` is
    named in a ``raise`` statement of the package: none is left behind with
    nothing raising it."""
    raised = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    errors = {name for name, obj in vars(qms.errors).items()
              if inspect.isclass(obj) and issubclass(obj, qms.errors.QMSError)
              and obj is not qms.errors.QMSError}
    assert errors - raised == set()


# Public names that no ``qms run`` reaches, each with the reason it stays
UNREACHED = {
    "modular.TomitaData.modular_group": "Tracer.summary reads its span",
    "fock.TruncatedFock.creation": "Tracer.summary reads its span",
    "numkernel.null_quotient": "Tracer.summary reads its span",
    "reconstruct.GramSpace.op_group": "Tracer.summary reads its span",
    "lindblad.extract_alicki": "a public entry point; Scenario calls "
        "_extract_certified with its cached certificate instead",
}


def _public_callables(tracer):
    """{code object: span name} of every public function and method of the
    tracer's layer modules, as ``Tracer`` names them, classmethods included."""
    out = {}
    for layer in tracer.LAYERS:
        module = sys.modules[f"qms.{layer}"]
        for name in tracer._public_names(module):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[obj.__code__] = f"{layer}.{name}"
            elif inspect.isclass(obj):
                for attr, meth in vars(obj).items():
                    fn = getattr(meth, "__func__", meth)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        out[fn.__code__] = f"{layer}.{name}.{attr}"
    return out


def _reach_scenarios():
    """(scenario, extra argv) covering every suite, both sources, a fock_spec,
    a tolerances override and --emit."""
    log2 = float(np.log(2.0))
    h = [[2 / 3, 0], [0, 1 / 3]]
    jumps = [(np.array([[0, 0], [1, 0]]), log2), (np.array([[0, 1], [0, 0]]), -log2),
             (np.diag([0.5, -0.5]), 0.0)]
    gen = build_generator(JumpSystem(W=WeightedAlgebra(np.array(h)), jumps=jumps))
    non_fock = [s for s in suite_names() if not s.startswith(("fock", "free"))]
    return [
        ({"algebra": {"h": h}, "tolerances": {"axiom": 1e-9},
          "source": {"jumps": [{"matrix": mat_json(v), "omega": om} for v, om in jumps]},
          "checks": non_fock + ["fock-commutant"]}, []),
        ({"algebra": {"h": h}, "source": {"generator": mat_json(gen.matrix)},
          "checks": non_fock}, ["--emit", "emit"]),
        # I A I = A^{-1}: the commutation condition of the free model
        ({"source": {"fock_spec": {"A": [[1.5, 0], [0, 1 / 1.5]],
                                   "I": [[0, 1], [1, 0]], "depth": 3}},
          "checks": ["free-aw-derivation"]}, []),
    ]


def test_public_api_is_reached(tmp_path, monkeypatch, capsys):
    """Every public function and method of the layer modules is called by
    ``qms run`` over a fixed set of small scenarios, or named in
    ``UNREACHED`` with its reason."""
    targets = _public_callables(load_tracer())
    monkeypatch.chdir(tmp_path)
    runs = []
    for k, (scenario, extra) in enumerate(_reach_scenarios()):
        path = tmp_path / f"s{k}.json"
        path.write_text(json.dumps({"v": 1, "name": f"reach-{k}", **scenario}))
        runs.append(["run", str(path), "--json", f"s{k}.report.json", *extra])
    runs.append(["suites"])
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(runs), capsys.readouterr()
    missed = {name for code, name in targets.items() if code not in called}
    assert missed == set(UNREACHED)
