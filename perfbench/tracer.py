"""Span tracing of the qms layers from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
every public method of their public classes, with a wrapper that records a
span: name, op id, parent span, start, end, and the matrix side (and, for
``null_quotient``, the kept rank).  A function is replaced in every ``qms``
module namespace that binds it, so calls through ``from ... import`` are
counted too.  Spans stay in memory; ``summary`` turns them into per-layer
metrics and ``write`` dumps them when the run ends.
"""

import functools
import gzip
import inspect
import sys
import time

LAYERS = ("numkernel", "modular", "lindblad", "bimodule", "reconstruct",
          "fock", "suites", "cli")

_SIDE_OF_ARG0 = {"numkernel.herm_eig", "numkernel.null_quotient"}


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [k for k in vars(module) if not k.startswith("_")]
    return names


def _targets():
    """(span name, owner, attribute, function) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"qms.{layer}"]
        for name in _public_names(module):
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{name}", module, name, obj))
            elif inspect.isclass(obj):
                for attr, meth in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(meth):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, meth))
    return out


class Tracer:
    """Records spans of the wrapped calls while installed."""

    def __init__(self):
        self.names = []        # span name per name id
        self.spans = []        # (name id, op id, parent index, t0, t1, side, rank)
        self.op = -1
        self._stack = []
        self._patches = []
        for span_name, owner, attr, fn in _targets():
            wrapper = self._wrap(len(self.names), span_name, fn)
            self.names.append(span_name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "qms" or mod_name.startswith("qms.")) and \
                        vars(mod).get(attr) is fn:
                    self._patches.append((mod, attr, fn, wrapper))

    def _wrap(self, name_id, span_name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        side_of_arg0 = span_name in _SIDE_OF_ARG0
        is_quotient = span_name == "numkernel.null_quotient"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                side = len(args[0]) if side_of_arg0 and args else 0
                rank = out.rank if is_quotient and out is not None else 0
                spans[idx] = (name_id, self.op, parent, t0, t1, side, rank)
        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def summary(self, n_passes):
        """Per-layer metrics per traced pass of the op list."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        ops_reaching = [set() for _ in range(n_names)]
        child = [0.0] * len(self.spans)
        for name_id, op, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        work_n3 = max_side = rank_sum = quotient_side = 0
        for i, (name_id, op, _, t0, t1, side, rank) in enumerate(self.spans):
            calls[name_id] += 1
            self_s[name_id] += (t1 - t0) - child[i]
            ops_reaching[name_id].add(op)
            name = self.names[name_id]
            if name == "numkernel.herm_eig":
                work_n3 += side ** 3
                max_side = max(max_side, side)
            elif name == "numkernel.null_quotient":
                rank_sum += rank
                quotient_side += side
        by_name = {n: i for i, n in enumerate(self.names)}

        def count(name):
            return calls[by_name[name]] / n_passes

        def secs(name):
            return self_s[by_name[name]] / n_passes

        def per_op(name):
            i = by_name[name]
            return calls[i] / len(ops_reaching[i]) if ops_reaching[i] else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.names)
                   if n.startswith(layer + ".")]
            put(f"{layer}.calls", sum(calls[i] for i in ids) / n_passes, "count")
            put(f"{layer}.self_s", sum(self_s[i] for i in ids) / n_passes, "s")

        for name in ("numkernel.herm_eig", "numkernel.choi",
                     "modular.WeightedAlgebra.op_matrix",
                     "modular.TomitaData.modular_group",
                     "lindblad.certify", "lindblad.extract_alicki",
                     "bimodule.carre_du_champ",
                     "reconstruct.build_gram_space",
                     "reconstruct.stinespring_route",
                     "fock.TruncatedFock.creation"):
            put(f"{name}.calls", count(name), "count")
            put(f"{name}.self_s", secs(name), "s")
        for name in ("numkernel.null_quotient", "numkernel.as_cmatrix",
                     "lindblad.semigroup", "lindblad.dirichlet_form",
                     "bimodule.FinBimodule.conj",
                     "reconstruct.GramSpace.op_group"):
            put(f"{name}.calls", count(name), "count")
        for name in ("bimodule.FinBimodule.axioms_check",
                     "bimodule.Derivation.check",
                     "reconstruct.gram_axioms_check",
                     "reconstruct.uniqueness_isometry",
                     "fock.fock_build",
                     "fock.TruncatedFock.commutant_check",
                     "fock.free_aw", "suites.run_suite", "cli.parse_scenario"):
            put(f"{name}.self_s", secs(name), "s")
        for name in ("lindblad.certify", "reconstruct.build_gram_space"):
            put(f"{name}.per_op", per_op(name), "calls/op")
        put("numkernel.herm_eig.work_n3", work_n3 / n_passes, "count")
        put("numkernel.herm_eig.max_side", max_side, "rows")
        put("numkernel.null_quotient.rank_ratio",
            rank_sum / quotient_side if quotient_side else 0.0, "ratio")
        return m

    def write(self, path):
        """Dump the spans as gzipped CSV: name,op,parent,t0,t1,side,rank."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,op,parent,t0,t1,side,rank\n")
            for name_id, op, parent, t0, t1, side, rank in self.spans:
                fh.write(f"{self.names[name_id]},{op},{parent},{t0!r},{t1!r},"
                         f"{side},{rank}\n")
