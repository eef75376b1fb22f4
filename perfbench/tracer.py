"""Layer spans for the traced benchmark run, recorded from outside the package.

The tracer replaces the coarse public functions of each ``bhfi`` module with
wrappers that record one span per call: an id, the id of the enclosing span,
the layer name, start and end on the shared monotonic clock, and a size.
It never wraps per-product calls such as ``mul_basis``; their work shows
through the sizes.  Spans stay in memory and are written as JSON lines when
the process ends; ``layer_metrics`` turns span files into self times.

Modules are looked up in ``sys.modules`` because ``bhfi.homology`` as an
attribute is the ``homology`` function, which the package ``__init__``
re-exports over the submodule.  Every ``bhfi.*`` namespace holding the
original function is patched, since modules such as ``bhfi.involutive`` bind
``box_tensor`` and friends locally.
"""
from __future__ import annotations

import json
import os
import sys
import time


def _generators(args, result):
    return len(result.generators)


def _ops(args, result):
    return len(args[0].ops)


def _mor_dim(args, result):
    return result.complex.dim


def _cancelled(args, result):
    return len(args[0].generators) - len(result.reduced.generators)


def _complex_dim(args, result):
    return args[0].dim


def _file_bytes(args, result):
    return os.path.getsize(args[0])


# layer -> (module, [(attribute, size function or None)])
LAYERS = {
    "strands.tables": ("bhfi.strands", [
        ("StrandsAlgebra.basis_between", None),
        ("StrandsAlgebra.mul_preimages", None),
        ("StrandsAlgebra.diff_preimages", None)]),
    "standard.build": ("bhfi.standard", [
        ("cfda_az", None), ("cfda_azbar", None), ("dd_identity", None),
        ("cfd_zero_handlebody", None), ("cfa_zero_handlebody", None),
        ("cfd_solid_torus", None)]),
    "files.load": ("bhfi.files", [
        ("load_structure", _file_bytes), ("structure_from_json", None)]),
    "structures.box_tensor": ("bhfi.structures", [
        ("box_tensor", _generators), ("box_tensor_DD_side", _generators)]),
    "structures.check": ("bhfi.structures", [("check_structure", _ops)]),
    "structures.mor_complex": ("bhfi.structures", [
        ("mor_complex_DD", _mor_dim)]),
    "structures.reduce": ("bhfi.structures", [
        ("reduce_structure", _cancelled)]),
    "homology.homology": ("bhfi.homology", [("homology", _complex_dim)]),
    "homology.express": ("bhfi.homology", [("express_in_homology", None)]),
    "equivalence.search": ("bhfi.equivalence", [
        ("find_homotopy_equivalence", None),
        ("find_structure_equivalence", None),
        ("search_small_equivalence", None)]),
    "involutive": ("bhfi.involutive", [
        ("iota_on_mor", None), ("cfi_hat", None), ("involutive_pair", None),
        ("mcg_action", None), ("standard_involutive_a", None),
        ("standard_involutive_d", None)]),
    "triangle": ("bhfi.triangle", [
        ("verify_hfi_triangle", None), ("build_triangle_data", None)]),
}

# Each call is one candidate equivalence whose cone is reduced.  It is
# counted, not timed: its time stays in the enclosing search span.
CANDIDATE = ("bhfi.equivalence", "_acyclic_cone_trace")

IMPORT_SPAN = "cli.import"


class Tracer:
    """Span recorder for one process; ``install`` patches the package."""

    def __init__(self):
        self.spans = []          # (id, parent, name, t0, t1, size)
        self.candidates = 0
        self._stack = []
        self._next = 0

    def span(self, name, t0, t1, size=None):
        """Record a span measured by the caller, such as the import."""
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self._next, parent, name, t0, t1, size))

    def _wrap(self, name, fn, size_of):
        stack, spans, clock = self._stack, self.spans, time.monotonic

        def traced(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            size = None
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, size))

        traced.__wrapped__ = fn
        return traced

    def _count_candidate(self, fn):
        def counted(*args, **kwargs):
            self.candidates += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Patch every wrapped function in every loaded ``bhfi`` module."""
        for name, (module, attrs) in LAYERS.items():
            mod = sys.modules[module]
            for attr, size_of in attrs:
                owner, leaf = mod, attr
                if "." in attr:
                    cls, leaf = attr.split(".")
                    owner = getattr(mod, cls)
                fn = getattr(owner, leaf)
                wrapped = self._wrap(name, fn, size_of)
                if owner is mod:
                    _patch_namespaces(fn, wrapped)
                else:
                    setattr(owner, leaf, wrapped)
        module, attr = CANDIDATE
        fn = getattr(sys.modules[module], attr)
        _patch_namespaces(fn, self._count_candidate(fn))

    def write(self, path, extra_counters=()):
        """Append this process's spans and counters to a JSON-lines file."""
        pid = os.getpid()
        with open(path, "a") as fh:
            for sid, parent, name, t0, t1, size in self.spans:
                fh.write(json.dumps({"pid": pid, "id": sid, "parent": parent,
                                     "name": name, "t0": t0, "t1": t1,
                                     "size": size}) + "\n")
            counters = {"equivalence.candidates": self.candidates,
                        "strands.products": products_computed()}
            counters.update(extra_counters)
            fh.write(json.dumps({"pid": pid, "counters": counters}) + "\n")


def _patch_namespaces(original, wrapped):
    for modname, mod in list(sys.modules.items()):
        if modname != "bhfi" and not modname.startswith("bhfi."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def products_computed():
    """Distinct basis products computed so far, read from the algebras."""
    strands = sys.modules["bhfi.strands"]
    return sum(len(alg._mul_cache) for alg in strands._ALGEBRAS.values())


# ---------------------------------------------------------------------------
# span files -> per-layer metrics

SELF_TIME_LAYERS = tuple(LAYERS)

SIZE_METRICS = {"structures.box_tensor": "structures.box_tensor.generators",
                "structures.check": "structures.check.ops",
                "structures.mor_complex": "structures.mor_complex.dim",
                "structures.reduce": "structures.reduce.cancelled",
                "homology.homology": "homology.homology.dim",
                "files.load": "files.load.bytes"}

CALL_METRICS = ("structures.box_tensor", "structures.reduce")


def read_spans(paths):
    """Spans and summed counters from JSON-lines span files."""
    spans, counters = [], {}
    for path in paths:
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if "counters" in rec:
                    for key, value in rec["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    spans.append(rec)
    return spans, counters


def layer_metrics(spans, counters, wall_s):
    """Per-layer self times, calls and sizes; ``other.self_s`` is the part
    of ``wall_s`` that no span covers, so the self times add up to it."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["pid"], s["parent"])
            child_time[key] = child_time.get(key, 0.0) + s["t1"] - s["t0"]
    self_s = {name: 0.0 for name in SELF_TIME_LAYERS + (IMPORT_SPAN,)}
    calls, sizes = {}, {}
    searches = 0
    by_id = {(s["pid"], s["id"]): s for s in spans}
    for s in spans:
        name = s["name"]
        self_s[name] += (s["t1"] - s["t0"]
                         - child_time.get((s["pid"], s["id"]), 0.0))
        calls[name] = calls.get(name, 0) + 1
        if s["size"] is not None:
            sizes[name] = sizes.get(name, 0) + s["size"]
        if name == "equivalence.search":
            parent = by_id.get((s["pid"], s["parent"]))
            if parent is None or parent["name"] != "equivalence.search":
                searches += 1
    candidates = counters.get("equivalence.candidates", 0)
    out = {f"{name}.self_s": self_s[name] for name in SELF_TIME_LAYERS}
    out["cli.import_s"] = self_s[IMPORT_SPAN]
    out["other.self_s"] = wall_s - sum(self_s.values())
    out["strands.products"] = counters.get("strands.products", 0)
    for layer, metric in SIZE_METRICS.items():
        out[metric] = sizes.get(layer, 0)
    for layer in CALL_METRICS:
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["equivalence.searches"] = searches
    out["equivalence.candidates"] = candidates
    out["equivalence.hit_ratio"] = searches / candidates if candidates else 0.0
    return out

