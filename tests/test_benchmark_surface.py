"""The package names the benchmark reads must keep resolving.

``perfbench/tracer.py`` patches functions by (module, attribute), and
``perfbench/workloads.py`` calls ``bhfi.<name>`` and names it imports from
``bhfi`` modules; a rename or deletion in the package would otherwise
surface only as a crash or a failed job of a benchmark run.
"""
import ast
import importlib
import importlib.util
import json
import os
import sys
import time

import pytest

from bhfi import algebra, split_pmc
from test_cli import run_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_names():
    """The (module, attribute) pairs that ``perfbench/workloads.py`` reads
    from the package: ``bhfi.<name>`` and ``from bhfi... import <name>``."""
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "bhfi":
            names.add(("bhfi", node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "bhfi":
            names |= {(node.module, alias.name) for alias in node.names}
    return names


TRACER = load_tracer()
WRAPPED = sorted({(module, attr)
                  for module, attrs in TRACER.LAYERS.values()
                  for attr, _ in attrs} | {TRACER.CANDIDATE}
                 | workload_names())


@pytest.mark.parametrize("module,attr", WRAPPED,
                         ids=[f"{m}:{a}" for m, a in WRAPPED])
def test_wrapped_attribute_resolves(module, attr):
    importlib.import_module(module)
    owner = sys.modules[module]
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_product_counter_reads_the_algebras():
    before = TRACER.products_computed()
    alg = algebra(split_pmc(1))
    assert isinstance(alg._mul_cache, dict)
    alg.mul_basis(alg.basis[-1], alg.basis[-1])
    assert TRACER.products_computed() >= max(before, 1)


def test_traced_cli_child_installs_over_lazy_submodules(tmp_path):
    # cli_child imports bhfi.cli, whose deferred submodules are not yet
    # executed, and then patches all of them through sys.modules
    code, out, err = run_python(
        [os.path.join(ROOT, "perfbench", "cli_child.py"),
         "hfhat", "--builtin", "cfd0", "--builtin", "cfd_inf"],
        PERFBENCH_T0=repr(time.monotonic()), PERFBENCH_SPAN_DIR=str(tmp_path))
    assert (code, out) == (0, '{"hf_dim": 1}\n'), err
    (span_file,) = tmp_path.glob("*.jsonl")
    records = [json.loads(line)
               for line in span_file.read_text().splitlines()]
    assert any("counters" in rec for rec in records)


def traced_counts(tmp_path, argv):
    """The spans per layer, with the products counter, and the candidate
    count of one traced command."""
    code, out, err = run_python(
        [os.path.join(ROOT, "perfbench", "cli_child.py"), *argv],
        PERFBENCH_T0=repr(time.monotonic()), PERFBENCH_SPAN_DIR=str(tmp_path))
    assert code == 0, err
    (span_file,) = tmp_path.glob("*.jsonl")
    counts, candidates = {}, None
    for line in span_file.read_text().splitlines():
        rec = json.loads(line)
        if "counters" in rec:
            candidates = rec["counters"]["equivalence.candidates"]
            counts["strands.products"] = rec["counters"]["strands.products"]
        else:
            counts[rec["name"]] = counts.get(rec["name"], 0) + 1
    return counts, candidates


# the traced layers of a command on the type D route, of one on the type
# A side and of the two az_k2 checks, whose preimage tables the tracer
# wraps on StrandsAlgebra: the tracer patches functions by name, so a
# function moved out of its home module that it missed would read 0 here
TRACED = [
    (["hfihat", "--builtin", "cfd0", "--builtin", "cfd_m1"],
     {"structures.reduce": 2, "structures.box_tensor": 2,
      "structures.mor_complex": 3, "structures.check": 2,
      "equivalence.search": 2, "involutive": 1}, 2),
    (["mcg", "--builtin", "cfa0_k1", "--builtin", "cfd0", "--builtin",
      "az_k1", "--builtin", "azbar_k1"],
     {"structures.reduce": 7, "structures.box_tensor": 10,
      "structures.mor_complex": 2, "equivalence.search": 4}, 3),
    (["verify", "--builtin", "az_k2"],
     {"standard.build": 1, "strands.tables": 476, "structures.check": 1,
      "strands.products": 5286}, 0),
    (["verify", "fixtures/az_k2.json"],
     {"files.load": 2, "strands.tables": 476, "structures.check": 1,
      "strands.products": 5286}, 0),
]


@pytest.mark.parametrize("argv, spans, candidates", TRACED,
                         ids=["hfihat", "mcg", "verify builtin az_k2",
                              "verify az_k2 file"])
def test_tracer_sees_every_moved_function(tmp_path, argv, spans,
                                          candidates):
    counts, seen = traced_counts(tmp_path, argv)
    assert {name: counts.get(name, 0) for name in spans} == spans
    assert seen == candidates
