"""The package names the traced benchmark run wraps must keep resolving.

``perfbench/tracer.py`` patches functions by (module, attribute); a rename
or deletion in the package would otherwise surface only as a crash of a
traced benchmark run.
"""
import importlib
import importlib.util
import os
import sys

import pytest

from bhfi import algebra, split_pmc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracer():
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()
WRAPPED = sorted({(module, attr)
                  for module, attrs in TRACER.LAYERS.values()
                  for attr, _ in attrs} | {TRACER.CANDIDATE})


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
