"""The frozen value records, and what importing the package loads.

``bhfi._record.record`` stands in for ``@dataclass(frozen=True)``, so its
equality, hashing and ``repr`` are checked against real dataclasses with
the same fields.  Hashes feed set and dict orders, and with them report
bytes, so they must be the dataclass hashes exactly.
"""
import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from bhfi import (AlgebraElement, ChainComplex, F2Matrix, Morphism,
                  PointedMatchedCircle, algebra, identity_morphism,
                  split_pmc)
from bhfi._record import record
from bhfi.homology import HomologyData

from test_benchmark_surface import ROOT, TRACER


def twin(obj):
    """A frozen dataclass of the same name and fields holding obj's
    values."""
    names = tuple(type(obj).__annotations__)
    cls = dataclasses.make_dataclass(type(obj).__name__, names, frozen=True)
    return cls(*(getattr(obj, n) for n in names))


@pytest.fixture(scope="module")
def samples(z2, cfd0):
    """Two separately built, equal instances of each record, and one that
    differs from them."""
    alg = algebra(z2)
    d = F2Matrix(2, 2, (0, 1))
    return {
        PointedMatchedCircle: (split_pmc(2), PointedMatchedCircle(
            2, ((2, 4), (1, 3), (5, 7), (6, 8))), split_pmc(2).reverse()),
        AlgebraElement: (AlgebraElement(z2, {alg.basis[0], alg.basis[1]}),
                         AlgebraElement(z2, [alg.basis[1], alg.basis[0]]),
                         AlgebraElement(z2, {alg.basis[0]})),
        F2Matrix: (F2Matrix(2, 3, (1, 2, 3)), F2Matrix(2, 3, [5, 6, 7]),
                   F2Matrix(2, 3)),
        Morphism: (identity_morphism(cfd0), identity_morphism(cfd0),
                   Morphism(cfd0, cfd0)),
        ChainComplex: (ChainComplex(("a", "b"), d),
                       ChainComplex(["a", "b"], d, q=None),
                       ChainComplex(("a", "c"), d)),
    }


CLASSES = [PointedMatchedCircle, AlgebraElement, F2Matrix, Morphism,
           ChainComplex]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestRecordSemantics:
    def test_equal_fields_are_equal(self, samples, cls):
        a, b, c = samples[cls]
        assert a is not b
        assert a == b and not a != b
        assert a != c and not a == c

    def test_hash_is_the_dataclass_hash(self, samples, cls):
        a, b, c = samples[cls]
        assert hash(a) == hash(b) == hash(twin(a))
        assert hash(c) == hash(twin(c))

    def test_another_class_is_never_equal(self, samples, cls):
        a = samples[cls][0]
        copy = twin(a)
        assert a != copy and copy != a
        names = tuple(cls.__annotations__)
        same_fields = record(type(cls.__name__, (), {
            "__annotations__": dict.fromkeys(names, object)}))
        assert a != same_fields(*(getattr(a, n) for n in names))

    def test_assignment_raises(self, samples, cls):
        a = samples[cls][0]
        for name in cls.__annotations__:
            value = getattr(a, name)
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(a, name, value)
            with pytest.raises(AttributeError, match="or delete field"):
                delattr(a, name)
            assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            a.extra = 1


def test_repr_is_the_dataclass_repr():
    m = F2Matrix(2, 3, (1, 2, 3))
    assert repr(m) == "F2Matrix(nrows=2, ncols=3, cols=(1, 2, 3))"
    h = HomologyData(1, (3,))
    assert repr(h) == repr(twin(h)) == \
        "HomologyData(dimension=1, cycles=(3,))"


def test_a_repr_of_its_own_is_kept(z1):
    assert repr(z1) == "PMC(k=1)"
    assert repr(AlgebraElement(z1)) == "0"


def test_arguments_by_position_keyword_and_default(cfd0):
    assert F2Matrix(2, 2) == F2Matrix(ncols=2, nrows=2) == \
        F2Matrix(2, 2, cols=(0, 0))
    assert Morphism(cfd0, cfd0).comps == frozenset()
    for args, kwargs in (((2,), {}), ((1, 1, (0,), 0), {}),
                         ((1, 1), {"nrows": 1}), ((1, 1), {"rows": 1})):
        with pytest.raises(TypeError, match=re.escape(
                "F2Matrix takes the fields ('nrows', 'ncols', 'cols')")):
            F2Matrix(*args, **kwargs)


_CIRCLE_HASH = """
from bhfi import PointedMatchedCircle, split_pmc
print(hash(split_pmc(3)), hash(split_pmc(2).reverse()),
      hash(PointedMatchedCircle(1, ((1, 2), (3, 4)))))
"""


def test_circle_hash_is_the_same_across_hash_seeds():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = [subprocess.run([sys.executable, "-c", _CIRCLE_HASH],
                           env=dict(env, PYTHONHASHSEED=seed),
                           capture_output=True, text=True, check=True).stdout
            for seed in ("0", "1")]
    assert runs[0] == runs[1] and len(runs[0].split()) == 3


def test_cli_import_leaves_out_dataclasses():
    # Every bhfi process imports the package, so each module it loads is
    # paid on every CLI call; dataclasses brings inspect, ast, dis and
    # tokenize along, and argparse brings gettext.  The traced benchmark
    # looks up the modules whose functions it wraps in sys.modules, the
    # deferred bhfi.files among them.
    done = subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, sys, bhfi.cli; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True)
    loaded = set(json.loads(done.stdout))
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "argparse" not in loaded and "gettext" not in loaded
    assert "bhfi.files" in loaded
    wrapped = {module for module, _ in TRACER.LAYERS.values()}
    assert wrapped <= loaded
    assert wrapped >= {"bhfi.equivalence", "bhfi.involutive", "bhfi.triangle"}
