"""The builtin structures: the framed solid tori, built here, and the
pieces of every genus from ``pieces`` (the type D handlebody, az), ``dd``
(the DD identity) and ``typea`` (the A-infinity handlebody, azbar), all
named in one table, ``_BUILTINS``, which ``BUILTIN_NAMES``,
``builtin_structure`` and ``dump-standard`` read."""
from __future__ import annotations

import sys

from . import _forward
from .errors import ParseError
from .strands import algebra, split_pmc
from .structures import TypeDStructure

# old homes, read by _BUILTINS below and patched by perfbench/tracer.py
__getattr__ = _forward(__name__, dd="dd_identity", typea="cfa_zero_handlebody "
                       "cfda_azbar", pieces="cfd_zero_handlebody cfda_az")


def torus_chord(i, j):
    """Genus-1 chord as a single diagram (no completions exist)."""
    return algebra(split_pmc(1)).diagram([(i, j)])


def cfd_solid_torus(framing):
    """Type D structures of the three solid-torus framings.

    infinity: one generator r with a degree-one self operation through the
    even chord; minus_one: two generators a, b; zero: one generator n.
    """
    z1 = split_pmc(1)
    if framing == "infinity":
        return TypeDStructure(z1, [("r", {2})],
                              [("r", torus_chord(2, 4), "r")])
    if framing == "minus_one":
        return TypeDStructure(z1, [("a", {1}), ("b", {2})],
                              [("a", torus_chord(1, 2), "b"),
                               ("a", torus_chord(3, 4), "b")])
    if framing == "zero":
        return TypeDStructure(z1, [("n", {1})],
                              [("n", torus_chord(1, 3), "n")])
    raise ValueError("framing must be one of infinity, minus_one, zero")


# name -> (builder read from this module, its argument); for a genus family
# "..._k{n}" the argument is a function of the genus n.  Builders are
# looked up by name on each call, so a wrapped builder is the one called.
_BUILTINS = {
    "cfd_inf": ("cfd_solid_torus", "infinity"),
    "cfd_m1": ("cfd_solid_torus", "minus_one"),
    "cfd0": ("cfd_solid_torus", "zero"),
    "cfd0_k{n}": ("cfd_zero_handlebody", int),
    "cfa0_k{n}": ("cfa_zero_handlebody", int),
    "ddid_k{n}": ("dd_identity", split_pmc),
    "az_k{n}": ("cfda_az", split_pmc),
    "azbar_k{n}": ("cfda_azbar", split_pmc),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_structure(name):
    """Structures addressable by name on the command line; a genus is
    written in ASCII digits with no leading zero."""
    for pattern, (builder, arg) in _BUILTINS.items():
        prefix, family, _ = pattern.partition("{n}")
        if family and name.startswith(prefix):
            tail = name[len(prefix):]
            if not (tail.isascii() and tail.isdigit()) or tail[0] == "0":
                raise ParseError(f"bad genus in builtin name {name!r}")
            arg = arg(int(tail))
        elif name != pattern:
            continue
        return getattr(sys.modules[__name__], builder)(arg)
    raise ParseError(f"unknown builtin {name!r}")
