"""Frozen value records, built without the ``dataclasses`` module.

``record`` gives a class what ``@dataclass(frozen=True)`` gave it, read
from the class annotations: an ``__init__`` that takes the fields by
position or keyword, with the class-level values as defaults, and then
calls ``__post_init__``; ``__eq__`` (instances of the same class only) and
``__hash__`` over the tuple of fields (records here have two or more, so
the hash is the dataclass hash); the dataclass ``__repr__``; and an
``AttributeError`` on assignment or deletion.  Methods the class defines
itself are kept.  ``dataclasses`` imports ``inspect`` and compiles every
generated method with ``exec``, a cost each fresh process pays again.
"""
from operator import attrgetter

_set = object.__setattr__


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def record(cls):
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    values = attrgetter(*names)     # a tuple for two or more fields
    post_init = getattr(cls, "__post_init__", None)

    def arguments(args, kwargs):
        """The field values in order, from the arguments and the defaults."""
        given = dict(zip(names, args))
        fields = {**defaults, **given, **kwargs}
        if len(args) > len(names) or fields.keys() != set(names) or \
           not given.keys().isdisjoint(kwargs):
            raise TypeError(f"{cls.__qualname__} takes the fields {names}, "
                            f"not {len(args)} by position and "
                            f"{sorted(kwargs)} by keyword")
        return [fields[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = arguments(args, kwargs)
        # one by one: touching self.__dict__ would give the instance a
        # dict of its own, and every attribute read would be slower
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{n}={getattr(self, n)!r}" for n in names) + ")")

    for name, method in (("__init__", __init__), ("__eq__", __eq__),
                         ("__repr__", __repr__), ("__setattr__", _frozen),
                         ("__delattr__", _frozen)):
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    return cls
