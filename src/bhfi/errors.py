"""Exception types shared across the package, and the size cap that
DivergenceError enforces."""

import os


def generator_cap():
    """The largest object a stage may build: ``BHFI_MAX_GENERATORS``."""
    return int(os.environ.get("BHFI_MAX_GENERATORS", "200000"))


def refuse_past_cap(stage, size, what):
    """Raise DivergenceError, naming ``stage``, if ``size`` passes the cap."""
    cap = generator_cap()
    if size > cap:
        raise DivergenceError(f"{stage}: {size} {what} exceed "
                              f"BHFI_MAX_GENERATORS={cap}")


class BhfiError(Exception):
    """Base class for package errors."""


class ParseError(BhfiError):
    """A file or JSON payload could not be decoded into a structure."""


class RelationViolation(BhfiError):
    """A structure or morphism failed its defining relations."""


class NotEquivalentError(BhfiError):
    """An exhaustive equivalence search ended without a certificate."""


class DivergenceError(BhfiError):
    """An iteration that should terminate (bounded inputs) did not."""


class InsufficientArityError(BhfiError):
    """A bounded verification was requested below the sound arity bound."""
