"""Exception types shared across the package, and the size cap that
DivergenceError enforces."""

import os


def generator_cap():
    """The largest object a stage may build: ``BHFI_MAX_GENERATORS``, in
    ASCII decimal digits only (no sign, space or underscore)."""
    text = os.environ.get("BHFI_MAX_GENERATORS", "200000")
    if not (text.isascii() and text.isdigit()):
        raise ParseError("BHFI_MAX_GENERATORS must be a decimal integer, "
                         f"not {text!r}")
    return int(text)


def size_text(size, lower_bound=False):
    """``size`` in decimal, after "at least " when it only bounds the real
    size below.  Past 100 digits, "at least 10^e" with e its digits less
    one: a longer decimal says no more, and Python refuses to print ints
    past 4,300 digits."""
    if size < 10 ** 100:
        return f"at least {size}" if lower_bound else str(size)
    e = (size.bit_length() - 1) * 30102 // 100000    # at most log10(size)
    while 10 ** (e + 1) <= size:
        e += 1
    return f"at least 10^{e}"


def refuse_past_cap(stage, size, what, lower_bound=False):
    """Raise DivergenceError, naming ``stage``, if ``size`` passes the cap;
    ``lower_bound`` says that ``size`` only bounds the real size below."""
    cap = generator_cap()
    if size > cap:
        raise DivergenceError(f"{stage}: {size_text(size, lower_bound)} "
                              f"{what} exceed BHFI_MAX_GENERATORS={cap}")


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
