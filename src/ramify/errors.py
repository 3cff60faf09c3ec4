"""Exception types shared across the library, and the document reader."""

from fractions import Fraction


class DomainError(ValueError):
    """A mathematically invalid input or an operation outside its domain.

    Raised for things like a non-prime characteristic, a disconnected cover
    whose conductor is requested, or a filtration that fails its invariants.
    The CLI maps this to exit code 1.
    """


class SchemaError(ValueError):
    """A malformed problem document (bad JSON shape, missing keys, ...).

    The CLI maps this to exit code 2.
    """


def json_int(x) -> int:
    """x itself if it is a JSON integer; SchemaError for anything else.

    int() would truncate 1.5 to 1 and read true as 1, so a malformed document
    would get an answer instead of a refusal.
    """
    if type(x) is int:  # bool is a subclass of int and is refused too
        return x
    raise SchemaError(f"expected an integer, got {x!r}")


def json_str(x) -> str:
    """x itself if it is a JSON string; SchemaError for anything else.

    str() would read 5 as "5", so a number where a name belongs would be
    accepted, or reported as invalid content instead of a malformed document.
    """
    if type(x) is str:
        return x
    raise SchemaError(f"expected a string, got {x!r}")


class reading:
    """A block that reads a document: what a malformed shape raises inside
    it becomes a SchemaError, with prefix in front of the raised message.

    A DomainError (well-formed content that is invalid) passes unchanged.  A
    SchemaError from a nested reader is wrapped too, so the outer prefix
    comes before the inner one.
    """

    __slots__ = ("prefix",)
    MALFORMED = (KeyError, TypeError, ValueError, AttributeError, IndexError,
                 ZeroDivisionError)

    def __init__(self, prefix: str = ""):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, self.MALFORMED) and not isinstance(exc, DomainError):
            raise SchemaError(f"{self.prefix}{exc}") from exc


def json_frac(x) -> Fraction:
    """num/den from a JSON pair [num, den] of integers; SchemaError for any
    other shape and for a zero denominator."""
    with reading():
        num, den = x
        return Fraction(json_int(num), json_int(den))


class PrecisionError(DomainError):
    """A series computation ran out of precision before a valuation was
    determined.  The tower oracle retries with doubled precision and only
    surfaces this once its cap is reached."""
