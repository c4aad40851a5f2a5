"""Exact rational arithmetic backend.

Everything in this package computes over the rationals.  `Rat` is
`gmpy2.mpq` when gmpy2 is importable and `fractions.Fraction`
otherwise; both keep values in lowest terms with a positive
denominator, hash identically, and interoperate with Python ints.
Code elsewhere must never divide two bare ints.
"""

from __future__ import annotations

import re

from .errors import InvalidArgument, ParseError

try:
    from gmpy2 import mpq as Rat  # type: ignore
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

R0 = Rat(0)
R1 = Rat(1)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(a, b=1) -> Rat:
    """Build a rational from an int pair or pass an existing Rat through."""
    if b == 1:
        if type(a) is int:
            return Rat(a)
        if type(a) is type(R0):
            return a
        if isinstance(a, (bool, float)):
            raise InvalidArgument(f"{a!r} is a {type(a).__name__}; use ints or rationals")
        return Rat(a)
    return Rat(a, b)


def rat_str(x) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def parse_rat(text: str, where: str = "") -> Rat:
    """Parse "p" or "p/q" (ASCII digits, "-" only in front), q nonzero.

    `where` names the document location for error messages.
    """
    if not isinstance(text, str):
        raise ParseError(f"{where}: rational must be a string, got {type(text).__name__}")
    m = _RATIONAL.fullmatch(text)
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except (TypeError, ValueError):  # no match, or more digits than int() takes
        raise ParseError(f"{where}: malformed rational {text!r}") from None
    if den == 0:
        raise ParseError(f"{where}: zero denominator in {text!r}")
    return Rat(num, den)


def sign(x) -> int:
    """-1, 0, or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0
