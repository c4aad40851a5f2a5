"""Exact rational arithmetic.

Everything in this package computes over the rationals.  `Rat` is
`fractions.Fraction`: values stay in lowest terms with a positive
denominator and interoperate with Python ints.  Code elsewhere must
never divide two bare ints.
"""

from __future__ import annotations

import re
from fractions import Fraction as Rat

from .errors import InvalidArgument, ParseError

R0 = Rat(0)
R1 = Rat(1)

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rat(a, b=1) -> Rat:
    """Build a rational from an int pair or pass an existing Rat through.

    A lone argument must be an int or a Rat, as in `exactla`; bools,
    floats, strings and every other type raise InvalidArgument.
    """
    if b == 1:
        if type(a) is int:
            return Rat(a)
        if type(a) is Rat:
            return a
        raise InvalidArgument(f"{a!r} is a {type(a).__name__}; use ints or rationals")
    return Rat(a, b)


def rat_str(x) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def elided(text: str) -> str:
    """repr(text), or for a text over 24 characters the repr of its
    first and last 8 around "..." and its length, so an error line
    that quotes it stays short."""
    if len(text) <= 24:
        return repr(text)
    return repr(f"{text[:8]}...{text[-8:]}") + f" ({len(text)} characters)"


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
        what = "malformed rational" if m is None else "too many digits in rational"
        raise ParseError(f"{where}: {what} {elided(text)}") from None
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
