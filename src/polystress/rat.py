"""Exact rational arithmetic backend.

Everything in this package computes over the rationals.  `Rat` is
`gmpy2.mpq` when gmpy2 is importable and `fractions.Fraction`
otherwise; both keep values in lowest terms with a positive
denominator, hash identically, and interoperate with Python ints.
Code elsewhere must never divide two bare ints.
"""

from __future__ import annotations

from .errors import ParseError

try:
    from gmpy2 import mpq as Rat  # type: ignore
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

R0 = Rat(0)
R1 = Rat(1)


def rat(a, b=1) -> Rat:
    """Build a rational from an int pair or pass an existing Rat through."""
    if b == 1:
        if isinstance(a, int):
            return Rat(a)
        return a if type(a) is type(R0) else Rat(a)
    return Rat(a, b)


def rat_str(x) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    n, d = x.numerator, x.denominator
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def parse_rat(text: str, where: str = "") -> Rat:
    """Parse "p" or "p/q" with a nonzero denominator.

    `where` names the document location for error messages.
    """
    if not isinstance(text, str):
        raise ParseError(f"{where}: rational must be a string, got {type(text).__name__}")
    parts = text.split("/")
    if len(parts) > 2 or not parts[0]:
        raise ParseError(f"{where}: malformed rational {text!r}")
    try:
        num = int(parts[0])
        den = int(parts[1]) if len(parts) == 2 else 1
    except ValueError:
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
