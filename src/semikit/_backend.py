"""The rational representation and the integer kernels built on it.

Every exact value in this library is a ``fractions.Fraction`` in lowest
terms. ``RAT`` names that type for the rest of the package, and
``BACKEND`` reports it.

Element-wise Fraction arithmetic runs a gcd on every add and multiply.
Sequences of rationals therefore go through the scaled form of
:func:`scaled_ints` instead: integers over one common denominator, the
lcm of the entries' denominators. That form is canonical: gcd(den, *ints)
is 1, so two sequences are equal exactly when their forms are.
:func:`scaled_dot` sums integer products and builds one Fraction (one gcd)
per output; :func:`scaled_add` and :func:`scaled_scale` return a form in
lowest terms with one gcd per result; :func:`unscaled` gives the entries
back as Fractions. :func:`random_form` draws a form with the same random
calls as per-entry ``randint`` draws, with no Fraction per entry.

Literals are bounded: an integer part longer than ``MAX_LITERAL_DIGITS``
is refused with ParseError, whatever the interpreter's own string limit.
"""

import math
import re
from fractions import Fraction
from operator import mul

from .errors import ParseError

__all__ = [
    "RAT",
    "BACKEND",
    "MAX_LITERAL_DIGITS",
    "scaled_ints",
    "scaled_dot",
    "scaled_add",
    "scaled_scale",
    "unscaled",
    "random_form",
]

RAT = Fraction
BACKEND = "fractions"

# Longest accepted run of digits in a numerator, denominator or either
# part of a decimal: CPython's default int/str conversion limit.
MAX_LITERAL_DIGITS = 4300

_INT_RE = re.compile(r"^\d+$")
_FRAC_RE = re.compile(r"^(\d+)/(\d+)$")
_DEC_RE = re.compile(r"^\d*\.\d+$")
_DIGITS_RE = re.compile(r"\d+")


def scaled_ints(qs):
    """(ints, den) with qs[i] == ints[i] / den and den the lcm of the
    denominators of qs (1 for an empty sequence)."""
    den = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


def scaled_dot(a, b):
    """Exact dot product of two scaled_ints results, as one RAT."""
    return RAT(sum(map(mul, a[0], b[0])), a[1] * b[1])


def _lowest(ints, den):
    g = math.gcd(den, *ints)
    if g == 1:
        return ints, den
    return [x // g for x in ints], den // g


def scaled_add(a, b):
    """Element-wise sum of two equal-length scaled forms, in lowest terms."""
    (xa, da), (xb, db) = a, b
    if da == db:
        return _lowest([x + y for x, y in zip(xa, xb)], da)
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    return _lowest([x * fa + y * fb for x, y in zip(xa, xb)], den)


def scaled_scale(q, a):
    """A scaled form times the rational q (of either sign), in lowest terms."""
    n = q.numerator
    return _lowest([x * n for x in a[0]], a[1] * q.denominator)


def unscaled(a):
    """The entries of a scaled form, as RATs in lowest terms."""
    ints, den = a
    return [RAT(x, den) for x in ints]


def random_form(rng, count, lo, hi, max_den):
    """The scaled form, in lowest terms, of count rationals drawn as
    rng.randint(lo, hi) / rng.randint(1, max_den), numerator then
    denominator, entry by entry.

    randint(a, b) is a + r for the first getrandbits(k) draw r below
    b - a + 1, k the bit length of b - a + 1 (CPython's _randbelow for
    random.Random). The loops make exactly those calls, so the values and
    the generator state after them are randint's, without its argument
    checks and with no Fraction per entry.
    """
    getrandbits = rng.getrandbits
    span = hi - lo + 1
    nbits, dbits = span.bit_length(), max_den.bit_length()
    nums, dens = [], []
    for _ in range(count):
        r = getrandbits(nbits)
        while r >= span:
            r = getrandbits(nbits)
        d = getrandbits(dbits)
        while d >= max_den:
            d = getrandbits(dbits)
        nums.append(lo + r)
        dens.append(d + 1)
    den = math.lcm(*dens)
    return _lowest([x * (den // d) for x, d in zip(nums, dens)], den)


def _check_digits(text: str):
    """Refuse a text with a run of more than MAX_LITERAL_DIGITS digits."""
    longest = max(map(len, _DIGITS_RE.findall(text)), default=0)
    if longest > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"a number in the input has {longest} digits; "
            f"at most {MAX_LITERAL_DIGITS} digits are accepted"
        )


def bounded_int(text: str) -> int:
    """int(text), refused with ParseError past MAX_LITERAL_DIGITS digits
    (the parse_int hook for JSON input)."""
    _check_digits(text)
    return int(text)


def parse_literal(text: str):
    """Exact rational from the literal grammar: an optional leading '-',
    then INT, INT/INT or DECIMAL. No float intermediate, and no run of
    more than MAX_LITERAL_DIGITS digits."""
    text = text.strip()
    _check_digits(text)
    negative = text.startswith("-")
    body = text[1:] if negative else text
    if _INT_RE.match(body):
        q = RAT(int(body))
    elif m := _FRAC_RE.match(body):
        den = int(m.group(2))
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        q = RAT(int(m.group(1)), den)
    elif _DEC_RE.match(body):
        q = RAT(body)
    else:
        raise ParseError(f"not a rational literal (INT, INT/INT, or DECIMAL): {text!r}")
    return -q if negative else q


def signed_rat(x):
    """Signed rational from an int, Fraction, or a string literal in the
    grammar of parse_literal."""
    if isinstance(x, str):
        return parse_literal(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted implicitly; pass a string literal")
    return RAT(x)
