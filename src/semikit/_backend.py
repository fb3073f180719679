"""The rational representation and the integer kernel built on it.

Every exact value in this library is a ``fractions.Fraction`` in lowest
terms. ``RAT`` names that type for the rest of the package, and
``BACKEND`` reports it.

Element-wise Fraction arithmetic runs a gcd on every add and multiply.
Dot-product-shaped loops therefore go through :func:`scaled_ints`
instead: each operand is brought to integers over one common denominator,
the products are summed in Python ints, and :func:`scaled_dot` builds one
Fraction (one gcd) per output. The result is the same rational in lowest
terms as the element-wise sum.
"""

import math
import re
from fractions import Fraction
from operator import mul

from .errors import ParseError

__all__ = ["RAT", "BACKEND", "to_int_pair", "scaled_ints", "scaled_dot"]

RAT = Fraction
BACKEND = "fractions"

_INT_RE = re.compile(r"^\d+$")
_FRAC_RE = re.compile(r"^(\d+)/(\d+)$")
_DEC_RE = re.compile(r"^\d*\.\d+$")


def to_int_pair(q):
    """Return (numerator, denominator) of a rational as Python ints."""
    return q.numerator, q.denominator


def scaled_ints(qs):
    """(ints, den) with qs[i] == ints[i] / den and den the lcm of the
    denominators of qs (1 for an empty sequence)."""
    den = math.lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den


def scaled_dot(a, b):
    """Exact dot product of two scaled_ints results, as one RAT."""
    return RAT(sum(map(mul, a[0], b[0])), a[1] * b[1])


def parse_literal(text: str):
    """Exact rational from the literal grammar: an optional leading '-',
    then INT, INT/INT or DECIMAL. No float intermediate."""
    text = text.strip()
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
