"""Rational-arithmetic backend selection.

Every exact value in this library is an arbitrary-precision rational. The
hot kernels are therefore rational adds and multiplies, and the fastest
implementation available is the compiled GMP one shipped by gmpy2. We pick
the backend once, at import time:

* ``gmpy2.mpq`` when gmpy2 is importable (compiled core), unless the
  environment variable ``SEMIKIT_PURE_PYTHON=1`` forces the fallback;
* ``fractions.Fraction`` otherwise (pure-Python fallback, no dependencies).

Both backends normalize to lowest terms and compare equal across types, so
results are bit-identical either way; only speed differs. See
``benchmarks/bench_backends.py`` for the comparison.
"""

import os
import re
from fractions import Fraction

from .errors import ParseError

__all__ = ["RAT", "BACKEND", "HAVE_GMPY2", "to_int_pair"]

_INT_RE = re.compile(r"^\d+$")
_FRAC_RE = re.compile(r"^(\d+)/(\d+)$")
_DEC_RE = re.compile(r"^\d*\.\d+$")

try:
    import gmpy2 as _gmpy2
    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via SEMIKIT_PURE_PYTHON
    _gmpy2 = None
    HAVE_GMPY2 = False

_force_pure = os.environ.get("SEMIKIT_PURE_PYTHON", "") == "1"

if HAVE_GMPY2 and not _force_pure:
    RAT = _gmpy2.mpq
    BACKEND = "gmpy2"
else:
    RAT = Fraction
    BACKEND = "fractions"


def to_int_pair(q):
    """Return (numerator, denominator) of a backend rational as Python ints."""
    return int(q.numerator), int(q.denominator)


def parse_literal(text: str):
    """Exact backend rational from the literal grammar: an optional
    leading '-', then INT, INT/INT or DECIMAL. No float intermediate."""
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
        f = Fraction(body)
        q = RAT(f.numerator, f.denominator)
    else:
        raise ParseError(f"not a rational literal (INT, INT/INT, or DECIMAL): {text!r}")
    return -q if negative else q


def signed_rat(x):
    """Signed backend rational from an int, Fraction, backend value, or a
    string literal in the grammar of parse_literal."""
    if isinstance(x, str):
        return parse_literal(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted implicitly; pass a string literal")
    return RAT(x)
