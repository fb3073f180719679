import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from semikit._backend import BACKEND, MAX_LITERAL_DIGITS, RAT, random_form, signed_rat
from semikit.errors import ParseError
from semikit.jsonio import load_payload
from semikit.scalar import parse_scalar


def test_backend_selected():
    assert BACKEND == "fractions"


def test_rational_semantics():
    assert RAT(6, 8) == RAT(3, 4)


def test_signed_literal_parsing():
    assert signed_rat("-3/4") == RAT(-3, 4)
    assert signed_rat("0.75") == RAT(3, 4)
    assert signed_rat(2) == RAT(2)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    count=st.integers(0, 12),
    lo=st.integers(-70, 70),
    width=st.integers(0, 140),
    max_den=st.integers(1, 40),
)
def test_random_form_draws_like_randint(seed, count, lo, width, max_den):
    """Over many draws, the values and the generator state after them are
    those of randint(lo, hi) / randint(1, max_den), entry by entry."""
    hi = lo + width
    rng, rng_ref = random.Random(seed), random.Random(seed)
    for _ in range(20):
        ints, den = random_form(rng, count, lo, hi, max_den)
        want = [RAT(rng_ref.randint(lo, hi), rng_ref.randint(1, max_den)) for _ in range(count)]
        assert [RAT(x, den) for x in ints] == want
        assert math.gcd(den, *ints) == 1
        assert rng.getstate() == rng_ref.getstate()


# Literal length bound: no digit run longer than MAX_LITERAL_DIGITS, the
# interpreter's default int/str limit, whatever that limit is set to.
_AT = "7" * MAX_LITERAL_DIGITS
_OVER = "7" * (MAX_LITERAL_DIGITS + 1)


def test_literal_at_the_digit_bound_is_accepted():
    assert MAX_LITERAL_DIGITS == 4300
    assert parse_scalar(_AT).numerator == int(_AT)
    assert parse_scalar(f"1/{_AT}").denominator == int(_AT)
    scale = 10**MAX_LITERAL_DIGITS
    assert signed_rat(f"{_AT}.{_AT}") == RAT(int(_AT) * scale + int(_AT), scale)
    assert signed_rat(f"-{_AT}") == -int(_AT)


@pytest.mark.parametrize(
    "text", [_OVER, f"{_OVER}/3", f"3/{_OVER}", f"{_OVER}.5", f"0.{_OVER}", f"-{_OVER}"]
)
def test_literal_over_the_digit_bound_is_refused(text):
    with pytest.raises(ParseError, match="4301 digits"):
        signed_rat(text)
    if not text.startswith("-"):
        with pytest.raises(ParseError, match="4301 digits"):
            parse_scalar(text)


def test_json_integer_over_the_digit_bound_is_refused(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(f"[{_AT}, 1]")
    assert load_payload(str(path))[0] == int(_AT)
    path.write_text(f"[{_OVER}, 1]")
    with pytest.raises(ParseError, match="4301 digits"):
        load_payload(str(path))


def test_digit_bound_holds_without_the_interpreter_limit():
    code = (
        "from semikit.errors import ParseError\n"
        "from semikit.scalar import parse_scalar\n"
        f"assert parse_scalar('7' * {MAX_LITERAL_DIGITS}).numerator > 0\n"
        "try:\n"
        f"    parse_scalar('7' * {MAX_LITERAL_DIGITS + 1})\n"
        "except ParseError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "4301 digits" in proc.stdout
