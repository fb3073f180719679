from semikit._backend import BACKEND, RAT, signed_rat, to_int_pair


def test_backend_selected():
    assert BACKEND == "fractions"


def test_rational_semantics():
    assert RAT(6, 8) == RAT(3, 4)
    assert to_int_pair(RAT(6, 8)) == (3, 4)


def test_signed_literal_parsing():
    assert signed_rat("-3/4") == RAT(-3, 4)
    assert signed_rat("0.75") == RAT(3, 4)
    assert signed_rat(2) == RAT(2)
