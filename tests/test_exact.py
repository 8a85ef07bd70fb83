"""Exact polynomial and truncated-series layer."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar.exact import IntegralityViolation, MultiPoly, TruncSeries


def V(name):
    return MultiPoly.variable(name)


def test_difference_of_squares():
    x0, y0 = V("x0"), V("y0")
    assert (x0 + y0) * (x0 - y0) == x0 * x0 - y0 * y0


def test_additive_identity():
    a = V("x0") * 3 + V("y1") * V("x2")
    assert a + MultiPoly.zero() == a


def brute_cube(a_vars):
    """Independent expansion oracle: multiply term lists directly."""
    # (x0 + y0)^3 expanded by hand through the multinomial theorem
    x0, y0 = a_vars
    return (x0 ** 3 + 3 * (x0 ** 2) * y0 + 3 * x0 * (y0 ** 2) + y0 ** 3)


def test_cube_expansion_matches_oracle():
    x0, y0 = V("x0"), V("y0")
    lhs = (x0 + y0) ** 3
    assert lhs == brute_cube((x0, y0))
    assert lhs.coefficient({"x0": 2, "y0": 1}) == 3


def test_substitute_square():
    f = V("x0") ** 2
    u, v = V("u0"), V("u1")
    assert f.substitute({"x0": u + v}) == u ** 2 + 2 * u * v + v ** 2


def test_substitute_identity_binding():
    f = V("x0") * V("y0") + 2 * V("x1")
    bind = {name: V(name) for name in ("x0", "x1", "y0")}
    assert f.substitute(bind) == f


def test_substitute_unbound_variable():
    with pytest.raises(ValueError, match="unbound"):
        (V("x0") + V("x1")).substitute({"x0": V("u0")})


def _polys(names, max_exp=3, max_terms=4):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
    return st.dictionaries(exps, st.integers(-5, 5), max_size=max_terms).map(
        lambda terms: MultiPoly(names, terms))


@settings(max_examples=60, deadline=None)
@given(f=_polys(("x0", "x1")), b0=_polys(("u0", "u1")),
       b1=_polys(("u0", "u1")), D=st.integers(0, 8))
def test_truncated_substitution_property(f, b0, b1, D):
    full = f.substitute({"x0": b0, "x1": b1})
    want = MultiPoly(full.vars, {e: c for e, c in full.terms.items()
                                 if sum(e) <= D})
    got = f.substitute({"x0": b0, "x1": b1}, max_degree=D)
    assert got == want


def test_exact_division():
    f = 2 * V("x0") ** 2 + 4 * V("x1")
    assert f.divide_exact_int(2) == V("x0") ** 2 + 2 * V("x1")


def test_exact_division_carry_term():
    x0, y0 = V("x0"), V("y0")
    f = x0 ** 2 + y0 ** 2 - (x0 + y0) ** 2
    assert f.divide_exact_int(2) == -(x0 * y0)


def test_exact_division_rejects_odd():
    with pytest.raises(IntegralityViolation):
        (V("x0") + MultiPoly.const(1)).divide_exact_int(2)


def rand_poly(rng, names, terms=4, deg=3, coeff=9):
    out = MultiPoly.zero()
    for _ in range(terms):
        exps = tuple(rng.randrange(deg) for _ in names)
        out = out + MultiPoly.monomial(names, exps, rng.randrange(-coeff, coeff))
    return out


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    names = ("x0", "x1", "y0")
    for _ in range(25):
        a, b, c = (rand_poly(rng, names) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a * 6).divide_exact_int(6) == a


def test_variable_alignment_and_hash():
    a = MultiPoly(("x0", "y0"), {(1, 0): 1})
    b = MultiPoly(("x0",), {(1,): 1})
    assert a == b and hash(a) == hash(b)


def test_json_round_trip():
    f = V("x0") ** 2 * V("a1") - MultiPoly.const(Fraction(3, 7))
    data = f.to_json()
    assert data["terms"][0]["den"] == "7"
    assert MultiPoly.from_json(data) == f


# -- truncated series ---------------------------------------------------------


def lagrange_reversion(f: TruncSeries) -> list:
    """Independent oracle: g_n = [x^(n-1)] (x / f)^n / n."""
    D = f.prec
    # h = x / f(x) = 1 / (1 + c2 x + ...)  via iterative reciprocal
    denom = [f[k + 1] for k in range(D)]  # f / x
    recip = [Fraction(0)] * D
    recip[0] = Fraction(1)
    for k in range(1, D):
        recip[k] = -sum(denom[j] * recip[k - j] for j in range(1, k + 1))
    out = [Fraction(0), Fraction(1)]
    power = recip[:]  # (x/f)^1
    for n in range(2, D + 1):
        nxt = [Fraction(0)] * D
        for i, a in enumerate(power):
            if a:
                for j in range(D - i):
                    nxt[i + j] += a * recip[j]
        power = nxt
        out.append(power[n - 1] / n)
    return out


def test_reverse_identity():
    f = TruncSeries.x(8)
    assert f.reverse() == f


def test_reverse_catalan_signs():
    f = TruncSeries(6, [0, 1, 1])  # x + x^2
    g = f.reverse()
    assert [g[k] for k in range(7)] == [0, 1, -1, 2, -5, 14, -42]
    assert [g[k] for k in range(7)] == lagrange_reversion(f)[:7]


def test_reverse_log_exp_pair():
    D = 10
    log1p = TruncSeries(D, [0] + [Fraction((-1) ** (k + 1), k)
                                  for k in range(1, D + 1)])
    expm1 = TruncSeries(D, [0] + [Fraction(1, _fact(k))
                                  for k in range(1, D + 1)])
    assert log1p.reverse() == expm1
    assert log1p.compose(expm1) == TruncSeries.x(D)


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_reverse_is_involutive_randomized():
    rng = random.Random(7)
    for _ in range(10):
        coeffs = [0, 1] + [Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                           for _ in range(8)]
        f = TruncSeries(9, coeffs)
        g = f.reverse()
        assert g.reverse() == f
        assert f.compose(g) == TruncSeries.x(9)
        assert [g[k] for k in range(10)] == lagrange_reversion(f)


def test_reverse_rejects_bad_leading_terms():
    with pytest.raises(ValueError):
        TruncSeries(5, [1, 1]).reverse()
    with pytest.raises(ValueError):
        TruncSeries(5, [0, 2]).reverse()


def _series_power_reference(inner: TruncSeries, k: int) -> list:
    """inner^k by k - 1 schoolbook products, truncated at inner's degree."""
    D = inner.prec
    out = [Fraction(1)] + [Fraction(0)] * D
    for _ in range(k):
        nxt = [Fraction(0)] * (D + 1)
        for i, a in enumerate(out):
            for j in range(D + 1 - i):
                nxt[i + j] += a * inner[j]
        out = nxt
    return out


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _outer_and_inner(draw):
    D = draw(st.integers(1, 14))
    support = draw(st.sets(st.integers(0, D), max_size=D + 1))
    outer = [draw(_rationals) if k in support else 0 for k in range(D + 1)]
    inner = [0] + draw(st.lists(_rationals, min_size=D, max_size=D))
    return TruncSeries(D, outer), TruncSeries(D, inner)


@settings(max_examples=60, deadline=None)
@given(pair=_outer_and_inner())
def test_sparse_compose_matches_term_by_term(pair):
    f, g = pair
    D = f.prec
    want = [Fraction(0)] * (D + 1)
    for k in range(D + 1):
        if f[k]:
            for i, a in enumerate(_series_power_reference(g, k)):
                want[i] += f[k] * a
    assert f.compose(g) == TruncSeries(D, want)


@st.composite
def _reversible(draw):
    """Dense f = x + ..., or a sparse p-typical log x + sum l_i x^(p^i)."""
    D = draw(st.integers(1, 20))
    p = draw(st.sampled_from((None, 2, 3, 5)))
    if p is None:
        return TruncSeries(D, [0, 1] + draw(
            st.lists(_rationals, min_size=D - 1, max_size=D - 1)))
    coeffs = [Fraction(0)] * (D + 1)
    coeffs[1] = Fraction(1)
    e = p
    while e <= D:
        coeffs[e] = draw(_rationals)
        e *= p
    return TruncSeries(D, coeffs)


@settings(max_examples=60, deadline=None)
@given(f=_reversible())
def test_newton_reversion_matches_lagrange(f):
    g = f.reverse()
    assert list(g.coeffs) == lagrange_reversion(f)
    assert f.compose(g) == TruncSeries.x(f.prec)
