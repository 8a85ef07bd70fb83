"""p-typical logs, exponentials, group laws, and star groups on nilpotents."""

from fractions import Fraction as Fr

import pytest

from wittpolar import samples
from wittpolar.exact import TruncSeries
from wittpolar.fgl import (BivariateLaw, LawNotIntegral, LawNotPolar,
                           NonNilpotentElement, PTypicalLog, additive_log,
                           exp_from_log, group_law, law_associative,
                           multiplicative_log, mu_pinfty_group, support_check,
                           typicalize_log)
from wittpolar.gfq import combine, gf_build
from wittpolar.ppolar import bilinear_product

F2 = gf_build(2, 1)
F3 = gf_build(3, 1)


def test_typicalize_additive():
    t = typicalize_log(TruncSeries.x(9), 3)
    assert t.coeffs == (Fr(1), Fr(0), Fr(0))


def test_typicalize_multiplicative_p2():
    t = typicalize_log(multiplicative_log(16), 2)
    assert t.coeffs == (Fr(1), Fr(-1, 2), Fr(-1, 4), Fr(-1, 8), Fr(-1, 16))


def test_typicalize_fixed_point():
    # a series already supported on p-powers is unchanged
    f = TruncSeries(9, [0, 1, 0, Fr(1, 3), 0, 0, 0, 0, 0, Fr(1, 9)])
    t = typicalize_log(f, 3)
    assert t.series() == f


def test_typicalize_rejects_bad_leading():
    with pytest.raises(ValueError):
        typicalize_log(TruncSeries(5, [0, 2]), 2)


def test_exp_of_additive_log():
    assert exp_from_log(additive_log(5, 10)) == TruncSeries.x(10)


def test_exp_log_compose_to_identity():
    log = PTypicalLog(3, 12, (Fr(1), Fr(1, 3), Fr(2, 9)))
    e = exp_from_log(log)
    assert log.series().compose(e) == TruncSeries.x(12)


def test_support_check_examples():
    s = TruncSeries(6, [0, 1, 0, 0, 0, 1])
    assert support_check(s, 3) == (True, [])
    s2 = TruncSeries(6, [0, 1, 1])
    ok, off = support_check(s2, 3)
    assert not ok and off == [2]


def test_lemma_certificate_support():
    for p in (2, 3, 5):
        coeffs = [Fr(1)]
        i = 1
        while p ** i <= 25:
            coeffs.append(Fr(1, p ** i))
            i += 1
        e = exp_from_log(PTypicalLog(p, 25, tuple(coeffs)))
        ok, offenders = support_check(e, p)
        assert ok, offenders


def test_group_law_additive():
    law = group_law(additive_log(3, 8), 8)
    assert dict(law.terms) == {(1, 0): Fr(1), (0, 1): Fr(1)}


def test_group_law_multiplicative_integrality():
    for p, D in ((2, 15), (3, 10)):
        law = group_law(typicalize_log(multiplicative_log(D), p), D)
        assert not law.denominator_offenders()


def test_group_law_associativity():
    for p in (2, 3):
        law = group_law(typicalize_log(multiplicative_log(10), p), 10)
        assert law_associative(law)


@pytest.mark.parametrize("p, D", [(2, 8), (3, 9)])
def test_law_associative_rejects_every_perturbed_coefficient(p, D):
    # over Q the homogeneous 2-cocycles of degree n are the multiples of
    # (x+y)^n - x^n - y^n, so one monomial x^a y^b is a cocycle only for
    # a = b = 1; moving any other non-unit coefficient alone breaks
    # associativity in degree a + b
    law = group_law(typicalize_log(multiplicative_log(D), p), D)
    assert law_associative(law)
    terms = dict(law.terms)
    spots = [(a, b) for a in range(1, D) for b in range(1, D - a + 1)
             if (a, b) != (1, 1)]
    for ab in spots:
        bent = dict(terms)
        bent[ab] = bent.get(ab, 0) + 1
        assert not law_associative(
            BivariateLaw(p, D, tuple(sorted(bent.items())))), ab


def test_group_law_symmetric_admissible():
    law = group_law(typicalize_log(multiplicative_log(9), 3), 9)
    d = dict(law.terms)
    for (a, b), c in d.items():
        assert d[(b, a)] == c
        assert (a + b - 1) % 2 == 0


def test_star_group_unit_law():
    A = samples.trunc_nil_polar(F2, 4)
    law = group_law(typicalize_log(multiplicative_log(6), 2), 6)
    G = mu_pinfty_group(A, law)
    for v in G.elements():
        assert G.star(v, A.zero) == v


def test_star_group_order8_matches_honest_units():
    A = samples.trunc_nil_polar(F2, 4)
    law = group_law(typicalize_log(multiplicative_log(6), 2), 6)
    G = mu_pinfty_group(A, law)
    assert G.order() == 8
    assert G.abelian_invariants() == (4, 2)
    # elementwise comparison through h = exp_mult o log_typ, reduced mod 2
    table = samples.nil_poly_table(F2, 4)
    logt = typicalize_log(multiplicative_log(6), 2).series()
    expm = multiplicative_log(6).reverse()
    h = expm.compose(logt)
    assert all(c.denominator % 2 for c in h.coeffs)

    def h_eval(u):
        acc, pw = (0, 0, 0), u
        for k in range(1, 4):
            c = h[k]
            if (c.numerator * pow(c.denominator, -1, 2)) % 2:
                acc = combine(F2, (1, 1), (acc, pw))
            pw = bilinear_product(F2, table, pw, u)
        return acc

    def honest(u, v):
        return combine(F2, (1, 1, 1),
                       (u, v, bilinear_product(F2, table, u, v)))

    els = G.elements()
    assert len({h_eval(u) for u in els}) == 8
    for u in els:
        for v in els:
            assert h_eval(G.star(u, v)) == honest(h_eval(u), h_eval(v))


def test_star_group_trivial_pair_invariance():
    for field, p in ((F2, 2), (F3, 3)):
        A = samples.trunc_nil_polar(field, p)
        B = samples.trivial_polar(field, p - 1)
        law = group_law(typicalize_log(multiplicative_log(4), p), 4)
        GA, GB = mu_pinfty_group(A, law), mu_pinfty_group(B, law)
        assert GA.abelian_invariants() == GB.abelian_invariants()
        # both are elementary abelian: star degenerates to addition
        for u in GA.elements():
            for v in GA.elements():
                assert GA.star(u, v) == combine(field, (1, 1), (u, v))


def test_star_rejects_non_nilpotent():
    A = samples.polar_direct_sum(samples.split_polar(F2, 1),
                                 samples.trunc_nil_polar(F2, 3))
    law = group_law(typicalize_log(multiplicative_log(6), 2), 6)
    G = mu_pinfty_group(A, law)
    with pytest.raises(NonNilpotentElement):
        G.star((1, 0, 0), (0, 1, 0))


def test_law_not_polar_rejected():
    bad = BivariateLaw(3, 4, (((1, 0), Fr(1)), ((0, 1), Fr(1)),
                              ((1, 1), Fr(1))))
    A = samples.trunc_nil_polar(F3, 3)
    with pytest.raises(LawNotPolar):
        mu_pinfty_group(A, bad)


def test_law_not_integral_rejected():
    bad = BivariateLaw(3, 4, (((1, 0), Fr(1)), ((0, 1), Fr(1)),
                              ((1, 2), Fr(1, 3))))
    A = samples.trunc_nil_polar(F3, 3)
    with pytest.raises(LawNotIntegral):
        mu_pinfty_group(A, bad)


def test_star_group_is_p_group():
    A = samples.trunc_nil_polar(F3, 3)
    law = group_law(typicalize_log(multiplicative_log(4), 3), 4)
    G = mu_pinfty_group(A, law)
    assert G.order() == 9
    for v in G.elements():
        k = G.element_order(v)
        assert k in (1, 3, 9)
