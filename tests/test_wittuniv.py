"""Universal Witt polynomials: ghosts, Dwork lifting, certificates."""

import hashlib
import json

import pytest

from wittpolar.exact import IntegralityViolation, MultiPoly
from wittpolar.wittuniv import (DworkCongruenceFailed, _modulo, _targets,
                                dwork_congruence_holds, dwork_lift,
                                family_to_json, ghost_of_coords, ghost_polys,
                                polar_degree_check, reduce_mod_p,
                                universal_polys, witt_blocks)
from wittpolar.verify import _ghost_target


def V(name):
    return MultiPoly.variable(name)


def test_ghost_single_component():
    g = ghost_polys(5, 1)
    assert g[0] == V("a0")


def test_ghost_p2():
    g = ghost_polys(2, 2)
    a0, a1 = V("a0"), V("a1")
    assert g[1] == a0 ** 2 + 2 * a1


def test_ghost_p3():
    g = ghost_polys(3, 3)
    a0, a1, a2 = V("a0"), V("a1"), V("a2")
    assert g[1] == a0 ** 3 + 3 * a1
    assert g[2] == a0 ** 9 + 3 * a1 ** 3 + 9 * a2


def test_dwork_round_trip_on_formal_ghosts():
    for p, n in ((2, 3), (3, 2)):
        targets = list(ghost_polys(p, n, "x"))
        comps = dwork_lift(p, targets)
        assert comps == [V(f"x{i}") for i in range(n)]


def test_dwork_sum_target_p2():
    gx, gy = ghost_polys(2, 2, "x"), ghost_polys(2, 2, "y")
    comps = dwork_lift(2, [gx[m] + gy[m] for m in range(2)])
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert comps[0] == x0 + y0
    assert comps[1] == x1 + y1 - x0 * y0


def test_dwork_rejects_constant_sequence():
    x = V("x0")
    with pytest.raises(DworkCongruenceFailed) as err:
        dwork_lift(2, [x, x, x])
    assert err.value.level == 1
    assert dwork_congruence_holds(2, [x, x ** 2, x ** 4]) is None


def test_dwork_accepts_frobenius_orbit():
    x = V("x0")
    comps = dwork_lift(2, [x, x ** 2, x ** 4, x ** 8])
    assert comps[0] == x and all(c.is_zero() for c in comps[1:])


def test_unchecked_lift_surfaces_integrality_failure():
    x = V("x0")
    with pytest.raises(IntegralityViolation):
        dwork_lift(2, [x, x, x], check=False)


def test_sum_polys_match_spec_values():
    S = universal_polys(2, 2, "sum")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert S[1].poly == x1 + y1 - x0 * y0


def test_prod_polys_match_spec_values():
    M = universal_polys(2, 2, "prod")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert M[1].poly == x0 ** 2 * y1 + x1 * y0 ** 2 + 2 * x1 * y1


def test_neg_polys():
    N2 = universal_polys(2, 2, "neg")
    x0, x1 = V("x0"), V("x1")
    assert N2[1].poly == -x1 - x0 ** 2
    # odd p: componentwise negation
    for p in (3, 5):
        N = universal_polys(p, 2, "neg")
        assert N[0].poly == -V("x0")
        assert N[1].poly == -V("x1")


def test_frob_polys():
    F = universal_polys(2, 2, "frob")
    x0, x1 = V("x0"), V("x1")
    assert F[0].poly == x0 ** 2 + 2 * x1


def test_reduce_mod_p():
    S = universal_polys(2, 2, "sum")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert reduce_mod_p(S)[1] == x1 + y1 + x0 * y0
    M = universal_polys(2, 2, "prod")
    assert reduce_mod_p(M)[1] == x0 ** 2 * y1 + x1 * y0 ** 2
    # Frobenius reduces to the componentwise p-th power
    for p, n in ((2, 3), (3, 2)):
        F = universal_polys(p, n, "frob")
        for m, q in enumerate(reduce_mod_p(F)):
            assert q == V(f"x{m}") ** p


def test_ghost_round_trips_exact():
    # every family the witt-ring set-up lifts (p = 2, 3 with n <= 4) and
    # p = 5 with n <= 2; ghost_of_coords multiplies through MultiPoly.pow on
    # exponent tuples and _ghost_target builds its own targets, so neither
    # shares code with the packed kernel of dwork_lift
    for p, top in ((2, 4), (3, 4), (5, 2)):
        for n in range(1, top + 1):
            for kind in ("sum", "neg", "prod", "frob", "scalar"):
                coords = [u.poly for u in universal_polys(p, n, kind)]
                targets = _ghost_target(p, n, kind)
                for m in range(n):
                    assert ghost_of_coords(p, coords, m) == targets[m]


# sha256 of the compact sorted-key JSON that `witt-poly` prints, taken from
# the lift on exponent tuples that the packed kernel replaced
FAMILY_SHA256 = {
    (3, 4, "prod"):
        "cbd1bb3d71cae7090bb5127f409c8b37f32bf8401bb1922b5a396296881a1c95",
    (3, 4, "scalar"):
        "ae55b27fef09114d3bc2d7ef778fef8fc3c2776fdaa94478e42d8c6294cc55e4",
    (2, 4, "sum"):
        "b10feaf89b1bccd0ff108ac8e71324851bc3a9f17e7bffb3baa5de0268743adf",
}


@pytest.mark.parametrize("key", sorted(FAMILY_SHA256))
def test_family_bytes_are_pinned(key):
    family = family_to_json(*key, universal_polys(*key))
    blob = json.dumps(family, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == FAMILY_SHA256[key]


def test_polar_degree_certificates():
    for p, n in ((2, 2), (3, 3), (5, 2)):
        for kind in ("sum", "neg", "prod", "frob", "scalar"):
            assert all(polar_degree_check(u)
                       for u in universal_polys(p, n, kind))


def test_polar_degree_check_rejects():
    from wittpolar.wittuniv import UnivWittPoly
    bad = UnivWittPoly("sum", 0, 3, V("x0") * V("y0"))
    assert not polar_degree_check(bad)
    # p = 2 is vacuous
    assert polar_degree_check(UnivWittPoly("sum", 0, 2, V("x0") * V("y0")))


def test_scalar_vs_module_axioms_on_ghosts():
    # scalar target is w(a) * w(x); check the distributive ghost identity
    p, n = 3, 2
    C = [u.poly for u in universal_polys(p, n, "scalar")]
    ga = ghost_polys(p, n, "a")
    gx = ghost_polys(p, n, "x")
    for m in range(n):
        assert ghost_of_coords(p, C, m) == ga[m] * gx[m]


def test_frobenius_scalar_commutation_mod_p_and_discrepancy():
    # F(a.x) = phi(a).F(x) holds mod p; over Z the defect is exactly
    # p^(m+1) a_(m+1) w_(m+1)(x)
    for p, n in ((2, 2), (3, 2)):
        C = universal_polys(p, n + 1, "scalar")
        F = universal_polys(p, n, "frob")
        cx = [u.poly for u in C]
        bind_f = {f"x{i}": cx[i] for i in range(n + 1)}
        lhs = [F[m].poly.substitute(bind_f) for m in range(n)]
        fx = [u.poly for u in F]
        bind_c = {f"x{i}": fx[i] for i in range(n)}
        bind_c.update({f"a{i}": V(f"a{i}") ** p for i in range(n)})
        rhs = [C2.poly.substitute(bind_c)
               for C2 in universal_polys(p, n, "scalar")]
        for m in range(n):
            assert (lhs[m] - rhs[m]).divisible_by(p)
        ga = ghost_polys(p, n + 1, "a")
        gx = ghost_polys(p, n + 1, "x")
        for m in range(n):
            diff = ghost_of_coords(p, lhs, m) - ghost_of_coords(p, rhs, m)
            phi_a = ga[m].frobenius_vars(p)
            want = (ga[m + 1] - phi_a) * gx[m + 1]
            assert diff == want  # and the defect is p^(m+1) a_(m+1) w(x)


def test_verschiebung_scalar_commutation_mod_p():
    # a . V(x) = V(phi(a) . x) after substituting a -> phi(b)
    for p, n in ((2, 2), (3, 2)):
        Cn1 = universal_polys(p, n + 1, "scalar")
        Cn = universal_polys(p, n, "scalar")
        xs = [V(f"x{i}") for i in range(n)]
        vx = [MultiPoly.zero()] + xs
        bind = {f"x{i}": vx[i] for i in range(n + 1)}
        bind.update({f"a{i}": V(f"a{i}") for i in range(n + 1)})
        lhs = [u.poly.substitute(bind) for u in Cn1]  # a . V(x)
        bind2 = {f"a{i}": V(f"a{i}") ** p for i in range(n)}
        bind2.update({f"x{i}": xs[i] for i in range(n)})
        inner = [u.poly.substitute(bind2) for u in Cn]  # phi(a) . x
        rhs = [MultiPoly.zero()] + inner
        for m in range(n + 1):
            assert (lhs[m] - rhs[m]).divisible_by(p)


def test_cold_lifts_are_byte_identical(monkeypatch):
    import wittpolar.wittuniv as wu
    p, n, kind = 3, 2, "prod"
    blobs = []
    for _ in range(2):
        monkeypatch.setattr(wu, "_memo", {})
        family = wu.family_to_json(p, n, kind, universal_polys(p, n, kind))
        blobs.append(json.dumps(family, sort_keys=True, separators=(",", ":")))
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["format"] == "wittpolar/1"


def test_envelope_warning():
    with pytest.warns(UserWarning, match="envelope"):
        universal_polys(5, 3, "neg")


def test_congruence_checked_in_the_kill_quotient():
    x = V("x0")
    # killing x^2 leaves phi(x) = 0 in the quotient, so level 1 fails there
    kill_sq = lambda e: e[0] == 2  # noqa: E731 -- not stable under x -> x^2
    assert dwork_congruence_holds(2, [x, x ** 2]) is None
    assert dwork_congruence_holds(2, [x, x ** 2], kill_sq) == 1
    with pytest.raises(DworkCongruenceFailed) as err:
        dwork_lift(2, [x, x ** 2], kill=kill_sq)
    assert err.value.level == 1
    # a Frobenius-stable ideal (degree >= 4) keeps the congruence
    kill_deg = lambda e: sum(e) >= 4  # noqa: E731
    comps = dwork_lift(2, [x, x ** 2, MultiPoly.zero()], kill=kill_deg)
    assert comps[0] == x and all(c.is_zero() for c in comps[1:])


# The killed monomials of both callers form an ideal stable under v -> v^p,
# so reducing modulo it is a ring map that commutes with the Frobenius lift
# and with the ghost map: the lift in the quotient is the image of the full
# lift, which is the full lift with the killed monomials dropped.

@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (3, 4)])
@pytest.mark.parametrize("kind", ["sum", "prod", "scalar"])
def test_kill_lift_drops_the_killed_monomials_of_the_full_lift(p, n, kind):
    # wittmod._plan's cap: Witt-block degree >= L, the scalars a_i free
    targets = _targets(p, n, kind)
    full = [u.poly for u in universal_polys(p, n, kind)]
    blocks = witt_blocks(kind, p)
    vec = [i for i, v in enumerate(targets[0].vars)
           if v.rstrip("0123456789") in blocks]
    for L in (3, 5):
        def kill(e):
            return sum(e[i] for i in vec) >= L
        lifted = dwork_lift(p, targets, kill=kill)
        assert lifted == [_modulo(c, kill) for c in full]
        assert any(c != _modulo(c, kill) for c in full)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("op", ["sum", "neg"])
def test_kill_lift_under_the_cowitt_caps(p, op):
    # cowitt._window_poly's caps: total degree >= t_total, or degree in the
    # deep window positions >= t_deep
    for m in (1, 2, 3):
        targets = _targets(p, m + 1, op)
        names = targets[0].vars
        full = [u.poly for u in universal_polys(p, m + 1, op)]
        for deep in ((False,) * m + (True,), (False,) + (True,) * m,
                     (True,) * (m + 1)):
            flags = deep * (len(names) // (m + 1))
            for t_total, t_deep in ((None, 2), (4, 2), (3, 9), (6, 3)):
                def kill(e):
                    dd = sum(k for k, d in zip(e, flags) if d)
                    return ((t_total is not None and sum(e) >= t_total)
                            or dd >= t_deep)
                lifted = dwork_lift(p, targets, kill=kill)
                assert lifted == [_modulo(c, kill) for c in full]


def test_top_exponent_at_the_field_bound():
    # x0 has the lowest field and y0 the next, so a carry out of the x0
    # field would show up as a wrong y0 exponent
    x, y = V("x0"), V("y0")
    # B = 3 * 85 = 255 sets every bit of an 8-bit field
    c0, c1 = dwork_lift(3, [x ** 85 + y, 4 * x ** 255 + y ** 3])
    assert c0 == x ** 85 + y
    assert c1 == x ** 255 - x ** 170 * y - x ** 85 * y ** 2
    # B = 2 * 128 = 256 is the least bound that needs more than 8 bits
    c0, c1 = dwork_lift(2, [x ** 128 + y, 3 * x ** 256 + y ** 2])
    assert c0 == x ** 128 + y
    assert c1 == x ** 256 - x ** 128 * y


def test_packed_keys_past_64_bits():
    # the formal ghosts of one block at p = 2, n = 9 have B = 2^8: nine
    # fields of at least 9 bits (the full (3, 4, prod) family has twelve of
    # at least 7, and test_family_bytes_are_pinned covers it)
    targets = list(ghost_polys(2, 9, "x"))
    assert len(targets[0].vars) * (2 ** 8).bit_length() > 64
    assert dwork_lift(2, targets) == [V(f"x{i}") for i in range(9)]
