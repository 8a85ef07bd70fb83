"""Universal Witt polynomials: ghosts, Dwork lifting, certificates."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittpolar.exact import MultiPoly, var_key
from wittpolar.wittuniv import (KINDS, DworkCongruenceFailed, _targets,
                                dwork_lift, family_to_json, ghost_of_coords,
                                ghost_polys, polar_degree_check,
                                universal_polys, witt_blocks)


def V(name):
    return MultiPoly.variable(name)


def frobenius_vars(poly, p):
    """The lift v -> v^p on every variable (exponent scaling)."""
    return MultiPoly(poly.vars, {tuple(k * p for k in e): c
                                 for e, c in poly.terms.items()})


def divisible_by(poly, n):
    return all(isinstance(c, int) and c % n == 0
               for c in poly.terms.values())


def _modulo(poly, kill):
    """poly without its killed monomials."""
    return MultiPoly(poly.vars, {e: c for e, c in poly.terms.items()
                                 if not kill(e)})


def congruence_level(p, targets, kill=None):
    """Level m of the first failed t_m = phi(t_{m-1}) mod p^m, or None.

    An oracle for the failures `dwork_lift` reports from its divisions:
    it compares the targets directly, without lifting.  With `kill`, the
    congruence is taken in the quotient by the killed monomials, and a
    target holding a killed monomial whose image under v -> v^p survives
    fails its level (level 1 for the first target).
    """
    def stable(t):
        return all(not kill(e) or kill(tuple(k * p for k in e))
                   for e in t.terms)
    if kill is not None:
        targets = [_modulo(t, kill) if stable(t) else None for t in targets]
    for m in range(1, len(targets)):
        if targets[m - 1] is None or targets[m] is None:
            return m
        frob = frobenius_vars(targets[m - 1], p)
        if kill is not None:
            frob = _modulo(frob, kill)
        if not divisible_by(targets[m] - frob, p ** m):
            return m
    return None


def lift_level(p, targets, kill=None):
    """The level `dwork_lift` raises DworkCongruenceFailed at, or None."""
    try:
        dwork_lift(p, targets, kill=kill)
    except DworkCongruenceFailed as err:
        return err.level
    return None


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
    assert err.value.level == 1 == congruence_level(2, [x, x, x])
    assert congruence_level(2, [x, x ** 2, x ** 4]) is None


def test_dwork_fails_at_level_2():
    # x^2 = phi(x) holds at level 1; x^2 - phi(x^2) = x^2 - x^4 is not
    # divisible by 4
    x = V("x0")
    with pytest.raises(DworkCongruenceFailed) as err:
        dwork_lift(2, [x, x ** 2, x ** 2])
    assert err.value.level == 2 == congruence_level(2, [x, x ** 2, x ** 2])
    # a level-2 defect that is divisible by 4 lifts
    assert dwork_lift(2, [x, x ** 2, x ** 4 + 4 * x])[2] == x


def test_single_target_with_an_unstable_killed_monomial_fails_level_1():
    # killing x^2 but not x^4: the quotient does not carry phi.  The
    # oracle compares pairs of targets and so has nothing to say about one
    x = V("x0")
    with pytest.raises(DworkCongruenceFailed) as err:
        dwork_lift(2, [x ** 2 + x], kill=lambda e: e[0] == 2)
    assert err.value.level == 1
    assert congruence_level(2, [x ** 2 + x], lambda e: e[0] == 2) is None


def test_dwork_accepts_frobenius_orbit():
    x = V("x0")
    comps = dwork_lift(2, [x, x ** 2, x ** 4, x ** 8])
    assert comps[0] == x and all(c.is_zero() for c in comps[1:])


def test_sum_polys_match_spec_values():
    S = universal_polys(2, 2, "sum")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert S[1] == x1 + y1 - x0 * y0


def test_prod_polys_match_spec_values():
    M = universal_polys(2, 2, "prod")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert M[1] == x0 ** 2 * y1 + x1 * y0 ** 2 + 2 * x1 * y1


def test_neg_polys():
    N2 = universal_polys(2, 2, "neg")
    x0, x1 = V("x0"), V("x1")
    assert N2[1] == -x1 - x0 ** 2
    # odd p: componentwise negation
    for p in (3, 5):
        N = universal_polys(p, 2, "neg")
        assert N[0] == -V("x0")
        assert N[1] == -V("x1")


def test_frob_polys():
    F = universal_polys(2, 2, "frob")
    x0, x1 = V("x0"), V("x1")
    assert F[0] == x0 ** 2 + 2 * x1


def test_reduce_mod_p():
    S = universal_polys(2, 2, "sum")
    x0, x1, y0, y1 = (V(v) for v in ("x0", "x1", "y0", "y1"))
    assert S[1].reduce_mod(2) == x1 + y1 + x0 * y0
    M = universal_polys(2, 2, "prod")
    assert M[1].reduce_mod(2) == x0 ** 2 * y1 + x1 * y0 ** 2
    # Frobenius reduces to the componentwise p-th power
    for p, n in ((2, 3), (3, 2)):
        F = universal_polys(p, n, "frob")
        for m, c in enumerate(F):
            assert c.reduce_mod(p) == V(f"x{m}") ** p


def test_ghost_round_trips_exact():
    # every family the witt-ring set-up lifts (p = 2, 3 with n <= 4) and
    # p = 5 with n <= 2; ghost_of_coords multiplies through MultiPoly.pow on
    # exponent tuples, so it shares no code with the packed kernel of
    # dwork_lift (test_ghost_identities_at_integer_points checks the targets)
    for p, top in ((2, 4), (3, 4), (5, 2)):
        for n in range(1, top + 1):
            for kind in KINDS:
                coords = universal_polys(p, n, kind)
                targets = _targets(p, n, kind)
                for m in range(n):
                    assert ghost_of_coords(p, coords, m) == targets[m]


def _ghost(p, a, m):
    """w_m(a) = sum_i p^i a_i^(p^(m-i)) on integers."""
    return sum(p ** i * a[i] ** p ** (m - i) for i in range(m + 1))


def _at(poly, point):
    """poly at an integer point given as a dict from variable to int."""
    total = 0
    for e, c in poly.terms.items():
        for v, k in zip(poly.vars, e):
            c *= point[v] ** k
        total += c
    return total


@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (5, 2)])
def test_ghost_identities_at_integer_points(p, n):
    # the defining ghost identities of each family, written on ints from
    # the ghost formula alone: no ghost_polys, no _targets
    rng = random.Random(p * 10 + n)
    blocks = ("x", "y", "z", "u", "v", "a")
    for _ in range(8):
        pt = {f"{b}{i}": rng.randint(-9, 9) for b in blocks
              for i in range(n + 1)}
        vec = {b: [pt[f"{b}{i}"] for i in range(n + 1)] for b in blocks}
        for kind in KINDS:
            c = [_at(q, pt) for q in universal_polys(p, n, kind)]
            for m in range(n):
                w = {b: _ghost(p, vec[b], m) for b in blocks}
                if kind == "sum":
                    want = w["x"] + w["y"]
                elif kind == "neg":
                    want = -w["x"]
                elif kind == "prod":
                    want = 1
                    for b in blocks[:p]:
                        want *= w[b]
                elif kind == "frob":
                    want = _ghost(p, vec["x"], m + 1)
                else:
                    want = w["a"] * w["x"]
                assert _ghost(p, c, m) == want, (kind, m)


# sha256 of the compact sorted-key JSON that `witt-poly` prints, one family
# per kind, each taken from an earlier implementation of the lift
FAMILY_SHA256 = {
    (3, 4, "prod"):
        "cbd1bb3d71cae7090bb5127f409c8b37f32bf8401bb1922b5a396296881a1c95",
    (3, 4, "scalar"):
        "ae55b27fef09114d3bc2d7ef778fef8fc3c2776fdaa94478e42d8c6294cc55e4",
    (2, 4, "sum"):
        "b10feaf89b1bccd0ff108ac8e71324851bc3a9f17e7bffb3baa5de0268743adf",
    (2, 4, "neg"):
        "f03195e932946d7b16d39f79f51c262a0faa0789076bff0f383cca80d7e8e125",
    (3, 4, "frob"):
        "d864c20ef6a1839003f15698db9f63362ed644b3e69752039c099a1fb2bc9b6d",
}


@pytest.mark.parametrize("key", sorted(FAMILY_SHA256))
def test_family_bytes_are_pinned(key):
    family = family_to_json(*key, universal_polys(*key))
    blob = json.dumps(family, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == FAMILY_SHA256[key]


def test_polar_degree_certificates():
    for p, n in ((2, 2), (3, 3), (5, 2)):
        for kind in KINDS:
            assert all(polar_degree_check(p, kind, c)
                       for c in universal_polys(p, n, kind))


@pytest.mark.parametrize("n", [1, 2])
def test_seven_ary_products_lift(n):
    # p = 7 needs two blocks past x, y, z, u, v; they sort after v and
    # before the scalar block a.  (7, 3, prod) is far beyond a test's time
    blocks = witt_blocks("prod", 7)
    assert len(set(blocks)) == 7 and blocks[:5] == ("x", "y", "z", "u", "v")
    keys = [var_key(f"{b}0") for b in blocks + ("a",)]
    assert keys == sorted(keys) and all(b.isalpha() for b in blocks)
    coords = universal_polys(7, n, "prod")
    assert all(polar_degree_check(7, "prod", c) for c in coords)
    targets = _targets(7, n, "prod")
    for m in range(n):
        assert ghost_of_coords(7, coords, m) == targets[m]


def test_polar_degree_check_rejects():
    assert not polar_degree_check(3, "sum", V("x0") * V("y0"))
    # p = 2 is vacuous
    assert polar_degree_check(2, "sum", V("x0") * V("y0"))


def test_scalar_vs_module_axioms_on_ghosts():
    # scalar target is w(a) * w(x); check the distributive ghost identity
    p, n = 3, 2
    C = universal_polys(p, n, "scalar")
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
        bind_f = {f"x{i}": C[i] for i in range(n + 1)}
        lhs = [F[m].substitute(bind_f) for m in range(n)]
        bind_c = {f"x{i}": F[i] for i in range(n)}
        bind_c.update({f"a{i}": V(f"a{i}") ** p for i in range(n)})
        rhs = [C2.substitute(bind_c)
               for C2 in universal_polys(p, n, "scalar")]
        for m in range(n):
            assert divisible_by(lhs[m] - rhs[m], p)
        ga = ghost_polys(p, n + 1, "a")
        gx = ghost_polys(p, n + 1, "x")
        for m in range(n):
            diff = ghost_of_coords(p, lhs, m) - ghost_of_coords(p, rhs, m)
            phi_a = frobenius_vars(ga[m], p)
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
        lhs = [c.substitute(bind) for c in Cn1]  # a . V(x)
        bind2 = {f"a{i}": V(f"a{i}") ** p for i in range(n)}
        bind2.update({f"x{i}": xs[i] for i in range(n)})
        inner = [c.substitute(bind2) for c in Cn]  # phi(a) . x
        rhs = [MultiPoly.zero()] + inner
        for m in range(n + 1):
            assert divisible_by(lhs[m] - rhs[m], p)


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


def test_congruence_checked_in_the_kill_quotient():
    x = V("x0")
    # killing x^2 leaves phi(x) = 0 in the quotient, so level 1 fails there
    kill_sq = lambda e: e[0] == 2  # noqa: E731 -- not stable under x -> x^2
    assert lift_level(2, [x, x ** 2]) is None
    assert congruence_level(2, [x, x ** 2], kill_sq) == 1
    with pytest.raises(DworkCongruenceFailed) as err:
        dwork_lift(2, [x, x ** 2], kill=kill_sq)
    assert err.value.level == 1
    # a Frobenius-stable ideal (degree >= 4) keeps the congruence
    kill_deg = lambda e: sum(e) >= 4  # noqa: E731
    comps = dwork_lift(2, [x, x ** 2, MultiPoly.zero()], kill=kill_deg)
    assert comps[0] == x and all(c.is_zero() for c in comps[1:])


# The monomials that the cap of `wittmod._plan` kills form an ideal
# stable under v -> v^p, so reducing modulo it is a ring map that commutes
# with the Frobenius lift and with the ghost map: the lift in the quotient
# is the image of the full lift, which is the full lift with the killed
# monomials dropped.

@pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (3, 4)])
@pytest.mark.parametrize("kind", ["sum", "prod", "scalar"])
def test_kill_lift_drops_the_killed_monomials_of_the_full_lift(p, n, kind):
    # wittmod._plan's cap: Witt-block degree >= L, the scalars a_i free
    targets = _targets(p, n, kind)
    full = universal_polys(p, n, kind)
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
    # two monomial ideals at once, each stable under v -> v^p: total degree
    # >= t_total, or degree in the deep window positions >= t_deep
    for m in (1, 2, 3):
        targets = _targets(p, m + 1, op)
        names = targets[0].vars
        full = universal_polys(p, m + 1, op)
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


# Perturbed ghost targets: the lift's first failed division must come at
# the level of the first failed congruence.  Lengths keep every lift small.
_PERTURB_SHAPES = [(2, 3), (3, 3), (5, 2)]


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(_PERTURB_SHAPES), kind=st.sampled_from(KINDS),
       data=st.data())
def test_lift_fails_where_the_congruence_fails(shape, kind, data):
    p, top = shape
    n = data.draw(st.integers(1, top), label="n")
    targets = list(_targets(p, n, kind))
    names = targets[0].vars
    for _ in range(data.draw(st.integers(0, 3), label="perturbations")):
        m = data.draw(st.integers(0, n - 1), label="level")
        exp = tuple(data.draw(st.lists(st.integers(0, 2), min_size=len(names),
                                       max_size=len(names)), label="exp"))
        coeff = data.draw(st.integers(-2 * p ** n, 2 * p ** n)
                          .filter(bool), label="coeff")
        targets[m] = targets[m] + MultiPoly.monomial(names, exp, coeff)
    cap = data.draw(st.one_of(st.none(), st.integers(1, 2 * p + 1)),
                    label="cap")
    # total degree >= cap is an ideal that v -> v^p maps into itself
    kill = None if cap is None else (lambda e: sum(e) >= cap)
    assert lift_level(p, targets, kill) == congruence_level(p, targets, kill)
