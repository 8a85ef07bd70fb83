"""Invariant suites behind the `verify` CLI subcommand.

Every suite returns (name, ok, detail) rows, is deterministic for a fixed
seed, and prints nothing itself; the CLI renders one pass/fail line per
row.  Oracles here are independent of the code paths they check: ghost
recomposition through `MultiPoly.pow` against the targets the lift
started from, brute-force point enumeration for honest algebras, windowed
co-Witt sums recomputed at two offsets, and hand-expanded identities.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import factorial

from . import cowitt, etale, fgl, samples, wire, wittmod
from .exact import MultiPoly
from .gfq import gf_build
from .wittuniv import (KINDS, _targets, block_vars, ghost_of_coords,
                       universal_polys, polar_degree_check, dwork_lift,
                       DworkCongruenceFailed)

ENVELOPE = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def suite_ghost_roundtrip(seed, p_filter):
    rows = []
    for p, n in ENVELOPE:
        if p_filter and p != p_filter:
            continue
        for kind in KINDS:
            coords = universal_polys(p, n, kind)
            targets = _targets(p, n, kind)
            ok = all(ghost_of_coords(p, coords, m) == targets[m]
                     for m in range(n))
            rows.append((f"ghost round trip p={p} n={n} {kind}", ok, "exact over Z"))
    return rows


def suite_polar_degree(seed, p_filter):
    rows = []
    for p, n in ENVELOPE:
        if p_filter and p != p_filter:
            continue
        for kind in KINDS:
            ok = all(polar_degree_check(p, kind, c)
                     for c in universal_polys(p, n, kind))
            rows.append((f"free polar membership p={p} n={n} {kind}", ok,
                         "all degrees = 1 mod p-1"))
    return rows


def _sym_bind(polys, blocks_to_coords, n):
    out = []
    for q in polys:
        bind = {}
        for block, coords in blocks_to_coords.items():
            for name, c in zip(block_vars(block, n + 1), coords):
                bind[name] = c
        out.append(q.substitute(bind))
    return out


def suite_group_laws(seed, p_filter):
    rows = []
    for p, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        if p_filter and p != p_filter:
            continue
        S = universal_polys(p, n, "sum")
        N = universal_polys(p, n, "neg")
        xs = [MultiPoly.variable(f"x{i}") for i in range(n)]
        ys = [MultiPoly.variable(f"y{i}") for i in range(n)]
        zs = [MultiPoly.variable(f"z{i}") for i in range(n)]
        sxy = _sym_bind(S, {"x": xs, "y": ys}, n - 1)
        syz = _sym_bind(S, {"x": ys, "y": zs}, n - 1)
        left = _sym_bind(S, {"x": sxy, "y": zs}, n - 1)
        right = _sym_bind(S, {"x": xs, "y": syz}, n - 1)
        rows.append((f"sum associativity p={p} n={n}",
                     left == right, "symbolic"))
        nx = _sym_bind(N, {"x": xs}, n - 1)
        zero = _sym_bind(S, {"x": xs, "y": nx}, n - 1)
        rows.append((f"sum inverse p={p} n={n}",
                     all(q.is_zero() for q in zero), "x + (-x) = 0"))
    return rows


def suite_fv_relations(seed, p_filter):
    rows = []
    for p, n in [(2, 2), (2, 3), (3, 2), (5, 1)]:
        if p_filter and p != p_filter:
            continue
        F = universal_polys(p, n, "frob")
        xs = [MultiPoly.variable(f"x{i}") for i in range(n)]
        vx = [MultiPoly.zero()] + xs
        fv = _sym_bind(F, {"x": vx}, n)
        ok = all(ghost_of_coords(p, fv, m) == ghost_of_coords(p, xs, m) * p
                 for m in range(n))
        rows.append((f"FV = p on ghosts p={p} n={n}", ok, "exact over Z"))
    # numeric Dieudonne relations in characteristic p
    rng = random.Random(seed)
    for field, dims, n in [(gf_build(2, 1), (3,), 3), (gf_build(2, 2), (2,), 2),
                           (gf_build(3, 2), (2,), 2)]:
        if p_filter and field.p != p_filter:
            continue
        ok = True
        for d in dims:
            A = samples.trunc_nil_polar(field, d + 1)
            for _ in range(8):
                x = samples.random_witt(rng, A, n)
                if wittmod.frobenius_charp(wittmod.verschiebung(x)).coords \
                        != wittmod.p_mul(x).coords:
                    ok = False
                a = samples.random_scalar(rng, field, n)
                lhs = wittmod.frobenius_charp(wittmod.scalar_mul(a, x))
                rhs = wittmod.scalar_mul(
                    wittmod.truncate(wittmod.scalar_phi(a), n - 1),
                    wittmod.frobenius_charp(x))
                if lhs.coords != rhs.coords:
                    ok = False
        rows.append((f"Dieudonne relations over GF({field.q})", ok,
                     "FV=p and F(a.x)=phi(a).F(x)"))
    return rows


def teichmuller_alternating_sum(p: int, k: int):
    """sum_{I subset of {1..k}} (-1)^|I| (sum_{i in I} u_i, 0) in W_2."""
    zero = MultiPoly.zero()
    acc = [zero, zero]
    for r in range(1, k + 1):
        for I in combinations(range(k), r):
            s = MultiPoly.zero()
            for i in I:
                s = s + MultiPoly.variable(f"u{i}")
            t = [s, zero]
            if r % 2:
                t = _sym_bind(universal_polys(p, 2, "neg"), {"x": t}, 1)
            acc = _sym_bind(universal_polys(p, 2, "sum"), {"x": acc, "y": t},
                            1)
    return acc


def multinomial_rhs(p: int, k: int) -> MultiPoly:
    """(-1)^k sum_{i_1+..+i_k=p, i_j>=1} (p; i_1..i_k)/p * u^i."""

    def comps(total, parts):
        if parts == 1:
            if total >= 1:
                yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest

    out = MultiPoly.zero()
    names = tuple(f"u{i}" for i in range(k))
    for comp in comps(p, k):
        coeff = factorial(p)
        for c in comp:
            coeff //= factorial(c)
        coeff //= p
        out = out + MultiPoly.monomial(names, comp, coeff)
    return -out if k % 2 else out


def suite_teichmuller(seed, p_filter):
    rows = []
    for p in (2, 3, 5):
        if p_filter and p != p_filter:
            continue
        v = teichmuller_alternating_sum(p, p)
        names = tuple(f"u{i}" for i in range(p))
        # over Z the coefficient is (-1)^p (p-1)!; Wilson makes it 1 mod p
        want = MultiPoly.monomial(names, (1,) * p,
                                  (-1) ** p * factorial(p - 1))
        ok = v[0].is_zero() and v[1] == want \
            and v[1].reduce_mod(p) == MultiPoly.monomial(names, (1,) * p, 1)
        rows.append((f"Teichmuller alternating sum p={p}", ok,
                     "(0, x_1...x_p) mod p; (-1)^p (p-1)! over Z"))
    if not p_filter or p_filter == 3:
        v = teichmuller_alternating_sum(3, 3)
        ok = v[0].is_zero() and v[1] == multinomial_rhs(3, 3)
        rows.append(("Teichmuller multinomial identity p=3 k=3", ok,
                     "signed multinomial RHS, exact"))
    return rows


def suite_dwork(seed, p_filter):
    rows = []
    if p_filter and p_filter != 2:
        return rows
    x = MultiPoly.variable("x0")
    comps = dwork_lift(2, [x, x ** 2, x ** 4, x ** 8])
    rows.append(("Dwork membership (x, x^2, x^4, x^8)",
                 comps[0] == x and all(c.is_zero() for c in comps[1:]),
                 "lift is (x, 0, 0, 0)"))
    try:
        dwork_lift(2, [x, x, x])
        rows.append(("Dwork rejection (x, x, x)", False, "not rejected"))
    except DworkCongruenceFailed as e:
        rows.append(("Dwork rejection (x, x, x)", e.level == 1,
                     f"rejected at level {e.level}"))
    return rows


def suite_polarization_invariance(seed, p_filter):
    rows = []
    for q, p in ((2, 2), (3, 3)):
        if p_filter and p != p_filter:
            continue
        field = gf_build(p, 1)
        A = samples.trunc_nil_polar(field, p)
        B = samples.trivial_polar(field, p - 1)
        rows.append((f"mu tensors agree for x k[x]/(x^p) vs k^(p-1), q={q}",
                     A.mu == B.mu == {}, "both zero"))
        ok = True
        for n in (1, 2):
            elems = list(iproduct(range(q ** A.dim), repeat=n))

            def decode(alg):
                """Every index tuple as a Witt vector over alg, decoded once
                and reused in each pair it takes part in."""
                return [wittmod.witt(alg, [
                    tuple((i // q ** t) % q for t in range(alg.dim))
                    for i in idx]) for idx in elems]
            xa, xb = decode(A), decode(B)
            for a, b in zip(xa, xb):
                for c, d in zip(xa, xb):
                    if wittmod.w_add(a, c).coords != wittmod.w_add(b, d).coords:
                        ok = False
        rows.append((f"addition tables agree, q={q}, n<=2", ok, "exhaustive"))
    return rows


def brute_point_count(field, table) -> int:
    """Count nonzero multiplicative linear maps to the algebraic closure by
    exhausting maps into each extension of degree <= dim and grading by
    exact image degree.  Independent of the decomposition machinery."""
    from .gfq import embed
    d = len(table)
    n_t = {}
    for t in range(1, d + 1):
        big = gf_build(field.p, field.m * t)
        sparse = [[tuple((k, embed(field, big, c))
                         for k, c in enumerate(table[i][j]) if c)
                   for j in range(d)] for i in range(d)]
        mul, add = big.mul, big.add
        count = 0
        for images in iproduct(range(big.q), repeat=d):
            good = True
            for i in range(d):
                im_i = images[i]
                row = sparse[i]
                for j in range(i + 1):
                    rhs = 0
                    for k, c in row[j]:
                        v = images[k]
                        if v:
                            rhs = add(rhs, mul(c, v))
                    if mul(im_i, images[j]) != rhs:
                        good = False
                        break
                if not good:
                    break
            if good and any(images):
                count += 1
        n_t[t] = count
    exact = {}
    for t in range(1, d + 1):
        exact[t] = n_t[t] - sum(exact[u] for u in range(1, t) if t % u == 0)
    return sum(exact.values())


def suite_etale(seed, p_filter):
    from .ppolar import polarize
    rows = []
    rng = random.Random(seed)
    for field in (gf_build(2, 1), gf_build(3, 1), gf_build(2, 2)):
        if p_filter and field.p != p_filter:
            continue
        ok = True
        for _ in range(4):
            n = rng.randrange(2, 4)
            A = samples.scramble(samples.split_polar(field, n), rng)
            if etale.decompose(A).count != n:
                ok = False
        rows.append((f"scrambled split algebras over GF({field.q})", ok,
                     "factor count recovered"))
        dec = etale.decompose(samples.field_ext_polar(field, 2))
        rows.append((f"quadratic extension over GF({field.q})",
                     dec.count == 2 and dec.orbits() == ((0, 1),),
                     "two conjugate factors, one orbit"))
        # keep the largest brute-force grids for the acceptance suite
        dim_cap = 3 if field.q <= 3 else 2
        tables = [samples.unital_poly_table(field, 2),
                  samples.field_ext_table(field, 2)]
        if dim_cap >= 3:
            tables.append(samples.field_ext_table(field, 3))
            tables.append(samples.product_table(
                field, [samples.field_ext_table(field, 2), [[(1,)]]]))
        ok = True
        for table in tables:
            A = polarize(field, table)
            if etale.geometric_points(A)[0] != brute_point_count(field, table):
                ok = False
        rows.append((f"points match brute-force homs over GF({field.q})",
                     ok, f"dims <= {dim_cap}"))
    return rows


def suite_idempotent(seed, p_filter):
    rows = []
    F2 = gf_build(2, 1)
    if not p_filter or p_filter == 2:
        B = samples.field_ext_polar(F2, 2)
        res = etale.find_idempotent(B, y=(0, 1))
        e = res.e
        ok = e == (1, 0) and res.algebra.ppow(e) == e
        rows.append(("quartic-field idempotent e = y + y^2 = 1", ok,
                     f"e = {e}"))
    rng = random.Random(seed)
    ok = True
    for _ in range(50):
        p = rng.choice([2, 3] if not p_filter else [p_filter])
        field = gf_build(p, 1)
        parts = [samples.field_ext_polar(field, rng.randrange(1, 3))
                 for _ in range(rng.randrange(1, 3))]
        A = parts[0]
        for part in parts[1:]:
            A = samples.polar_direct_sum(A, part)
        A = samples.scramble(A, rng)
        res = etale.find_idempotent(A)
        if not any(res.e) or res.algebra.ppow(res.e) != res.e:
            ok = False
    rows.append(("random reduced algebras give e^p = e, e != 0", ok,
                 "50 samples"))
    return rows


def suite_fgl(seed, p_filter):
    rows = []
    for p in (2, 3, 5):
        if p_filter and p != p_filter:
            continue
        coeffs = [Fraction(1)]
        i = 1
        while p ** i <= 25:
            coeffs.append(Fraction(1, p ** i))
            i += 1
        log = fgl.PTypicalLog(p, 25, tuple(coeffs))
        ok, off = fgl.support_check(fgl.exp_from_log(log), p)
        rows.append((f"exp support in 1 + i(p-1), p={p}, D=25", ok,
                     f"offenders {off}" if off else "clean"))
    for p in (2, 3):
        if p_filter and p != p_filter:
            continue
        law = fgl.group_law(fgl.typicalize_log(fgl.multiplicative_log(10), p), 10)
        rows.append((f"typicalized multiplicative law p={p}: integral, associative",
                     not law.denominator_offenders() and fgl.law_associative(law),
                     "D = 10"))
    return rows


def suite_cowitt(seed, p_filter):
    rows = []
    rng = random.Random(seed)
    for p, N in ((2, 4), (3, 3)):
        if p_filter and p != p_filter:
            continue
        field = gf_build(p, 1)
        A = samples.trunc_nil_polar(field, N)
        ok = True
        for _ in range(10):
            def rnd():
                exc = {-rng.randrange(0, 3): samples.random_vector(rng, A)
                       for _ in range(rng.randrange(0, 3))}
                return cowitt.CoWittElement(
                    A, samples.random_vector(rng, A), exc)
            x, y = rnd(), rnd()
            if cowitt._least_r((x, y)) is None:
                ok = False
                continue
            s = cowitt.cw_add(x, y)
            if s != cowitt.cw_add(y, x):
                ok = False
            v0 = cowitt.stabilized_entry([x, y], 1, "sum", start_m=0)
            v2 = cowitt.stabilized_entry([x, y], 1, "sum", start_m=2)
            if v0 != v2:
                ok = False
        rows.append((f"co-Witt stabilized sums p={p}", ok,
                     "commutative, offset independent"))
    return rows


def suite_star_groups(seed, p_filter):
    rows = []
    if not p_filter or p_filter == 2:
        F2 = gf_build(2, 1)
        A = samples.trunc_nil_polar(F2, 4)
        law = fgl.group_law(fgl.typicalize_log(fgl.multiplicative_log(6), 2), 6)
        G = fgl.mu_pinfty_group(A, law)
        rows.append(("unit group of order 8 is Z/4 x Z/2",
                     G.order() == 8 and G.abelian_invariants() == (4, 2),
                     "p-power torsion"))
    for p in (2, 3):
        if p_filter and p != p_filter:
            continue
        field = gf_build(p, 1)
        A = samples.trunc_nil_polar(field, p)
        B = samples.trivial_polar(field, p - 1)
        law = fgl.group_law(fgl.typicalize_log(fgl.multiplicative_log(4), p), 4)
        GA = fgl.mu_pinfty_group(A, law)
        GB = fgl.mu_pinfty_group(B, law)
        rows.append((f"polarization-invariant star groups p={p}",
                     GA.abelian_invariants() == GB.abelian_invariants(),
                     f"invariants {GA.abelian_invariants()}"))
    return rows


#: the suite function of each name in `wire.SUITES`: suite_<name>, with
#: "-" read as "_"
SUITES = {name: globals()["suite_" + name.replace("-", "_")]
          for name in wire.SUITES}


def run_suites(seed: int = 0, suites=None, p_filter=None) -> list:
    rows = []
    for name in sorted(SUITES):
        if suites and name not in suites:
            continue
        rows.extend(SUITES[name](seed, p_filter))
    return rows
