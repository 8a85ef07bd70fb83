"""Idempotent splitting of reduced p-polar algebras and geometric points.

`decompose` quotients by the nilradical, then splits each factor along
y -> e^(p-1) y for an idempotent e (e^p = e) from the F_p-linear kernel of
x -> x^p - x, extending scalars by the factor's dimension when that kernel
is its unity line alone; each factor carries its own induced algebra.
Every choice (echelon-ordered e, FIFO work list) is deterministic.
`find_idempotent` instead builds one e from a Frobenius-power dependence
y^(p^j) = sum alpha_i y^(p^i) and a root of its additive polynomial.

The functor to free abelian groups on split objects replaces nonzero
matrix entries of row-wise homomorphisms by 1; rows are admissible only if
zero or supported on a single prime-field entry.
"""

from __future__ import annotations

from math import lcm

from .gfq import (FqField, additive_map_kernel, additive_poly_roots, combine,
                  echelon_reduce, embed, gf_build, linear_kernel, rref,
                  solve, span_elements)
from .ppolar import (PPolarAlgebra, check_assoc, extend_scalars,
                     induced_algebra, nilradical, quotient)
from .record import Record


class NotReduced(ValueError):
    """Operation requires a vanishing nilradical."""


class ExtensionCapExceeded(ValueError, RuntimeError):
    """No splitting idempotent found within the extension budget.  A
    ValueError, so the command line reports it as bad input."""


class NotAMorphism(ValueError):
    """Matrix rows do not describe a p-polar homomorphism."""


def _span_coords(field: FqField, rows, v):
    """Coordinates of v in reduced echelon rows (as `rref` returns them), or
    None: v's entries at the pivots, when its residue is zero."""
    if any(echelon_reduce(field, rows, v)):
        return None
    return tuple(v[next(i for i, c in enumerate(r) if c)] for r in rows)


def subalgebra(A: PPolarAlgebra, rows) -> PPolarAlgebra:
    """The induced structure on a mu-closed subspace, given by `rref` rows."""

    def coords(v):
        c = _span_coords(A.field, rows, v)
        if c is None:
            raise ValueError("subspace is not closed under mu")
        return c

    return induced_algebra(A, rows, coords)


def power_dependence(A: PPolarAlgebra, y):
    """Minimal j >= 1 with y^(p^j) in span(y, .., y^(p^(j-1))), plus the
    coefficients alpha of that dependence."""
    F = A.field
    powers = [tuple(y)]
    while True:
        nxt = A.ppow(powers[-1])
        # solve sum alpha_i powers[i] = nxt
        rows = [[w[r] for w in powers] for r in range(A.dim)]
        sol = solve(F, rows, nxt)
        if sol is not None:
            return len(powers), sol
        powers.append(nxt)
        if len(powers) > A.dim:
            raise AssertionError("no Frobenius dependence within dimension")


def _additive_poly(field: FqField, j: int, alphas) -> list:
    """Coefficients c_t of sum_t c_t X^(p^t) whose roots build idempotents."""
    coeffs = [0] * (j + 1)
    coeffs[0] = field.neg(1)
    for i in range(j):
        t = j - i
        coeffs[t] = field.add(coeffs[t], field.frobenius(alphas[i], t - 1))
    return coeffs


def _build_e(A: PPolarAlgebra, y, j: int, alphas, beta):
    """e = sum_l (sum_{i<=l} (alpha_i beta^p)^(p^(l-i))) y^(p^l)."""
    F = A.field
    coeffs, powers = [], [tuple(y)]
    for l in range(j):
        coeff = 0
        for i in range(l + 1):
            base = F.mul(alphas[i], F.frobenius(beta, 1))
            coeff = F.add(coeff, F.frobenius(base, l - i))
        coeffs.append(coeff)
    for _ in range(j - 1):
        powers.append(A.ppow(powers[-1]))
    return combine(F, coeffs, powers)


class IdempotentResult(Record):
    __slots__ = ("e", "extension_degree", "algebra")

    def __init__(self, e: tuple, extension_degree: int,
                 algebra: PPolarAlgebra):
        self._set_fields(e, extension_degree, algebra)


def find_idempotent(A: PPolarAlgebra, y=None) -> IdempotentResult:
    """A nonzero e with e^p = e, following the power-dependence recipe.

    Searches extension degrees 1..p^j for a nonzero root of the additive
    polynomial; the returned algebra is A extended by the degree used.
    """
    if not nilradical(A).is_zero():
        raise NotReduced("algebra has nonzero nilradical")
    if A.dim == 0:
        raise NotReduced("zero algebra has no idempotent")
    y0 = tuple(y) if y is not None else A.basis_vector(0)
    j, alphas = power_dependence(A, y0)
    for t in range(1, A.p ** j + 1):
        At = extend_scalars(A, t)
        Ft = At.field
        yt = tuple(embed(A.field, Ft, a) for a in y0)
        alphas_t = [embed(A.field, Ft, a) for a in alphas]
        coeffs = _additive_poly(Ft, j, alphas_t)
        basis = additive_poly_roots(Ft, coeffs)
        for (beta,) in span_elements(Ft, [(b,) for b in basis], Ft.p):
            e = _build_e(At, yt, j, alphas_t, beta)
            if any(e):
                if At.ppow(e) != e:
                    raise AssertionError("constructed e fails e^p = e")
                return IdempotentResult(e, t, At)
    raise ExtensionCapExceeded(
        f"no nonzero root within extension degree {A.p ** j}")


def split_once(A: PPolarAlgebra, e):
    """Kernel and image of y -> e^(p-1) y as induced p-polar algebras.

    Returns ((ker_alg, ker_rows), (im_alg, im_rows)) with rows in A's
    coordinates; both parts are re-validated against (ASSOC).
    """
    F = A.field
    if A.ppow(e) != tuple(e) or not any(e):
        raise ValueError("e must be a nonzero idempotent")
    cols = [A.mu_eval([e] * (A.p - 1) + [A.basis_vector(i)])
            for i in range(A.dim)]
    if any(combine(F, col, cols) != col for col in cols):
        raise AssertionError("projection is not idempotent")
    ker_rows = rref(F, linear_kernel(F, list(zip(*cols))))[0]
    im_rows = rref(F, cols)[0]
    ker = subalgebra(A, ker_rows)
    im = subalgebra(A, im_rows)
    for part in (ker, im):
        ok, witness = check_assoc(part)
        if not ok:
            raise AssertionError(f"split factor lost associativity: {witness}")
    return (ker, ker_rows), (im, im_rows)


class Decomposition(Record):
    """Full splitting of the reduced quotient over a finite extension.

    `factors` holds the echelon row spanning each 1-dim factor, and
    `struct_consts` the c with mu(v,..,v) = c v per factor."""

    __slots__ = ("base_field", "field", "extension_degree", "nil_dim",
                 "reduced_dim", "factors", "struct_consts",
                 "frobenius_permutation", "change_of_basis")

    def __init__(self, base_field: FqField, field: FqField,
                 extension_degree: int, nil_dim: int, reduced_dim: int,
                 factors: tuple, struct_consts: tuple,
                 frobenius_permutation: tuple, change_of_basis: tuple):
        self._set_fields(base_field, field, extension_degree, nil_dim,
                         reduced_dim, factors, struct_consts,
                         frobenius_permutation, change_of_basis)

    @property
    def count(self) -> int:
        return len(self.factors)

    def orbits(self) -> tuple:
        return tuple(sorted(tuple(sorted(cyc))
                            for cyc in _cycles(self.frobenius_permutation)))

    def to_json(self) -> dict:
        F = self.field
        perm = _cycle_notation(self.frobenius_permutation)
        return {
            "extension_degree": self.extension_degree,
            "field": F.to_json(),
            "nil_dim": self.nil_dim,
            "factors": [[list(F.coords(a)) for a in row]
                        for row in self.factors],
            "struct_consts": [list(F.coords(c)) for c in self.struct_consts],
            "frobenius_permutation": perm,
            "change_of_basis": [[list(F.coords(a)) for a in row]
                                for row in self.change_of_basis],
        }


def _cycles(perm: tuple) -> list:
    """The cycles of perm, ordered by their least elements, each listed
    from its least element in the order perm visits it."""
    seen = set()
    out = []
    for i in range(len(perm)):
        cyc = []
        j = i
        while j not in seen:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        if cyc:
            out.append(cyc)
    return out


def _cycle_notation(perm: tuple) -> str:
    bits = ["(" + " ".join(map(str, cyc)) + ")"
            for cyc in _cycles(perm) if len(cyc) > 1]
    return "".join(bits) if bits else "id"


def _proper_split(sub: PPolarAlgebra):
    """A proper idempotent split of `sub` over its own field, or None.

    In characteristic p the map x -> x^p - x is F_p-linear, so the set of
    all e with e^p = e is computed as one kernel; only a unity line there
    means the factor needs a scalar extension first.
    """
    F = sub.field
    basis = additive_map_kernel(
        F, lambda v: combine(F, (1, F.neg(1)), (sub.ppow(v), v)), sub.dim)
    for e in span_elements(F, basis, F.p):
        if sub.ppow(e) != e:
            raise AssertionError("kernel element fails e^p = e")
        (ker, ker_rows), (im, im_rows) = split_once(sub, e)
        if 0 < len(im_rows) < sub.dim:
            return (ker, ker_rows), (im, im_rows)
    return None


def decompose(A: PPolarAlgebra) -> Decomposition:
    """Split A/Nil(A) into one-dimensional factors after a finite extension,
    recording the Frobenius permutation and the change of basis.

    Each factor is its induced algebra with its `rref` rows in B's
    coordinates.  A split keeps `split_once`'s parts: their rows are reduced
    echelon in the factor's coordinates, so mapped back by one `combine`
    they are reduced echelon in B's.  An extension extends every carried
    algebra, and B = A when Nil(A) = 0."""
    N = nilradical(A)
    B = quotient(A, N)[0] if N.dim else A
    base = A.field
    if B.dim == 0:
        return Decomposition(base, base, 1, N.dim, 0, (), (), (), ())
    ext = 1
    cap = lcm(*range(1, B.dim + 1)) * max(2, B.dim)
    work = [(B, tuple(B.basis_vector(i) for i in range(B.dim)))]
    done = []
    while work:
        sub, rows = work.pop(0)
        if len(rows) == 1:
            done.append((sub, rows))
            continue
        split = _proper_split(sub)
        if split is None:
            t = sub.dim
            ext *= t
            if ext > cap:
                raise ExtensionCapExceeded(
                    f"still unsplit at extension degree {ext}")
            F = sub.field
            big = gf_build(F.p, F.m * t)
            lift = lambda S, rs: (extend_scalars(S, t), tuple(
                tuple(embed(F, big, a) for a in r) for r in rs))
            work = [lift(*item) for item in [(sub, rows)] + work]
            done = [lift(*item) for item in done]
            continue
        for part, part_rows in split:
            work.append((part, tuple(combine(sub.field, pr, rows)
                                     for pr in part_rows)))
    done.sort(key=lambda item: item[1])
    factors = [rows[0] for _, rows in done]
    F = done[0][0].field
    # mu(v, .., v) = c v, read from each line's own algebra
    consts = tuple(S.mu.get((0,) * S.p, (0,))[0] for S, _ in done)
    if not all(consts):
        raise AssertionError("factor is not a field polarization")
    # Frobenius of the base field permutes the factor lines
    perm = []
    for v in factors:
        w = tuple(F.frobenius(a, base.m) for a in v)
        perm.append(factors.index(rref(F, [w])[0][0]))
    if sorted(perm) != list(range(len(factors))):
        raise AssertionError("Frobenius does not permute the factors")
    return Decomposition(base, F, ext, N.dim, B.dim, tuple(factors),
                         consts, tuple(perm), tuple(factors))


def geometric_points(A: PPolarAlgebra):
    """(number of factors of the split reduced quotient, Frobenius orbits)."""
    dec = decompose(A)
    return dec.count, dec.orbits()


# -- the 0/1 functor on split objects -----------------------------------------


def hom_check(field: FqField, v) -> bool:
    """Row vectors describing p-polar maps (F_q^n, split) -> F_q: zero or
    exactly one nonzero prime-field entry."""
    nz = [a for a in v if a]
    if not nz:
        return True
    return len(nz) == 1 and field.in_prime_field(nz[0])


def phi_matrix(field: FqField, M) -> tuple:
    """Replace every nonzero entry by 1; rows must pass hom_check."""
    for row in M:
        if not hom_check(field, row):
            raise NotAMorphism(f"row {row} is not a homomorphism")
    return tuple(tuple(1 if a else 0 for a in row) for row in M)
