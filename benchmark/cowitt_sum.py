"""cowitt-sum: co-Witt sums and negations on freshly drawn valid elements.

Algebras pol(x F_q[x]/(x^N)) with q in {2, 3, 4} and N in {4, 5}.  Each
round draws, per algebra, one pair with finite support (zero tails: the
exact shortcut) and one pair with nonzero tails (windowed stabilization),
with 1 to 3 exceptions each, and runs x + y, y + x, -x and x + (-x), the negation made by the oracle.
"""

from __future__ import annotations

import random

import oracle

ALGEBRAS = ((2, 1, 4), (2, 1, 5), (3, 1, 4), (3, 1, 5), (2, 2, 4), (2, 2, 5))
MIN_ROUNDS = 5         # 5 rounds of 48 operations: p95 has ten beyond
TRACE_ROUNDS = 3


class State:
    def __init__(self):
        from wittpolar.ppolar import PPolarAlgebra
        self.algebras = []
        for p, m, N in ALGEBRAS:
            spec = oracle.nil_algebra(oracle.Field(p, m), N)
            A = PPolarAlgebra.from_json(spec.to_json())
            self.algebras.append((spec, A, oracle.CoWittOracle(spec)))


def setup():
    """Build the algebras and make the first sum and negation on each."""
    from wittpolar import cowitt
    state = State()
    rng = random.Random(0)
    for spec, A, _ in state.algebras:
        x, y = (_element(cowitt, spec, A, *_draw(spec, rng, True, 3))
                for _ in range(2))
        cowitt.cw_add(x, y)
        cowitt.cw_neg(x)
    return state


def _draw(spec, rng, with_tail, depth):
    """(tail, exceptions) with entries at indices 0 .. -(depth-1)."""
    tail = spec.random_vector(rng) if with_tail else (0,) * spec.dim
    return tail, {-i: spec.random_vector(rng) for i in range(depth)}


def _element(cowitt, spec, A, tail, exceptions):
    return cowitt.CoWittElement(A, tail, exceptions,
                                oracle.min_witness(spec, tail, exceptions))


def make_round(state, rng, index):
    """One round; x and y have 1 + j % 3 and 1 + (j + 1) % 3 exceptions on
    the j-th algebra, so each slot does a like amount of work every round."""
    from wittpolar import cowitt
    ops = []
    for j, (spec, A, O) in enumerate(state.algebras):
        for with_tail in (False, True):
            ex = _draw(spec, rng, with_tail, 1 + j % 3)
            ey = _draw(spec, rng, with_tail, 1 + (j + 1) % 3)
            x, y = (_element(cowitt, spec, A, *e) for e in (ex, ey))
            ntail, nent = O.apply("neg", [ex])
            en = (ntail, {-n: v for n, v in nent.items()})
            nx = _element(cowitt, spec, A, *en)
            want_sum = O.apply("sum", [ex, ey])
            tag = f"GF({spec.F.q}) N={spec.size} tail={with_tail}"
            zero = ((0,) * spec.dim, {0: (0,) * spec.dim})
            ops += [
                (lambda x=x, y=y: cowitt.cw_add(x, y),
                 _expect(f"x+y {tag}", want_sum)),
                (lambda x=x, y=y: cowitt.cw_add(y, x),
                 _expect(f"y+x {tag}", want_sum)),
                (lambda x=x: cowitt.cw_neg(x),
                 _expect(f"-x {tag}", (ntail, nent))),
                (lambda x=x, nx=nx: cowitt.cw_add(x, nx),
                 _expect(f"x+(-x) {tag}", zero)),
            ]
    return ops


def _expect(tag, want):
    """The result's tail and its entries at -n must match (tail, {n: v})."""
    tail, entries = want

    def check(res):
        got = (res.tail, {n: res.entry(-n) for n in entries})
        if got != (tail, entries):
            return f"{tag}: got {got}, expected {(tail, entries)}"
        if res.depth() > max(entries):
            return f"{tag}: exception deeper than the oracle's entries"
        return None
    return check


def ops_per_round(state):
    return 4 * 2 * len(state.algebras)
