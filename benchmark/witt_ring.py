"""witt-ring: warm W_n(A) arithmetic in one process.

Algebras over GF(2), GF(4), GF(3) and GF(9): the nilpotent
pol(x F_q[x]/(x^N)), the split pol(F_q^k) (both mu != 0) and the
trivial-mu pair x F_q[x]/(x^p) and F_q^(p-1) with mu = 0.  Every round
applies w_add, w_neg, w_product, scalar_mul, frobenius_charp and
verschiebung at every length of every algebra to freshly drawn inputs.
Set-up lifts the universal polynomials cold into an empty cache.
"""

from __future__ import annotations

import random

import oracle

FIELDS = ((2, 1), (2, 2), (3, 1), (3, 2))
OPS = ("w_add", "w_neg", "w_product", "scalar_mul", "frobenius_charp",
       "verschiebung")
KINDS = ("sum", "neg", "prod", "scalar")
MIN_ROUNDS = 40        # 40 rounds of 264 operations: p99.9 has ten beyond
TRACE_ROUNDS = 40


def slots():
    """(algebra spec, lengths) for every algebra of the workload."""
    out = []
    for p, m in FIELDS:
        F = oracle.Field(p, m)
        long_ = (2, 3, 4)
        # n = 4 with mu != 0 is left to p = 2: at p = 3 it costs 10-200 ms a
        # call depending on the input, which would swamp every other slot
        short = (2, 3, 4) if p == 2 else (2, 3)
        out.append((oracle.nil_algebra(F, 5 if p == 2 else 4), short))
        out.append((oracle.split_algebra(F, 3 if p == 2 else 2), short))
        out.append((oracle.nil_algebra(F, p), long_))        # mu = 0
        out.append((oracle.zero_mu_algebra(F, p - 1), long_))
    return out


class State:
    """Program-side algebras plus the oracle for each slot."""

    def __init__(self):
        from wittpolar.ppolar import PPolarAlgebra
        self.slots = []
        for spec, lengths in slots():
            A = PPolarAlgebra.from_json(spec.to_json())
            self.slots.append((spec, A, oracle.WittOracle(spec), lengths))


def setup():
    """Build the algebras, lift every universal polynomial the workload uses
    into the (empty) cache, and make the first call of each operation."""
    from wittpolar import wittuniv
    state = State()
    for p in sorted({spec.p for spec, _, _, _ in state.slots}):
        lengths = sorted({n for spec, _, _, ls in state.slots
                          if spec.p == p for n in ls})
        for n in lengths:
            for kind in KINDS:
                wittuniv.universal_polys(p, n, kind)
    rng = random.Random(0)
    for call, _ in make_round(state, rng, 0):
        call()
    return state


def make_round(state, rng, index):
    """One round: every operation on every slot, inputs drawn from rng."""
    from wittpolar import wittmod
    ops = []
    for spec, A, W, lengths in state.slots:
        F, p = spec.F, spec.p
        zero_mu = not spec.mu_tensor()
        for n in lengths:
            def draw():
                return tuple(spec.random_vector(rng) for _ in range(n))
            x, y = draw(), draw()
            factors = [draw() for _ in range(p)]
            a = tuple(rng.randrange(F.q) for _ in range(n))
            X, Y = wittmod.witt(A, x), wittmod.witt(A, y)
            Fs = [wittmod.witt(A, f) for f in factors]
            S = wittmod.scalar_witt(A.field, a)
            want_add = [W.add(x, y)]
            want_prod = [W.product(factors)]
            if zero_mu:
                # mu = 0: the sum is coordinatewise and every product is 0
                want_add.append(tuple(oracle.vec_add(F, u, v)
                                      for u, v in zip(x, y)))
                want_prod.append(((0,) * spec.dim,) * n)
            tag = f"{spec.kind}{spec.size}/GF({F.q}) n={n}"
            ops += [
                (lambda X=X, Y=Y: wittmod.w_add(X, Y),
                 _expect(f"w_add {tag}", *want_add)),
                (lambda X=X: wittmod.w_neg(X), _expect(f"w_neg {tag}", W.neg(x))),
                (lambda Fs=Fs: wittmod.w_product(Fs),
                 _expect(f"w_product {tag}", *want_prod)),
                (lambda S=S, X=X: wittmod.scalar_mul(S, X),
                 _expect(f"scalar_mul {tag}", W.scalar(a, x))),
                (lambda X=X: wittmod.frobenius_charp(X),
                 _expect(f"frobenius_charp {tag}", W.frobenius(x))),
                (lambda X=X: wittmod.verschiebung(X),
                 _expect(f"verschiebung {tag}", W.verschiebung(x))),
            ]
    return ops


def _expect(tag, *wants):
    """A check that the result's coordinates equal every expected value."""
    def check(res):
        for want in wants:
            if res.coords != want:
                return f"{tag}: got {res.coords}, expected {want}"
        return None
    return check


def ops_per_round(state):
    return len(OPS) * sum(len(ls) for _, _, _, ls in state.slots)
