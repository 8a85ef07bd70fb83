"""The `wittpolar/1` wire format: the one place that knows payload shapes
and the names the command line accepts.

`SHAPES` declares the shape of each JSON payload the program reads, and
`check(name, value)` checks a value against one before any decoder reads
it.  It raises `WireError`, whose message starts with the path to the
first bad value, as in `witt-eval.expr(add).args: ...`.  Objects may carry
"format", which must then be FORMAT; keys a shape does not name are
ignored.  A shape fixes JSON types, keys, lengths and the resource
envelope below, and RULES the checks across a shape's keys, such as the
bounds on the work of checking (ASSOC) and of polarizing; what needs the
mathematics (p prime, an irreducible modulus, digits below p, mu keys in
range, (ASSOC), the algebra's dimension) is checked by the constructors.
An algebra's mu entries name distinct idx, and the command line reads its
files rejecting a JSON object that repeats a key: either repeat raises
`RepeatedKey`, since a reader would keep one value silently.
A shape is one of:

  int, str, dict          a JSON value of that type;
  range(lo, hi)           an int in that range;
  [item], [item, lo, hi]  a list of items, of length lo to hi (None: any);
  {key: shape}            an object; a key ending in "?" may be absent;
  (tag, {kind: shape})    a node: an object whose `tag` picks the shape
                          of the rest, nested at most MAX_DEPTH deep;
  "name"                  SHAPES["name"], then its rules in RULES;
  a function              f(value, path, depth), which checks the rest.
"""

from __future__ import annotations

from math import comb

FORMAT = "wittpolar/1"
MAX_DEPTH = 100         # nodes on the longest path of an expression
MAX_LENGTH = 64         # Witt coordinates; co-Witt indices 0 .. 1 - MAX_LENGTH
MAX_DIM = 64            # dimension of an algebra or a polarize table
MAX_ORDER = 2 ** 16     # elements of a field
#: pairs of basis multisets `ppolar.check_assoc` may walk to check an
#: algebra's (ASSOC), at most one mu kernel call each; a dense algebra at
#: this size takes about a second
MAX_ASSOC_PAIRS = 10 ** 4
#: fields of at most this many elements add and multiply through tables
#: (`gfq.FqField.tables`); larger ones compute every operation
MAX_TABLE_ORDER = 256
#: weighed operations `ppolar.polarize` may spend at worst on a table
#: (`polarize_ops`); a dense table at this size takes under a second over
#: any field
MAX_POLARIZE_OPS = 10 ** 7
#: the largest `fgl --precision`; a run at this precision takes under a
#: second, and each doubling costs about eight times as much
MAX_PRECISION = 32

# The names the command line accepts, here so that building its parser
# loads no module that computes.
KINDS = ("sum", "neg", "prod", "frob", "scalar")    # universal families
CW_ARITY = {"validate": 1, "add": 2, "f": 1, "v": 1}    # co-Witt ops
SUITES = ("ghost-roundtrip", "polar-degree", "group-laws", "fv-relations",
          "teichmuller", "dwork", "polarization-invariance", "etale",
          "idempotent", "fgl", "cowitt", "star-groups")     # verify suites


class WireError(ValueError):
    """A payload that does not have its declared shape."""


class RepeatedKey(WireError):
    """A payload that names one key twice: a JSON object key, or the idx
    of two mu entries.  A reader would keep one of the two values
    silently."""


def check(name: str, value):
    """value, after checking it against the shape called name."""
    _check(name, value, name, 0)
    return value


def _fail(path: str, problem: str):
    raise WireError(f"{path}: {problem}")


def _check(shape, v, path: str, depth: int):
    if isinstance(shape, str):
        _check(SHAPES[shape], v, path, depth)
        for test, problem in RULES.get(shape, ()):
            if not test(v):
                _fail(path, problem)
    elif isinstance(shape, type):
        if type(v) is not shape:
            _fail(path, f"must be a {shape.__name__}, got {v!r:.40}")
    elif isinstance(shape, range):
        if type(v) is not int or v not in shape:
            _fail(path, f"must be an int in [{shape.start}, {shape[-1]}], "
                        f"got {v!r:.40}")
    elif isinstance(shape, list):
        item, lo, hi = shape if len(shape) == 3 else (shape[0], 0, None)
        _check(list, v, path, depth)
        if len(v) < lo or hi is not None and len(v) > hi:
            want = (f"at least {lo}" if hi is None else
                    lo if hi == lo else f"{lo} to {hi}")
            _fail(path, f"must have length {want}, got {len(v)}")
        for i, x in enumerate(v):
            _check(item, x, f"{path}[{i}]", depth)
    elif isinstance(shape, tuple):
        tag, kinds = shape
        kind = v.get(tag) if type(v) is dict else None
        if type(kind) is not str or kind not in kinds:
            _fail(path, f"must be an object whose {tag!r} is one of "
                        f"{', '.join(kinds)}")
        if depth >= MAX_DEPTH:
            _fail(path, f"nodes nest at most {MAX_DEPTH} deep")
        _check(kinds[kind], v, f"{path}({kind})", depth + 1)
    elif isinstance(shape, dict):
        _check(dict, v, path, depth)
        if v.get("format", FORMAT) != FORMAT:
            _fail(f"{path}.format", f"must be {FORMAT!r}")
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in v:
                _check(sub, v[name], f"{path}.{name}", depth)
            elif name == key:
                _fail(path, f"missing key {key!r}")
    else:
        shape(v, path, depth)


#: The keys `CoWittElement.to_json` writes; no two of them name one index.
_EXCEPTION_KEYS = frozenset(str(-i) for i in range(MAX_LENGTH))


def _exceptions(v, path: str, depth: int):
    _check(dict, v, path, depth)
    for key, entry in v.items():
        if key not in _EXCEPTION_KEYS:
            _fail(path, f"exception index {key!r:.40} is not one of '0', "
                        f"'-1', .., '{1 - MAX_LENGTH}'")
        _check("vector", entry, f"{path}[{key!r}]", depth)


def _mu(v, path: str, depth: int):
    _check([{"idx": [int], "val": "vector"}], v, path, depth)
    first = {}
    for i, entry in enumerate(v):
        j = first.setdefault(tuple(entry["idx"]), i)
        if j != i:
            raise RepeatedKey(f"{path}[{i}].idx: {entry['idx']} repeats the "
                              f"idx of {path}[{j}]")


def _square(v) -> bool:
    d = len(v["table"])
    return v.get("dim", d) == d and all(
        len(row) == d and all(len(e) == d for e in row) for row in v["table"])


SHAPES = {
    "vector": [[int]],          # an algebra element: each coordinate's digits
    "field": {"p": range(2, MAX_ORDER + 1), "m": range(1, 17),
              "modulus": [int, 2, 17]},
    "algebra": {"field": "field", "dim": range(MAX_DIM + 1), "p?": int,
                "mu": _mu},
    "witt": {"coords": ["vector", 1, MAX_LENGTH]},
    "expr": ("op", {
        "lit": "witt",
        "teich": {"value": "vector", "length": range(1, MAX_LENGTH + 1)},
        "add": {"args": ["expr", 2, 2]},
        "prod": {"args": ["expr", 1, None]},
        "neg": {"arg": "expr"},
        "frob": {"arg": "expr"},
        "versch": {"arg": "expr"},
    }),
    "cowitt": {"tail": "vector", "exceptions?": _exceptions,
               "witness?": [int, 2, 2]},
    "polarize": {"field": "field", "dim?": range(MAX_DIM + 1),
                 "table": [["vector"], 0, MAX_DIM]},
    # the file `witt-eval` reads (`PPolarAlgebra.from_json` checks its
    # algebra), and the input files of each `cw` op
    "witt-eval": {"algebra": dict, "expr": "expr"},
    "cw": ("op", {op: {"inputs": [str, n, n]} for op, n in CW_ARITY.items()}),
}


def assoc_pairs(p: int, dim: int) -> int:
    """The pairs of basis multisets, of sizes p and p - 1, that
    `check_assoc` walks on an algebra of dimension dim."""
    return comb(dim + p - 1, p) * comb(dim + p - 2, p - 1)


def polarize_ops(p: int, m: int, dim: int) -> int:
    """The worst-case work of `ppolar.polarize` on a table of dimension dim
    over GF(p^m), in table lookups: 2 dim^3 `bilinear_product` calls check
    associativity and (p - 1) C(dim + p - 1, p) build mu.  Each call costs
    about 64 lookups of its own, whatever its size, plus at most dim^2
    field operations (dim terms of length dim), and a field of more than
    MAX_TABLE_ORDER elements computes each operation at the cost of about
    16 (m + 1) lookups."""
    calls = 2 * dim ** 3 + (p - 1) * comb(dim + p - 1, p)
    op = 1 if p ** m <= MAX_TABLE_ORDER else 16 * (m + 1)
    return calls * (64 + op * dim ** 2)


RULES = {
    "field": [(lambda v: v["p"] ** v["m"] <= MAX_ORDER,
               f"fields have at most {MAX_ORDER} elements")],
    "algebra": [
        (lambda v: v.get("p", v["field"]["p"]) == v["field"]["p"],
         "p must be the field characteristic"),
        (lambda v: assoc_pairs(v["field"]["p"], v["dim"]) <= MAX_ASSOC_PAIRS,
         f"checking (ASSOC) walks C(dim + p - 1, p) * C(dim + p - 2, p - 1) "
         f"pairs of basis multisets, at most {MAX_ASSOC_PAIRS}"),
    ],
    "polarize": [
        (_square, "table must hold dim rows of dim products e_i e_j, "
                  "each dim coordinates"),
        (lambda v: polarize_ops(v["field"]["p"], v["field"]["m"],
                                len(v["table"])) <= MAX_POLARIZE_OPS,
         f"polarizing makes 2 dim^3 + (p - 1) C(dim + p - 1, p) products, "
         f"each weighed as 64 + w dim^2 operations (w = 1 up to "
         f"{MAX_TABLE_ORDER} field elements, else 16 (m + 1)), "
         f"at most {MAX_POLARIZE_OPS}"),
    ],
}
