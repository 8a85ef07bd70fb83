"""Command-line front door with stable, deterministic JSON file formats.

Every payload carries "format": "wittpolar/1", keys are sorted, big
integers are decimal strings, and nothing timestamped enters an output,
so identical invocations are byte-identical.  Validation problems exit 1
with a structured JSON diagnostic on stderr; an internal invariant
violation (a bug) exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import cowitt, etale, fgl, verify as verify_mod, wittmod, wittuniv
from .gfq import FqField
from .ppolar import PPolarAlgebra, polarize
from .wittuniv import FORMAT


#: `fgl` certifies associativity up to this precision and prints null above
#: it; at 16 the check takes well under a second.
ASSOCIATIVE_MAX_PRECISION = 16


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(obj, out_path):
    text = _dump(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError(f"{path} must hold a JSON object")
    return data


def _load_algebra(path) -> PPolarAlgebra:
    data = _load(path)
    if data.get("format", FORMAT) != FORMAT:
        raise CliError(f"unsupported format in {path}")
    return PPolarAlgebra.from_json(data)


def _algebra_json(A: PPolarAlgebra) -> dict:
    out = A.to_json()
    out["format"] = FORMAT
    return out


# -- subcommands --------------------------------------------------------------


def cmd_witt_poly(args) -> int:
    polys = wittuniv.universal_polys(args.p, args.n, args.kind)
    _emit(wittuniv.family_to_json(args.p, args.n, args.kind, polys), args.out)
    return 0


def _part(node: dict, key: str, kind: type):
    """node[key], which must be a JSON value of the given Python type."""
    value = node.get(key)
    if type(value) is not kind:
        raise CliError(f"{node['op']!r} node: {key!r} must be a JSON "
                       f"{kind.__name__}, got {value!r}")
    return value


def _eval_expr(A: PPolarAlgebra, node) -> wittmod.WittVector:
    if not isinstance(node, dict) or "op" not in node:
        raise CliError("expression nodes are objects with an 'op' key")
    op = node["op"]
    if op == "lit":
        return wittmod.witt_from_json(A, node)
    if op == "teich":
        a = tuple(A.field.from_coords(c) for c in _part(node, "value", list))
        return wittmod.teichmuller(A, a, _part(node, "length", int))
    if op == "add":
        x, y = (_eval_expr(A, a) for a in _part(node, "args", list))
        return wittmod.w_add(x, y)
    if op == "neg":
        return wittmod.w_neg(_eval_expr(A, node["arg"]))
    if op == "prod":
        return wittmod.w_product([_eval_expr(A, a)
                                  for a in _part(node, "args", list)])
    if op == "frob":
        return wittmod.frobenius_charp(_eval_expr(A, node["arg"]))
    if op == "versch":
        return wittmod.verschiebung(_eval_expr(A, node["arg"]))
    raise CliError(f"unknown expression op {op!r}")


def cmd_witt_eval(args) -> int:
    data = _load(args.expr)
    if data.get("format", FORMAT) != FORMAT:
        raise CliError("unsupported format")
    A = PPolarAlgebra.from_json(data["algebra"])
    result = _eval_expr(A, data["expr"])
    out = result.to_json()
    out["algebra"] = A.to_json()
    out["format"] = FORMAT
    _emit(out, args.out)
    return 0


def cmd_cw(args) -> int:
    A = _load_algebra(args.algebra)
    xs = [cowitt.cw_from_json(A, _load(p)) for p in args.inputs]
    if args.op == "validate":
        (x,) = xs
        out = {"format": FORMAT, "valid": cowitt.cw_validate(x)}
        w = cowitt.witness_search(x)
        if w is not None:
            out["witness"] = list(w)
        _emit(out, args.out)
        return 0
    for x, path in zip(xs, args.inputs):
        if not cowitt.cw_validate(x):
            raise CliError(f"{path} is not a valid co-Witt element: no "
                           f"witness (r, s) makes its deep ideal nilpotent")
    if args.op == "add":
        x, y = xs
        res = cowitt.cw_add(x, y)
    elif args.op == "f":
        (x,) = xs
        res = cowitt.cw_F(x)
    elif args.op == "v":
        (x,) = xs
        res = cowitt.cw_V(x)
    else:
        raise CliError(f"unknown cw op {args.op!r}")
    out = res.to_json()
    out["format"] = FORMAT
    _emit(out, args.out)
    return 0


def cmd_split(args) -> int:
    A = _load_algebra(args.algebra)
    dec = etale.decompose(A)
    out = dec.to_json()
    out["format"] = FORMAT
    out["point_count"] = dec.count
    out["orbits"] = [list(o) for o in dec.orbits()]
    _emit(out, args.out)
    return 0


def cmd_polarize(args) -> int:
    data = _load(args.algebra)
    if data.get("format", FORMAT) != FORMAT:
        raise CliError("unsupported format")
    field = FqField.from_json(data["field"])
    table = data.get("table")
    if not isinstance(table, list) or not all(
            isinstance(row, list) and len(row) == len(table)
            and all(isinstance(v, list) and len(v) == len(table) for v in row)
            for row in table):
        raise CliError("'table' must be d lists, each of d products e_i e_j "
                       "given as d coordinate lists")
    dim = data.get("dim", len(table))
    if type(dim) is not int or dim != len(table):
        raise CliError(f"dim must be the int {len(table)}, the size of "
                       f"'table', got {dim!r}")
    table = [[tuple(field.from_coords(c) for c in row_entry)
              for row_entry in row] for row in table]
    A = polarize(field, table)
    _emit(_algebra_json(A), args.out)
    return 0


def _parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


def cmd_fgl(args) -> int:
    coeffs = tuple(_parse_rational(c) for c in args.log_coeffs.split(","))
    log = fgl.PTypicalLog(args.p, args.precision, coeffs)
    exp = fgl.exp_from_log(log)
    ok, offenders = fgl.support_check(exp, args.p)
    law = fgl.group_law(log, args.precision, exp)
    out = {
        "format": FORMAT,
        "p": args.p,
        "precision": args.precision,
        "exp_support_ok": ok,
        "exp_support_offenders": offenders,
        "law": law.to_json(),
        "law_p_integral": not law.denominator_offenders(),
        "law_associative": fgl.law_associative(law)
        if args.precision <= ASSOCIATIVE_MAX_PRECISION else None,
    }
    _emit(out, args.out)
    return 0


def cmd_verify(args) -> int:
    suites = [args.suite] if args.suite else None
    if suites and args.suite not in verify_mod.SUITES:
        raise CliError(f"unknown suite {args.suite!r}; choose from "
                       + ", ".join(sorted(verify_mod.SUITES)))
    rows = verify_mod.run_suites(seed=args.seed, suites=suites,
                                 p_filter=args.p)
    failures = 0
    for name, ok, detail in rows:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}  [{detail}]\n")
        failures += 0 if ok else 1
    sys.stdout.write(f"{len(rows) - failures}/{len(rows)} checks passed "
                     f"(seed {args.seed})\n")
    return 0 if failures == 0 else 1


def build_parser() -> _Parser:
    ap = _Parser(prog="wittpolar",
                 description="exact Witt/co-Witt arithmetic over p-polar "
                             "algebras, splitting, and group-law checks")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("witt-poly", help="emit universal operation polynomials")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--kind", choices=wittuniv.KINDS, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witt_poly)

    sp = sub.add_parser("witt-eval", help="evaluate a Witt expression tree")
    sp.add_argument("expr", help="JSON file with algebra and expression")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witt_eval)

    sp = sub.add_parser("cw", help="co-Witt operations")
    sp.add_argument("op", choices=["validate", "add", "f", "v"])
    sp.add_argument("--algebra", required=True)
    sp.add_argument("inputs", nargs="+", help="co-Witt element JSON files")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_cw)

    sp = sub.add_parser("split", help="decompose the reduced quotient")
    sp.add_argument("algebra")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("polarize", help="restrict a commutative product "
                                         "to p-fold products")
    sp.add_argument("algebra", help="JSON with field, dim, table")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_polarize)

    sp = sub.add_parser("fgl", help="p-typical log/exp and group-law checks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--precision", type=int, required=True)
    sp.add_argument("--log-coeffs", required=True,
                    help="comma-separated rationals l_0,l_1,... (l_0 = 1)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_fgl)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int)
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(_dump({"error": "validation", "message": str(exc)}))
        return 1
    except (ValueError, KeyError, OSError, ArithmeticError, RecursionError,
            etale.ExtensionCapExceeded) as exc:
        sys.stderr.write(_dump({"error": "validation",
                                "message": f"{type(exc).__name__}: {exc}"}))
        return 1
    except AssertionError as exc:
        sys.stderr.write(_dump({"error": "internal-invariant",
                                "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
