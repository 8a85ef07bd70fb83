"""Command-line front door with stable, deterministic JSON file formats.

Every payload carries "format": "wittpolar/1", keys are sorted, big
integers are decimal strings, and nothing timestamped enters an output,
so identical invocations are byte-identical.  Every JSON input is checked
against its shape in `wire` before it is decoded.

Exit 1 means bad input, with a JSON diagnostic {"error": "validation"} on
stderr and nothing on stdout: a `ValueError` (the library's one
bad-argument type, `etale.ExtensionCapExceeded` included) or an
unreadable input or unwritable --out file.  `verify` also exits 1 when a
check fails, and any command exits 1 silently when stdout closes early.
Anything else is a bug: exit 2 with {"error": "internal"} and the
traceback.

Each subcommand imports the modules it uses when it runs, and the parser
takes its choices from `wire`, so a process loads only what its
subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import wire


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
    """Write the payload obj, stamped with the format, to out_path or
    stdout."""
    text = _dump(dict(obj, format=wire.FORMAT))
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc.strerror}") from None


@contextmanager
def _reading(path):
    """The JSON value in the file a user named, decoded in the with block.
    A key the file repeats (`wire.RepeatedKey`: a JSON object key, found
    as the file is read, or the idx of two mu entries) is rejected with the
    file's name."""
    try:
        with open(path) as fh:
            value = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except RecursionError:
        raise CliError(f"RecursionError: {path} nests too deeply for the "
                       f"JSON reader") from None
    except wire.RepeatedKey as exc:
        raise CliError(f"{path}: {exc}") from None
    try:
        yield value
    except wire.RepeatedKey as exc:
        raise CliError(f"{path}: {exc}") from None


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise wire.RepeatedKey(f"an object repeats the key {key!r}")
        obj[key] = value
    return obj


# -- subcommands --------------------------------------------------------------


def cmd_witt_poly(args) -> int:
    from .wittuniv import family_to_json, universal_polys
    polys = universal_polys(args.p, args.n, args.kind)
    _emit(family_to_json(args.p, args.n, args.kind, polys), args.out)
    return 0


def _eval_expr(A, node: dict):
    """The value of an expression node that has passed `wire.check`."""
    from . import wittmod
    op = node["op"]
    if op == "lit":
        return wittmod.witt_from_json(A, node)
    if op == "teich":
        return wittmod.teichmuller(
            A, tuple(map(A.field.from_coords, node["value"])), node["length"])
    if op == "add":
        return wittmod.w_add(*(_eval_expr(A, a) for a in node["args"]))
    if op == "prod":
        return wittmod.w_product([_eval_expr(A, a) for a in node["args"]])
    unary = {"neg": wittmod.w_neg, "frob": wittmod.frobenius_charp,
             "versch": wittmod.verschiebung}
    return unary[op](_eval_expr(A, node["arg"]))


def cmd_witt_eval(args) -> int:
    from .ppolar import PPolarAlgebra
    with _reading(args.expr) as data:
        wire.check("witt-eval", data)
        A = PPolarAlgebra.from_json(data["algebra"])
    out = _eval_expr(A, data["expr"]).to_json()
    out["algebra"] = A.to_json()
    _emit(out, args.out)
    return 0


def cmd_cw(args) -> int:
    from . import cowitt
    from .ppolar import PPolarAlgebra
    wire.check("cw", {"op": args.op, "inputs": args.inputs})
    with _reading(args.algebra) as data:
        A = PPolarAlgebra.from_json(data)
    xs = []
    for path in args.inputs:
        with _reading(path) as data:
            xs.append(cowitt.cw_from_json(A, data))
    if args.op == "validate":
        w = cowitt.witness_search(xs[0])
        out = {"valid": w is not None}
        if w is not None:
            out["witness"] = list(w)
        _emit(out, args.out)
        return 0
    for x, path in zip(xs, args.inputs):
        if cowitt._least_r((x,)) is None:
            raise CliError(f"{path} is not a valid co-Witt element: no "
                           f"witness (r, s) makes its deep ideal nilpotent")
    ops = {"add": cowitt.cw_add, "f": cowitt.cw_F, "v": cowitt.cw_V}
    _emit(ops[args.op](*xs).to_json(), args.out)
    return 0


def cmd_split(args) -> int:
    from .etale import decompose
    from .ppolar import PPolarAlgebra
    with _reading(args.algebra) as data:
        A = PPolarAlgebra.from_json(data)
    dec = decompose(A)
    out = dec.to_json()
    out["point_count"] = dec.count
    out["orbits"] = [list(o) for o in dec.orbits()]
    _emit(out, args.out)
    return 0


def cmd_polarize(args) -> int:
    from .gfq import FqField
    from .ppolar import polarize
    with _reading(args.algebra) as data:
        wire.check("polarize", data)
    field = FqField.from_json(data["field"])
    table = [[tuple(map(field.from_coords, entry)) for entry in row]
             for row in data["table"]]
    _emit(polarize(field, table).to_json(), args.out)
    return 0


def _rationals(text: str) -> tuple:
    """The comma-separated rationals of --log-coeffs."""
    from fractions import Fraction
    out = []
    for c in text.split(","):
        try:
            out.append(Fraction(c))
        except (ValueError, ZeroDivisionError):
            raise argparse.ArgumentTypeError(
                f"{c!r} is not a rational number") from None
    return tuple(out)


def _precision(text: str) -> int:
    """The int of --precision, at most `wire.MAX_PRECISION`."""
    try:
        D = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if D > wire.MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be at most {wire.MAX_PRECISION}, got {D}")
    return D


def cmd_fgl(args) -> int:
    from . import fgl
    log = fgl.PTypicalLog(args.p, args.precision, args.log_coeffs)
    exp = fgl.exp_from_log(log)
    ok, offenders = fgl.support_check(exp, args.p)
    law = fgl.group_law(log, args.precision, exp)
    out = {
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
    from .verify import run_suites
    rows = run_suites(seed=args.seed, p_filter=args.p,
                      suites=[args.suite] if args.suite else None)
    if not rows:
        raise CliError(f"no check of --suite {args.suite} runs at "
                       f"--p {args.p}")
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
    sp.add_argument("--kind", choices=wire.KINDS, required=True)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witt_poly)

    sp = sub.add_parser("witt-eval", help="evaluate a Witt expression tree")
    sp.add_argument("expr", help="JSON file with algebra and expression")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_witt_eval)

    sp = sub.add_parser("cw", help="co-Witt operations")
    sp.add_argument("op", choices=list(wire.CW_ARITY))
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
    sp.add_argument("--precision", type=_precision, required=True)
    sp.add_argument("--log-coeffs", type=_rationals, required=True,
                    help="comma-separated rationals l_0,l_1,... (l_0 = 1)")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_fgl)

    sp = sub.add_parser("verify", help="run the invariant suites")
    sp.add_argument("--suite", choices=sorted(wire.SUITES))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--p", type=int, choices=(2, 3, 5))
    sp.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        rc = args.fn(args)
        sys.stdout.flush()
        return rc
    except ValueError as exc:
        message = (str(exc) if isinstance(exc, CliError)
                   else f"{type(exc).__name__}: {exc}")
        sys.stderr.write(_dump({"error": "validation", "message": message}))
        return 1
    except BrokenPipeError:
        # stdout was closed early: send the rest to devnull, so the flush
        # at exit raises nothing more (the recipe of the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except Exception as exc:
        import traceback
        sys.stderr.write(_dump({"error": "internal",
                                "message": f"{type(exc).__name__}: {exc}",
                                "traceback": traceback.format_exception(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
