"""cli-cold: sessions of `wittpolar` invocations, each a fresh process.

A session is a fixed script run one invocation at a time from an empty
cache directory.  Its inputs are drawn from the run seed and the session
number; `verify` gets the run seed, so its output must not change between
the sessions of a run.  Two scripted inputs are invalid and should exit 1
with a JSON diagnostic; today both exit 0, so they count as failed
operations until the program rejects them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

import common
import oracle

STEPS = ("verify", "witt-poly-cold", "witt-poly-warm", "witt-eval", "cw-add",
         "cw-validate", "split-ext", "split-scrambled", "polarize", "fgl-p2",
         "fgl-p3", "fgl-p4-invalid", "split-nonassoc-invalid")
INVALID = ("fgl-p4-invalid", "split-nonassoc-invalid")
MIN_SESSIONS = 4       # 4 sessions of 13 invocations: p75 has ten beyond
TIMEOUT = 150
PRECISION = 12         # the associativity check runs up to precision 12
WITT_POLY = ("--p", "3", "--n", "4", "--kind", "prod")


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def _element_json(F, tail, exceptions, witness):
    return {"format": "wittpolar/1", "tail": [F.digits(a) for a in tail],
            "exceptions": {str(i): [F.digits(a) for a in v]
                           for i, v in sorted(exceptions.items())},
            "witness": list(witness)}


def _lit(F, coords):
    return {"op": "lit", "coords": [[F.digits(a) for a in c] for c in coords]}


class Session:
    """The inputs of one session (files in `d`) and what each step must give."""

    def __init__(self, seed, index, d):
        rng = random.Random(seed * 1000 + index)
        self.argv, self.expect = {}, {}
        path = lambda name: os.path.join(d, name)  # noqa: E731
        self.argv["verify"] = ["verify", "--seed", str(seed)]
        self.argv["witt-poly-cold"] = ["witt-poly", *WITT_POLY]
        self.argv["witt-poly-warm"] = ["witt-poly", *WITT_POLY]
        self.points = [[rng.randrange(-3, 4) for _ in range(12)]
                       for _ in range(2)]

        # witt-eval: (a.b - F(c)) + (V(d) + [v]) in W_3 of pol(x F_4[x]/(x^4))
        F4 = oracle.Field(2, 2)
        alg = oracle.nil_algebra(F4, 4)
        W = oracle.WittOracle(alg)
        vec = lambda n: tuple(alg.random_vector(rng)  # noqa: E731
                              for _ in range(n))
        a, b, c, dd = vec(3), vec(3), vec(4), vec(2)
        v = alg.random_vector(rng)
        expr = {"op": "add", "args": [
            {"op": "add", "args": [
                {"op": "prod", "args": [_lit(F4, a), _lit(F4, b)]},
                {"op": "neg", "arg": {"op": "frob", "arg": _lit(F4, c)}}]},
            {"op": "add", "args": [
                {"op": "versch", "arg": _lit(F4, dd)},
                {"op": "teich", "value": [F4.digits(x) for x in v],
                 "length": 3}]}]}
        _dump(path("expr.json"), {"format": "wittpolar/1",
                                  "algebra": alg.to_json(), "expr": expr})
        teich = (v, (0,) * alg.dim, (0,) * alg.dim)
        want = W.add(W.add(W.product([a, b]), W.neg(W.frobenius(c))),
                     W.add(W.verschiebung(dd), teich))
        self.argv["witt-eval"] = ["witt-eval", path("expr.json")]
        self.expect["witt-eval"] = [[F4.digits(x) for x in co] for co in want]

        # cw add / validate on pol(x F_2[x]/(x^4)), elements with tails
        F2 = oracle.Field(2, 1)
        alg = oracle.nil_algebra(F2, 4)
        _dump(path("cw-alg.json"), alg.to_json())
        elems = []
        for name in ("x", "y"):
            tail = alg.random_vector(rng)
            exc = {-i: alg.random_vector(rng) for i in range(rng.randrange(1, 4))}
            elems.append((tail, exc))
            _dump(path(f"{name}.json"), _element_json(
                F2, tail, exc, oracle.min_witness(alg, tail, exc)))
        tail, entries = oracle.CoWittOracle(alg).apply("sum", elems)
        self.argv["cw-add"] = ["cw", "add", "--algebra", path("cw-alg.json"),
                               path("x.json"), path("y.json")]
        self.expect["cw-add"] = (F2, tail, entries)
        self.argv["cw-validate"] = ["cw", "validate", "--algebra",
                                    path("cw-alg.json"), path("x.json")]
        self.expect["cw-validate"] = list(oracle.min_witness(alg, *elems[0]))

        # split: F_8 over F_2 (3 points, one orbit); scrambled F_3^3
        # (3 points, three orbits)
        g = oracle.irreducible_over(F2, 3, rng)
        mu = oracle.polarize_table(F2, oracle.quotient_table(F2, g))
        _dump(path("ext.json"), oracle.mu_json(F2, 3, mu))
        self.argv["split-ext"] = ["split", path("ext.json")]
        self.expect["split-ext"] = (3, [3])
        F3 = oracle.Field(3, 1)
        _dump(path("scr.json"), oracle.mu_json(
            F3, 3, oracle.scrambled_split_mu(F3, 3, rng)))
        self.argv["split-scrambled"] = ["split", path("scr.json")]
        self.expect["split-scrambled"] = (3, [1, 1, 1])

        # polarize: F_3[u]/(h) for a random monic cubic h
        h = [rng.randrange(3) for _ in range(3)] + [1]
        table = oracle.quotient_table(F3, h)
        _dump(path("comm.json"), {
            "format": "wittpolar/1", "field": F3.to_json(), "dim": 3,
            "table": [[[F3.digits(x) for x in e] for e in row]
                      for row in table]})
        self.argv["polarize"] = ["polarize", path("comm.json")]
        self.expect["polarize"] = [
            {"idx": list(k), "val": [F3.digits(x) for x in val]}
            for k, val in sorted(oracle.polarize_table(F3, table).items())]

        # fgl: l_i = a_i / p^i with a_i in {-3, -1, 1, 3}
        for p in (2, 3):
            coeffs = [Fraction(1)]
            while p ** len(coeffs) <= PRECISION:
                coeffs.append(Fraction(rng.choice((-3, -1, 1, 3)),
                                       p ** len(coeffs)))
            self.argv[f"fgl-p{p}"] = [
                "fgl", "--p", str(p), "--precision", str(PRECISION),
                "--log-coeffs", ",".join(str(c) for c in coeffs)]
            self.expect[f"fgl-p{p}"] = (p, coeffs)

        # invalid inputs, the same in every session
        self.argv["fgl-p4-invalid"] = ["fgl", "--p", "4", "--precision",
                                       str(PRECISION), "--log-coeffs", "1,1/4"]
        # mu(e0, e1) = e0 on GF(2)^2: mu(mu(e0,e1),e1) = e0 but
        # mu(mu(e1,e1),e0) = 0, so the permutation axiom fails
        _dump(path("nonassoc.json"), oracle.mu_json(F2, 2, {(0, 1): (1, 0)}))
        self.argv["split-nonassoc-invalid"] = ["split", path("nonassoc.json")]


# -- checks -------------------------------------------------------------------------


def _check_witt_poly(out, points):
    data = json.loads(out)
    if (data["p"], data["n"], data["kind"]) != (3, 4, "prod"):
        return "witt-poly: wrong family header"
    p, n = 3, 4
    for pt in points:
        blocks = [pt[0:4], pt[4:8], pt[8:12]]
        point = {f"{b}{i}": blocks[k][i] for k, b in enumerate("xyz")
                 for i in range(n)}
        coords = [oracle.eval_poly_json(lv, point) for lv in data["levels"]]
        if any(c.denominator != 1 for c in coords):
            return "witt-poly: non-integral value"
        for m in range(n):
            ghost = sum(p ** i * coords[i] ** p ** (m - i) for i in range(m + 1))
            want = 1
            for blk in blocks:
                want *= sum(p ** i * blk[i] ** p ** (m - i)
                            for i in range(m + 1))
            if ghost != want:
                return f"witt-poly: ghost {m} differs at {pt}"
    return None


def _check(step, out, expect, points):
    if step == "witt-poly-warm":     # compared byte for byte with the cold one
        return None
    if step == "witt-poly-cold":
        return _check_witt_poly(out, points)
    data = json.loads(out)
    if step == "witt-eval":
        return None if data["coords"] == expect else "witt-eval: wrong value"
    if step == "cw-add":
        F, tail, entries = expect
        exc = {int(k): v for k, v in data["exceptions"].items()}
        if data["tail"] != [F.digits(a) for a in tail]:
            return "cw add: wrong tail"
        for n, v in entries.items():
            if exc.get(-n, data["tail"]) != [F.digits(a) for a in v]:
                return f"cw add: wrong entry at {-n}"
        if any(-k > max(entries) for k in exc):
            return "cw add: exception deeper than the oracle's entries"
        return None
    if step == "cw-validate":
        ok = data["valid"] is True and data.get("witness") == expect
        return None if ok else f"cw validate: {data}, want witness {expect}"
    if step in ("split-ext", "split-scrambled"):
        count, sizes = expect
        got = (data["point_count"], sorted(len(o) for o in data["orbits"]))
        return None if got == (count, sizes) else f"{step}: {got}"
    if step == "polarize":
        return None if data["mu"] == expect else "polarize: wrong mu"
    if step.startswith("fgl-"):
        p, coeffs = expect
        terms = {tuple(t["exp"]): Fraction(int(t["num"]), int(t["den"]))
                 for t in data["law"]["terms"]}
        lhs = oracle.log_of_law(terms, p, coeffs, PRECISION)
        rhs = {}
        for i, c in enumerate(coeffs):
            rhs[(p ** i, 0)] = c
            rhs[(0, p ** i)] = c
        if lhs != rhs:
            return f"{step}: log F(x,y) != log x + log y"
        if not (data["exp_support_ok"] and data["law_associative"] is True):
            return f"{step}: support or associativity flag false"
        return None
    raise ValueError(step)


def _check_verify(out):
    lines = out.splitlines()
    rows = lines[:-1]
    if not rows or not all(r.startswith("PASS  ") for r in rows):
        return "verify: a row is not PASS"
    if not lines[-1].startswith(f"{len(rows)}/{len(rows)} checks passed"):
        return "verify: summary is not N/N"
    return None


# -- processes --------------------------------------------------------------------


def _spawn(cmd, env, out_path, err_path):
    """(exit code, seconds, peak RSS MiB) of one child, timed from spawn to
    reaping."""
    holder = []
    timer = threading.Timer(TIMEOUT, lambda: holder and holder[0].kill())
    timer.start()
    try:
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env)
            holder.append(proc)
            _, status, ru = os.wait4(proc.pid, 0)
            dt = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    return proc.returncode, dt, ru.ru_maxrss / 1024.0


def _cli_cmd(argv, traced, step, spans):
    if traced:
        return [sys.executable, os.path.join(common.BENCH, "launcher.py"),
                spans, step, *argv]
    return [sys.executable, "-m", "wittpolar.cli", *argv]


def setup_samples(calibration):
    """First import of a fresh copy of the package, bytecode compiled cold:
    (raw, reference-speed) seconds, calibrating before and after each."""
    raw, ref = [], []
    for _ in range(common.SETUP_SAMPLES):
        with common.scratch("setup-") as d:
            shutil.copytree(os.path.join(common.SRC, "wittpolar"),
                            os.path.join(d, "wittpolar"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env["PYTHONPATH"] = d
            env["WITTPOLAR_CACHE"] = os.path.join(d, "cache")
            before = common.calibrate_long(calibration)
            rc, dt, _ = _spawn([sys.executable, "-c", "import wittpolar.cli"],
                               env, os.path.join(d, "out"),
                               os.path.join(d, "err"))
            after = common.calibrate_long(calibration)
            if rc != 0:
                raise RuntimeError("cold import of wittpolar.cli failed")
            raw.append(dt)
            ref.append(dt * common.CAL_REF_S * 2 / (before + after))
    return raw, ref


def run_session(seed, index, traced, verify_out, records, problems, cal):
    """Run one session, appending (step, seconds, RSS, failed, spans, start)
    to `records` and check failures to `problems`; `cal` is a
    common.Calibrator sampled after each invocation.  Traced sessions return
    the loaded span dumps."""
    with common.scratch("session-") as d:
        s = Session(seed, index, d)
        env = common.program_env(os.path.join(d, "cache"))
        outs = {}
        for step in STEPS:
            spans = os.path.join(d, f"{step}.spans")
            start = perf_counter()
            rc, dt, rss = _spawn(_cli_cmd(s.argv[step], traced, step, spans),
                                 env, os.path.join(d, f"{step}.out"),
                                 os.path.join(d, f"{step}.err"))
            cal.sample()
            with open(os.path.join(d, f"{step}.out")) as fh:
                out = fh.read()
            with open(os.path.join(d, f"{step}.err")) as fh:
                err = fh.read()
            outs[step] = out
            failed = False
            if step in INVALID:
                failed = rc != 1 or '"error"' not in err
            elif rc != 0:
                problems.append(f"{step} exited {rc}: {err[-300:]}")
            else:
                try:
                    msg = (_check_verify(out) if step == "verify" else
                           _check(step, out, s.expect.get(step), s.points))
                except (ValueError, KeyError, TypeError) as exc:
                    msg = f"{step}: unreadable output ({exc})"
                if msg:
                    problems.append(msg)
            records.append((step, dt, rss, failed,
                            spans if traced else None, start))
        if outs["witt-poly-cold"] != outs["witt-poly-warm"]:
            problems.append("witt-poly: disk copy differs from the cold lift")
        if verify_out and outs["verify"] != verify_out[0]:
            problems.append("verify: output differs between sessions")
        verify_out[:] = [outs["verify"]]
        if traced:
            import tracer
            return [(r[0], tracer.load(r[4])) for r in records[-len(STEPS):]]
    return None


def suite_runs(seed):
    """Each verify suite alone in a fresh traced process and empty cache."""
    import tracer
    loaded = []
    for suite in tracer.VERIFY_SUITES:
        with common.scratch("suite-") as d:
            spans = os.path.join(d, "spans")
            rc, _, _ = _spawn(
                _cli_cmd(["verify", "--suite", suite, "--seed", str(seed)],
                         True, f"verify-{suite}", spans),
                common.program_env(os.path.join(d, "cache")),
                os.path.join(d, "out"), os.path.join(d, "err"))
            if rc != 0:
                raise RuntimeError(f"verify --suite {suite} exited {rc}")
            loaded.append(tracer.load(spans))
    return loaded


def zero_cli_metrics():
    out = {"cli.import.ms": (0.0, "ms"), "cli.fgl.ms": (0.0, "ms")}
    out.update({f"cli.{s}.ms": (0.0, "ms") for s in STEPS})
    return out


def run(seed, seconds, trace):
    import tracer
    oracle.self_check()
    records, problems, verify_out = [], [], []
    calibration = oracle.Calibration()
    cal = common.Calibrator(calibration.run)
    cal.sample()
    if trace:
        loaded = run_session(seed, 0, True, verify_out, records, problems, cal)
        suites = suite_runs(seed)
        stats, counts = tracer.merge([(st, cn) for _, (st, cn, _) in loaded])
        metrics = tracer.layer_metrics(stats, counts)
        suite_stats, _ = tracer.merge([(st, cn) for st, cn, _ in suites])
        metrics.update(tracer.suite_metrics(suite_stats))
        imports = [ex["import_s"] for _, (_, _, ex) in loaded] + \
            [ex["import_s"] for _, _, ex in suites]
        metrics["cli.import.ms"] = (common.median(imports) * 1e3, "ms")
        for step, (_, _, ex) in loaded:
            metrics[f"cli.{step}.ms"] = (ex["main_s"] * 1e3, "ms")
        metrics["cli.fgl.ms"] = (metrics["cli.fgl-p2.ms"][0]
                                 + metrics["cli.fgl-p3.ms"][0], "ms")
        busy = sum(cal.to_reference([r[5] for r in records],
                                    [r[1] for r in records]))
        sys.stderr.write(f"traced: {len(records)} invocations in {busy:.3f} s "
                         f"busy at the reference speed, "
                         f"{len(records) / busy:.6g} op/s\n")
    else:
        setup_raw, setups = setup_samples(calibration)
        start = perf_counter()
        sessions = 0
        while sessions < MIN_SESSIONS or perf_counter() - start < seconds:
            run_session(seed, sessions, False, verify_out, records, problems,
                        cal)
            sessions += 1
        raw = [r[1] for r in records]
        rss = max(r[2] for r in records)
        tail_q = common.tail_quantile(MIN_SESSIONS * len(STEPS))
        stamps = [r[5] for r in records]
        common.report_raw("cli-cold", stamps, raw, cal.samples, setup_raw, rss,
                          tail_q)
        lat = cal.to_reference(stamps, raw)
        metrics = common.e2e_metrics(lat, setups, rss, tail_q)
    failed = sum(1 for r in records if r[3])
    common.emit(not problems, len(records), failed, metrics, problems)
