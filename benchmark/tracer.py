"""Spans around the public functions of each wittpolar module, installed
from outside the program.

A wrapper replaces a function wherever it is bound: on its class, in its
module, and in every other wittpolar module that imported it by name.
Spans hold a name, a start, an end and the parent span; they stay in
memory (compact arrays) and are written out when the run ends.  The hot
field operations are counted, not spanned, so their time stays in the
caller's self time.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter

# (module, attribute, how): "span" records a span, "count" counts calls
TARGETS = [
    ("gfq", "FqField.add", "count"),
    ("gfq", "FqField.mul", "count"),
    ("gfq", "rref", "span"),
    ("ppolar", "PPolarAlgebra.mu_p", "span"),
    ("ppolar", "check_assoc", "span"),
    ("ppolar", "ideal_generated", "span"),
    ("ppolar", "product_length_threshold", "span"),
    ("exact", "MultiPoly.pow", "span"),
    ("exact", "MultiPoly.mul", "span"),
    ("exact", "TruncSeries.reverse", "span"),
    ("exact", "TruncSeries.compose", "span"),
    ("wittuniv", "dwork_lift", "span"),
    ("wittuniv", "universal_polys", "cache"),
    ("wittmod", "w_add", "mu"),
    ("wittmod", "w_product", "mu"),
    ("wittmod", "w_neg", "span"),
    ("wittmod", "scalar_mul", "span"),
    ("wittmod", "eval_polar_poly", "span"),
    ("cowitt", "cw_add", "span"),
    ("cowitt", "cw_neg", "span"),
    ("cowitt", "stabilized_entry", "span"),
    ("cowitt", "witness_search", "span"),
    ("etale", "decompose", "span"),
    ("etale", "find_idempotent", "span"),
    ("fgl", "exp_from_log", "span"),
    ("fgl", "group_law", "span"),
    ("fgl", "law_associative", "span"),
]

VERIFY_SUITES = ("cowitt", "dwork", "etale", "fgl", "fv-relations",
                 "ghost-roundtrip", "group-laws", "idempotent",
                 "polar-degree", "polarization-invariance", "star-groups",
                 "teichmuller")

# span names whose per-call durations are kept for medians
MEDIAN_SPANS = ("wittmod.w_add.mu0", "wittmod.w_add.mu",
                "wittmod.w_product.mu0", "wittmod.w_product.mu",
                "wittmod.w_neg", "wittmod.scalar_mul")


def _cache_file(p, n, kind):
    """The documented cache location $WITTPOLAR_CACHE/wittpolys/..."""
    root = os.environ.get("WITTPOLAR_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "wittpolar")
    return os.path.join(root, "wittpolys", f"p{p}_n{n}_{kind}.json")


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_outer = array("b")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.stack: list = []
        self.active: list = []
        self.counts: dict = {}
        self._seen_polys: set = set()
        self._undo: list = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.active.append(0)
        return self._ids[name]

    def _wrap_span(self, fn, namer):
        names, parents, outer = self.sp_name, self.sp_parent, self.sp_outer
        starts, ends = self.sp_start, self.sp_end
        stack, active = self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = namer(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[nid] == 0)
            ends.append(0.0)
            active[nid] += 1
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[nid] -= 1
        return wrapper

    def _wrap_count(self, fn, key):
        cell = [0]
        self.counts[key] = cell

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _namer(self, base, how):
        if how == "span":
            nid = self._id(base)
            return lambda args, kwargs: nid
        if how == "mu":
            zero, nonzero = self._id(base + ".mu0"), self._id(base + ".mu")

            def namer(args, kwargs):
                first = args[0]
                if isinstance(first, (list, tuple)):
                    first = first[0]
                return zero if first.algebra.mu_is_zero else nonzero
            return namer
        # universal_polys: memo if made earlier in this process, disk if
        # the cache file already exists, cold otherwise
        ids = {k: self._id(f"{base}.{k}") for k in ("memo", "disk", "cold")}
        seen = self._seen_polys

        def namer(args, kwargs):
            vals = list(args) + [kwargs.get(k) for k in
                                 ("p", "n", "kind", "use_disk")[len(args):]]
            p, n, kind, use_disk = vals[:4]
            use_disk = True if use_disk is None else use_disk
            key = (p, n, kind)
            if key in seen:
                return ids["memo"]
            seen.add(key)
            if use_disk and os.path.exists(_cache_file(p, n, kind)):
                return ids["disk"]
            return ids["cold"]
        return namer

    def install(self):
        for modname in {t[0] for t in TARGETS} | {"verify"}:
            importlib.import_module("wittpolar." + modname)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "wittpolar" or name.startswith("wittpolar.")}
        for modname, attr, how in TARGETS:
            mod = mods["wittpolar." + modname]
            base = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                if how == "count":
                    new = self._wrap_count(orig, base)
                else:
                    new = self._wrap_span(orig, self._namer(base, how))
                setattr(cls, meth, new)
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            new = self._wrap_span(orig, self._namer(base, how))
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, new)
                        self._undo.append((m, key, orig))
        suites = mods["wittpolar.verify"].SUITES
        for name in list(suites):
            orig = suites[name]
            nid = self._id(f"verify.{name}")
            suites[name] = self._wrap_span(orig, lambda a, k, nid=nid: nid)
            self._undo.append((suites, name, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------------

    def dump(self, path, extra=None):
        header = {"names": self.names, "spans": len(self.sp_name),
                  "counts": {k: c[0] for k, c in self.counts.items()},
                  "extra": extra or {}}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.sp_name, self.sp_parent, self.sp_outer,
                        self.sp_start, self.sp_end):
                arr.tofile(fh)

    def stats(self):
        return span_stats(self.names, self.sp_name, self.sp_parent,
                          self.sp_outer, self.sp_start, self.sp_end), \
            {k: c[0] for k, c in self.counts.items()}


def load(path):
    """(stats, counts, extra) from a dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrs = []
        for code in ("i", "i", "b", "d", "d"):
            a = array(code)
            a.fromfile(fh, n)
            arrs.append(a)
    return span_stats(header["names"], *arrs), header["counts"], \
        header["extra"]


def span_stats(names, sp_name, sp_parent, sp_outer, sp_start, sp_end):
    """name -> {"calls", "incl_s" (outermost spans), "self_s", "durs"}."""
    n = len(sp_name)
    child = [0.0] * n
    for i in range(n):
        par = sp_parent[i]
        if par >= 0:
            child[par] += sp_end[i] - sp_start[i]
    out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "durs": []}
           for name in names}
    keep = {names.index(m) for m in MEDIAN_SPANS if m in names}
    rows = [out[name] for name in names]
    for i in range(n):
        nid = sp_name[i]
        dur = sp_end[i] - sp_start[i]
        row = rows[nid]
        row["calls"] += 1
        row["self_s"] += dur - child[i]
        if sp_outer[i]:
            row["incl_s"] += dur
        if nid in keep:
            row["durs"].append(dur)
    return out


def merge(parts):
    """Sum span stats and counts of several processes."""
    stats, counts = {}, {}
    for st, cn in parts:
        for name, row in st.items():
            acc = stats.setdefault(name, {"calls": 0, "incl_s": 0.0,
                                          "self_s": 0.0, "durs": []})
            acc["calls"] += row["calls"]
            acc["incl_s"] += row["incl_s"]
            acc["self_s"] += row["self_s"]
            acc["durs"].extend(row["durs"])
        for k, v in cn.items():
            counts[k] = counts.get(k, 0) + v
    return stats, counts


# -- per-layer metrics ---------------------------------------------------------


def _row(stats, name):
    return stats.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                            "durs": []})


def _median(vals):
    if not vals:
        return 0.0
    s = sorted(vals)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def layer_metrics(stats, counts):
    """The per-layer metrics of BENCHMARK.json except verify.* and cli.*;
    0 where the workload does not reach a layer."""
    def calls(name):
        return (float(_row(stats, name)["calls"]), "count")

    def ms(name):
        return (_row(stats, name)["incl_s"] * 1e3, "ms")

    def self_ms(name):
        return (_row(stats, name)["self_s"] * 1e3, "ms")

    def med_us(name):
        return (_median(_row(stats, name)["durs"]) * 1e6, "us")

    up = {k: _row(stats, f"wittuniv.universal_polys.{k}")
          for k in ("memo", "disk", "cold")}
    up_calls = sum(r["calls"] for r in up.values())
    hits = up["memo"]["calls"] + up["disk"]["calls"]
    return {
        "gfq.add.calls": (float(counts.get("gfq.FqField.add", 0)), "count"),
        "gfq.mul.calls": (float(counts.get("gfq.FqField.mul", 0)), "count"),
        "gfq.rref.ms": ms("gfq.rref"),
        "ppolar.mu_p.calls": calls("ppolar.PPolarAlgebra.mu_p"),
        "ppolar.mu_p.self_ms": self_ms("ppolar.PPolarAlgebra.mu_p"),
        "ppolar.check_assoc.ms": ms("ppolar.check_assoc"),
        "ppolar.ideal_generated.ms": ms("ppolar.ideal_generated"),
        "ppolar.product_length_threshold.ms":
            ms("ppolar.product_length_threshold"),
        "exact.MultiPoly.pow.calls": calls("exact.MultiPoly.pow"),
        "exact.MultiPoly.pow.self_ms": self_ms("exact.MultiPoly.pow"),
        "exact.MultiPoly.mul.self_ms": self_ms("exact.MultiPoly.mul"),
        "exact.TruncSeries.reverse.ms": ms("exact.TruncSeries.reverse"),
        "exact.TruncSeries.compose.calls": calls("exact.TruncSeries.compose"),
        "wittuniv.dwork_lift.ms": ms("wittuniv.dwork_lift"),
        "wittuniv.universal_polys.cold_ms": (up["cold"]["incl_s"] * 1e3, "ms"),
        "wittuniv.universal_polys.disk_ms": (up["disk"]["incl_s"] * 1e3, "ms"),
        "wittuniv.universal_polys.memo_calls":
            (float(up["memo"]["calls"]), "count"),
        "wittuniv.universal_polys.hit_ratio":
            (hits / up_calls if up_calls else 0.0, "ratio"),
        "wittmod.w_add.mu0_us": med_us("wittmod.w_add.mu0"),
        "wittmod.w_add.mu_us": med_us("wittmod.w_add.mu"),
        "wittmod.w_product.mu0_us": med_us("wittmod.w_product.mu0"),
        "wittmod.w_product.mu_us": med_us("wittmod.w_product.mu"),
        "wittmod.w_neg.us": med_us("wittmod.w_neg"),
        "wittmod.scalar_mul.us": med_us("wittmod.scalar_mul"),
        "wittmod.eval_polar_poly.calls": calls("wittmod.eval_polar_poly"),
        "wittmod.eval_polar_poly.self_ms": self_ms("wittmod.eval_polar_poly"),
        "cowitt.cw_add.ms": ms("cowitt.cw_add"),
        "cowitt.cw_neg.ms": ms("cowitt.cw_neg"),
        "cowitt.stabilized_entry.calls": calls("cowitt.stabilized_entry"),
        "cowitt.stabilized_entry.self_ms": self_ms("cowitt.stabilized_entry"),
        "cowitt.witness_search.ms": ms("cowitt.witness_search"),
        "etale.decompose.ms": ms("etale.decompose"),
        "etale.find_idempotent.ms": ms("etale.find_idempotent"),
        "fgl.exp_from_log.ms": ms("fgl.exp_from_log"),
        "fgl.group_law.ms": ms("fgl.group_law"),
        "fgl.law_associative.ms": ms("fgl.law_associative"),
    }


def suite_metrics(stats):
    """verify.<suite>.s from spans of single-suite processes (0 if absent)."""
    return {f"verify.{s}.s": (_row(stats, f"verify.{s}")["incl_s"], "s")
            for s in VERIFY_SUITES}
