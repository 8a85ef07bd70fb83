"""Shared pieces of the benchmark: paths, scratch directories, statistics and
the result line."""

from __future__ import annotations

import bisect
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
from array import array
from contextlib import contextmanager
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# The machine this benchmark was tuned on runs at two speeds that differ by
# about 40% and switch every 10 to 60 seconds (host contention; see README).
# Every timing is therefore reported at a fixed reference speed: a fixed
# calibration task (oracle.Calibration) is timed between operations, and
# each time is scaled by CAL_REF_S / (mean calibration time within
# CAL_WINDOW_S of it).  CAL_REF_S is that machine's calibration time in its
# slower state.
CAL_REF_S = 3.3e-3         # oracle.Calibration().run()
CAL_WINDOW_S = 1.0
CAL_EVERY_S = 0.1          # busy time between two calibration samples
SETUP_SAMPLES = 5          # set-ups per run, each in a fresh process

# op_tail_ms is the highest of these percentiles that has at least ten
# samples beyond it in the smallest run a workload allows (its minimum
# number of rounds), so every run of a workload reports the same percentile.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)


def require_program():
    """Put the checkout's src/ first on sys.path; exit 2 if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "wittpolar", "__init__.py")):
        sys.stderr.write(f"wittpolar sources not found under {SRC}\n")
        raise SystemExit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def program_env(cache_dir):
    """Environment for a child process that runs the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    env["WITTPOLAR_CACHE"] = cache_dir
    return env


@contextmanager
def scratch(prefix):
    """A fresh directory under benchmark/out, removed afterwards."""
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=OUT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def percentile(sorted_vals, q):
    """Linear interpolation between closest ranks (q in percent)."""
    n = len(sorted_vals)
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def median(vals):
    return percentile(sorted(vals), 50.0)


def tail_quantile(min_ops):
    """The ladder percentile with at least ten samples beyond it, or None."""
    best = None
    for q in TAIL_LADDER:
        if min_ops * (100.0 - q) / 100.0 >= 10:
            best = q
    return best


class Calibrator:
    """Timed runs of the calibration task, as a time-ordered list of
    (stamp, seconds), and the scaling of timings to the reference speed."""

    def __init__(self, task):
        self.task = task
        self.samples = []

    def sample(self):
        self.samples.append((perf_counter(), self.task()))

    def to_reference(self, stamps, values):
        """Scale each value by CAL_REF_S / (mean calibration time within
        CAL_WINDOW_S of its stamp)."""
        times = [t for t, _ in self.samples]
        sums = [0.0]
        for _, c in self.samples:
            sums.append(sums[-1] + c)
        out = []
        for t, v in zip(stamps, values):
            lo = bisect.bisect_left(times, t - CAL_WINDOW_S)
            hi = bisect.bisect_right(times, t + CAL_WINDOW_S)
            if lo == hi:        # no sample in the window: the nearest one
                lo = min(max(bisect.bisect_left(times, t) - 1, 0),
                         len(times) - 1)
                hi = lo + 1
            out.append(v * CAL_REF_S * (hi - lo) / (sums[hi] - sums[lo]))
        return out


def calibrate_long(cal):
    """One calibration sample made of five task runs, for set-up samples."""
    return cal.run(reps=15) / 5


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Rounds:
    """Closed loop, one client: whole rounds of operations, one at a time.

    Each round's inputs are made before any of its operations is timed, a
    full garbage collection runs between rounds, and results are checked
    after the round, outside the timed calls.  The calibrator, if any, is
    sampled between operations, at least once a round and after every
    CAL_EVERY_S of timed calls.  Peak RSS is read when the minimum number
    of rounds is done, so it covers the same work in every run.
    """

    def __init__(self, seconds, min_rounds, calibrator=None):
        self.seconds, self.min_rounds = seconds, min_rounds
        self.calibrator = calibrator
        self.latencies, self.stamps = array("d"), array("d")
        self.rounds = 0
        self.mismatches = []
        self.rss_mib = None

    def _sample(self):
        if self.calibrator:
            self.calibrator.sample()

    def run(self, make_round):
        """make_round(i) -> list of (call, check); check(result) returns an
        error string or None."""
        start = perf_counter()
        self._sample()
        while self.rounds < self.min_rounds or \
                perf_counter() - start < self.seconds:
            ops = make_round(self.rounds)
            gc.collect()
            results = []
            busy = 0.0
            for call, _ in ops:
                t0 = perf_counter()
                res = call()
                dt = perf_counter() - t0
                self.latencies.append(dt)
                self.stamps.append(t0)
                results.append(res)
                busy += dt
                if busy >= CAL_EVERY_S:
                    self._sample()
                    busy = 0.0
            self._sample()
            for (_, check), res in zip(ops, results):
                err = check(res)
                if err:
                    self.mismatches.append(err)
            self.rounds += 1
            if self.rounds == self.min_rounds:
                self.rss_mib = peak_rss_mib()
        return self

    def fixed(self, make_round, rounds):
        """Exactly `rounds` rounds, whatever they take (traced runs)."""
        self.min_rounds, self.seconds = rounds, 0.0
        return self.run(make_round)


def e2e_metrics(latencies, setup_samples, rss_mib, tail_q):
    lat = sorted(latencies)
    busy = sum(lat)
    return {
        "ops_per_s": (len(lat) / busy, "op/s"),
        "op_p50_ms": (percentile(lat, 50.0) * 1e3, "ms"),
        "op_tail_ms": (percentile(lat, tail_q) * 1e3, "ms"),
        "setup_s": (median(setup_samples), "s"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def report_raw(workload, stamps, latencies, cal, setup_samples, rss_mib,
               tail_q):
    """The same metrics at the machine's measured speed, on stderr; the
    unscaled timings go to benchmark/out/last-<workload>.json."""
    raw = e2e_metrics(latencies, setup_samples, rss_mib, tail_q)
    sys.stderr.write("unscaled: " + ", ".join(
        f"{k}={v:.6g}" for k, (v, _) in raw.items()) + "\n")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"last-{workload}.json"), "w") as fh:
        json.dump({"stamps": list(stamps), "latencies": list(latencies),
                   "cal": cal, "setup": setup_samples}, fh)


def emit(correct, attempted, failed, metrics, mismatches=()):
    for m in list(mismatches)[:10]:
        sys.stderr.write(f"MISMATCH: {m}\n")
    line = {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
    sys.stdout.write(json.dumps(line) + "\n")
    sys.stdout.flush()
