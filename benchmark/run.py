"""Run one benchmark workload and print its result as the last line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: witt-ring, cowitt-sum, cli-cold (see benchmark/README.md).
With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, which does a
fixed amount of work (set-up and a fixed number of rounds) so that its
counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import subprocess
import sys
from time import perf_counter

import common

IN_PROCESS = {"witt-ring": "witt_ring", "cowitt-sum": "cowitt_sum"}


def setup_samples(workload):
    """(raw, reference-speed) set-up times of `workload`, each sample in a
    fresh process with a new empty cache directory."""
    raw, ref = [], []
    for _ in range(common.SETUP_SAMPLES):
        with common.scratch("setup-") as cache:
            out = subprocess.run(
                [sys.executable, os.path.join(common.BENCH, "run.py"),
                 "--setup-probe", workload],
                env=common.program_env(cache), capture_output=True,
                text=True, timeout=170, check=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        ref.append(probe["setup_s"] * common.CAL_REF_S / probe["cal_s"])
    return raw, ref


def setup_probe(workload):
    """Time the set-up in this fresh process, calibrating before and after."""
    import oracle
    mod = __import__(IN_PROCESS[workload])
    import wittpolar  # noqa: F401  (imports are not part of set-up)
    cal = oracle.Calibration()
    before = common.calibrate_long(cal)
    t0 = perf_counter()
    mod.setup()
    setup_s = perf_counter() - t0
    after = common.calibrate_long(cal)
    print(json.dumps({"setup_s": setup_s, "cal_s": (before + after) / 2}))


def run_in_process(workload, seed, seconds, trace):
    import oracle
    mod = __import__(IN_PROCESS[workload])
    oracle.self_check()
    with common.scratch("cache-") as cache:
        os.environ["WITTPOLAR_CACHE"] = cache
        import wittpolar  # noqa: F401
        if trace:
            import tracer
            tr = tracer.Tracer()
            tr.install()
        else:
            setup_raw, setups = setup_samples(workload)
        state = mod.setup()
        rng = random.Random(seed)
        calibrator = common.Calibrator(oracle.Calibration().run)
        loop = common.Rounds(seconds, mod.MIN_ROUNDS, calibrator)
        make = lambda i: mod.make_round(state, rng, i)  # noqa: E731
        if trace:
            loop.fixed(make, mod.TRACE_ROUNDS)
        else:
            loop.run(make)
    attempted = len(loop.latencies)
    correct = not loop.mismatches
    if trace:
        tr.uninstall()
        stats, counts = tr.stats()
        os.makedirs(common.OUT, exist_ok=True)
        tr.dump(os.path.join(common.OUT, f"trace-{workload}.spans"))
        metrics = tracer.layer_metrics(stats, counts)
        metrics.update(tracer.suite_metrics({}))
        import cli_cold
        metrics.update(cli_cold.zero_cli_metrics())
        busy = sum(calibrator.to_reference(loop.stamps, loop.latencies))
        sys.stderr.write(f"traced: {attempted} ops in {busy:.3f} s busy at "
                         f"the reference speed, {attempted / busy:.6g} op/s\n")
    else:
        tail_q = common.tail_quantile(mod.MIN_ROUNDS * mod.ops_per_round(state))
        common.report_raw(workload, loop.stamps, loop.latencies,
                          calibrator.samples, setup_raw, loop.rss_mib, tail_q)
        lat = calibrator.to_reference(loop.stamps, loop.latencies)
        metrics = common.e2e_metrics(lat, setups, loop.rss_mib, tail_q)
    common.emit(correct, attempted, 0, metrics, loop.mismatches)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKLOAD",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    common.require_program()
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    compileall.compile_dir(os.path.join(common.SRC, "wittpolar"), quiet=1)
    if args.workload in IN_PROCESS:
        return run_in_process(args.workload, args.seed, args.seconds,
                              args.trace)
    if args.workload == "cli-cold":
        import cli_cold
        return cli_cold.run(args.seed, args.seconds, args.trace)
    ap.error(f"unknown workload {args.workload!r}")


if __name__ == "__main__":
    main()
