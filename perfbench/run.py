#!/usr/bin/env python3
"""betheq benchmark: one workload per process, one seed, one JSON result.

    python3 perfbench/run.py --workload exact-identities --seed 1 --seconds 30 --trace 0

Run from the repository root; betheq is imported from ./src.  With
--trace 0 the run measures set-up (SETUP_PROBES fresh interpreters) and
then repeats untraced passes of the workload, at least MIN_PASSES of
them and more while another still fits in --seconds, reporting the
end-to-end metrics.  Times are rescaled by a reference computation
timed alongside (workloads.REF_S), so that the shared host's drifting
speed cancels.  With --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics.  The last line of standard
output is the result object; the lines before it give the environment,
the pass times and every failed operation.

    python3 perfbench/run.py --record-digests   # rewrite digests.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP read these when numpy loads, so they are pinned before
# any import of numpy, here and in every child process (inherited).  One
# thread: a second one would share its core with whatever else the host
# runs, and ED times then swing by more than 2x.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import hostspeed  # noqa: E402  (after the pins)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# wall_s is never a single sample: this many passes run even when they
# overrun --seconds.
MIN_PASSES = 2
# setup_s is the median of this many rescaled probes.  Set-up lasts a
# third of a second, so a probe samples the reference more often than a
# pass does.
SETUP_PROBES = 9
SETUP_SAMPLE_EVERY_S = 0.03


def _import_package():
    if not (SRC / "betheq" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/betheq not found; run from a betheq checkout")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": nproc,
    }


def setup_probe(workload: str) -> None:
    """Child side of the set-up measurement: import and warm up, sampling
    the reference as it goes, then say so with the samples."""
    with hostspeed.sampling([], SETUP_SAMPLE_EVERY_S) as samples:
        import workloads

        workloads.WORKLOADS[workload](0).setup()
    print("ready", json.dumps([seconds for _, seconds in samples]), flush=True)


def probe_setup(workload: str) -> tuple:
    """Seconds from starting a fresh interpreter to its 'ready', less its
    reference samples, as measured and rescaled."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        stdout=subprocess.PIPE, text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    word, _, samples = line.partition(" ")
    if word != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    samples = json.loads(samples)
    elapsed -= sum(samples)
    return elapsed, hostspeed.rescale(elapsed, samples)


def timed_pass(work, tally, sampled=True) -> range:
    """One pass, with the reference sampled unless `sampled` is false;
    returns the indices of its operations in tally.ops."""
    first = len(tally.ops)
    with hostspeed.sampling(tally.samples) if sampled else contextlib.nullcontext():
        work.run_pass(tally)
    return range(first, len(tally.ops))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    import workloads
    from spans import Tracer

    if args.record_digests:
        digests = workloads.Digests(record=True)
        tally = workloads.Tally("record")
        workloads.ExactIdentities(None, digests).run_pass(tally)
        if tally.failed:
            sys.exit(f"error: not recording, {tally.failed} operations failed")
        workloads.DIGESTS.write_text(json.dumps(digests.values, indent=1, sort_keys=True) + "\n")
        print(f"{len(digests.values)} digests written to {workloads.DIGESTS}")
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    work = workloads.WORKLOADS[args.workload](args.seed)
    tally = workloads.Tally(args.workload)
    oracle_problems = workloads.oracle_problems()
    work.setup()
    print(json.dumps({"env": environment()}), flush=True)

    if args.trace:
        untraced = timed_pass(work, tally, sampled=False)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(work, tally, sampled=False)
        finally:
            tracer.uninstall()
        untraced, traced = (tally.seconds(ops)[0] for ops in (untraced, traced))
        metrics = tracer.layer_metrics(traced - untraced)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tracer.dump()}))
        print(json.dumps({"pass_s": {"untraced": untraced, "traced": traced},
                          "spans_file": str(spans_file.relative_to(ROOT)),
                          "roadmap_stages": tracer.stages()}), flush=True)
    else:
        setup_probes = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(timed_pass(work, tally))
            now = time.perf_counter()
            if (len(passes) >= MIN_PASSES
                    and now - start + (now - pass_start) > args.seconds):
                break
        passes = [tally.seconds(ops) for ops in passes]
        refs = statistics.quantiles([s for _, s in tally.samples], n=10)
        print(json.dumps({"pass_s": [measured for measured, _ in passes],
                          "pass_rescaled_s": [rescaled for _, rescaled in passes],
                          "setup_probes_s": [measured for measured, _ in setup_probes],
                          "setup_probes_rescaled_s": [rescaled for _, rescaled in setup_probes],
                          "reference_s": {"ref_s": hostspeed.REF_S, "count": len(tally.samples),
                                          "p10": refs[0], "median": refs[4], "p90": refs[8]}}),
              flush=True)
        metrics = {
            "wall_s": {"value": statistics.median(rescaled for _, rescaled in passes),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(rescaled for _, rescaled in setup_probes),
                        "unit": "s"},
            "ok_frac": {"value": (tally.attempted - tally.failed) / tally.attempted,
                        "unit": "ratio"},
            "margin_bits_min": {"value": min(tally.margins), "unit": "bits"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB"},
        }
    print(json.dumps({"failures": list(tally.failures.values()),
                      "oracle_problems": oracle_problems}), flush=True)
    print(json.dumps({
        "correct": tally.wrong == 0 and not oracle_problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
