#!/usr/bin/env python3
"""Measured end-to-end benchmark of the repro converters and service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bam_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads (see ``perfbench/README.md`` for why each exists):

* ``bam_cold``     cold BAM -> BED jobs: ``BamConverter.preprocess`` into
  a fresh work dir, then ``convert(..., nprocs=2, executor="process")``;
* ``sam_ingest``   ``SamConverter`` SAM -> FASTQ, then the BAMC
  ``PreprocSamConverter`` SAM -> BED, per job;
* ``service_warm`` two closed-loop clients of a warm ``repro serve``
  daemon alternating region and convert jobs.

With ``--trace 0`` the run measures with no instrumentation and the last
stdout line carries every end-to-end metric of ``BENCHMARK.json``.  With
``--trace 1`` the first half of the run is untraced and the second half
runs with call-boundary wrappers installed (``layers.py``); the last line
then carries every per-layer metric, including ``trace.overhead_ratio``
(traced over untraced median job time).  Every output is checked against
a reference outside the timed window; mismatches, missing part files,
errors, refused or timed-out jobs and post-priming cache misses count as
failed operations.  Above the last line a human-readable table and one
``REPORT {...}`` JSON line give every metric with its unit, sample count
and within-run spread, plus the seed, input size and host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import common

WORKLOADS = ("bam_cold", "sam_ingest", "service_warm")
#: Metrics printed in the report beside the BENCHMARK.json ones.
REPORT_UNITS = {
    "region_s_p50": "s", "region_s_p90": "s",
    "convert_s_p50": "s", "convert_s_p90": "s",
    "failed_ratio": "ratio",
}


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def from_samples(values, pct: float | None = None) -> dict:
    """A metric summarising a sample: median, or *pct* percentile."""
    if not values:
        return {"value": 0.0, "samples": 0, "spread": None}
    value = statistics.median(values) if pct is None \
        else common.percentile(values, pct)
    return {"value": value, "samples": len(values),
            "spread": common.quartile_spread(values)}


def scalar(value: float, samples: int) -> dict:
    """A metric computed once over the whole run."""
    return {"value": value, "samples": samples, "spread": None}


def _overhead(traced, untraced) -> float:
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced)


# -- in-process workloads -------------------------------------------

def run_inproc(name: str, inp: dict, seconds: float, trace: bool,
               run_dir: str) -> dict:
    import inproc
    import layers
    layer: dict = {}
    try:
        setup_times = inproc.setup()
        common.reset_peak_rss()
        if trace:
            measured = inproc.run_phase(name, inp, seconds / 2, run_dir,
                                        "u")
            before = inproc.executor_counters()
            tracer = layers.LayerTrace()
            with tracer.installed():
                traced = inproc.run_phase(name, inp, seconds / 2,
                                          run_dir, "t")
            delta = inproc.counter_delta(before,
                                         inproc.executor_counters())
            layer = inproc.layer_metrics(tracer, traced, inp, delta)
            layer["trace.overhead_ratio"] = _overhead(
                [j.wall for j in traced], [j.wall for j in measured])
            every = measured + traced
        else:
            measured = every = inproc.run_phase(name, inp, seconds,
                                                run_dir, "j")
        peak = common.peak_rss_mb()
    finally:
        inproc.shutdown()
    walls = [j.wall for j in measured]
    total = sum(walls)
    n = len(measured)
    e2e = {
        "setup_s": from_samples(setup_times),
        "job_s_p50": from_samples(walls),
        "records_per_s": scalar(
            sum(j.records for j in measured) / total, n),
        "input_mb_per_s": scalar(
            sum(j.input_bytes for j in measured) / common.MB / total, n),
        "jobs_per_s": scalar(n / total, n),
        "peak_rss_mb": scalar(peak, 1),
    }
    errors = [j.error for j in every if not j.ok]
    return {"e2e": e2e, "layer": layer, "attempted": len(every),
            "errors": errors}


# -- the service workload -------------------------------------------

def run_service(inp: dict, seconds: float, trace: bool, run_dir: str,
                seed: int) -> dict:
    import layers
    import service_warm as sw
    daemon, stores, setup_times = sw.setup(inp, run_dir)
    layer: dict = {}
    try:
        common.reset_peak_rss(daemon.proc.pid)
        if trace:
            measured, wall = sw.load(daemon, inp, seconds / 2, run_dir,
                                     "u", seed, min_samples=0)
            before = daemon.client.metrics()
            tracer = layers.LayerTrace()
            with tracer.installed():
                traced, _ = sw.load(daemon, inp, seconds / 2, run_dir,
                                    "t", seed, min_samples=0)
            after = daemon.client.metrics()
            traces = {op.snapshot["job_id"]:
                      daemon.client.trace(op.snapshot["job_id"])
                      for op in traced if op.snapshot is not None}
            layer = sw.layer_metrics(traced, before, after, traces)
            layer["trace.overhead_ratio"] = _overhead(
                sw.rounds(traced), sw.rounds(measured))
            every = measured + traced
        else:
            measured, wall = sw.load(daemon, inp, seconds, run_dir, "j",
                                     seed)
            every = measured
        peak = common.peak_rss_mb(daemon.proc.pid)
    finally:
        clean = daemon.stop()
    sw.check(every, inp, stores, run_dir, {})
    e = sw.end_to_end(measured, wall, inp)
    n = len(measured)
    e2e = {
        "setup_s": from_samples(setup_times),
        "job_s_p50": from_samples(e["job_s"]),
        "records_per_s": scalar(e["records_per_s"], n),
        "input_mb_per_s": scalar(e["input_mb_per_s"], n),
        "jobs_per_s": scalar(e["jobs_per_s"], n),
        "peak_rss_mb": scalar(peak, 1),
        "region_s_p50": from_samples(e["region_s"]),
        "region_s_p90": from_samples(e["region_s"], 90),
        "convert_s_p50": from_samples(e["convert_s"]),
        "convert_s_p90": from_samples(e["convert_s"], 90),
    }
    errors = [f"{op.kind} {op.error}" for op in every if not op.ok]
    if not clean:
        errors.append("daemon did not shut down cleanly (killed)")
    # The shutdown is an operation too: a daemon that must be killed
    # fails the run.
    return {"e2e": e2e, "layer": layer, "attempted": len(every) + 1,
            "errors": errors}


# -- reporting ------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(workload: str, args, inp: dict, outcome: dict,
                 spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(REPORT_UNITS)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = outcome["e2e"]
    attempted, failed = outcome["attempted"], len(outcome["errors"])
    e2e["failed_ratio"] = scalar(failed / attempted, attempted)
    print(f"== {workload}  seed={args.seed}  records={inp['records']}  "
          f"sam_mb={inp['sam_bytes'] / common.MB:.2f}  "
          f"bam_mb={inp['bam_bytes'] / common.MB:.2f}  "
          f"trace={args.trace}")
    print(f"{'metric':<28}{'value':>14}  {'unit':<7}{'n':>6}  spread")
    for name, m in e2e.items():
        spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
        print(f"{name:<28}{_fmt(m['value']):>14}  {units[name]:<7}"
              f"{m['samples']:>6}  {spread}")
    if outcome["layer"]:
        print(f"-- per-layer (traced half; overhead ratio "
              f"{outcome['layer']['trace.overhead_ratio']:.3f})")
        for name, value in outcome["layer"].items():
            print(f"{name:<32}{_fmt(value):>14}  {layer_units[name]}")
    for error in outcome["errors"][:10]:
        print(f"FAILED: {error}")
    report = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "input": {k: inp[k] for k in ("templates", "records",
                                      "sam_bytes", "bam_bytes")},
        "environment": common.environment(),
        "attempted": attempted, "failed": failed,
        "end_to_end": {k: dict(v, unit=units[k]) for k, v in e2e.items()},
        "per_layer": {k: {"value": v, "unit": layer_units[k]}
                      for k, v in outcome["layer"].items()},
    }
    print("REPORT " + json.dumps(report, sort_keys=True))


def result_line(outcome: dict, spec: dict, trace: bool) -> str:
    if trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = dict(outcome["layer"])
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {k: v["value"] for k, v in outcome["e2e"].items()}
    failed = len(outcome["errors"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit} for name, unit in names},
    })


def run(workload: str, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict]:
    import inputs
    inp = inputs.prepare(seed)
    run_dir = common.fresh_dir(os.path.join(common.WORK_ROOT,
                                            f"run-{os.getpid()}"))
    # Anything the program or its children put in a temp dir stays in
    # the checkout and goes with the run directory.
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = None
    try:
        if workload == "service_warm":
            return inp, run_service(inp, seconds, trace, run_dir, seed)
        return inp, run_inproc(workload, inp, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that corrupted outputs are counted")
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {common.SRC_DIR}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(common.SRC_DIR):
        print(f"refusing to measure {repro.__file__}: the program must "
              f"come from {common.SRC_DIR}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    t0 = time.monotonic()
    try:
        inp, outcome = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except Exception:
        traceback.print_exc()
        print("benchmark run failed; no result", file=sys.stderr)
        return 1
    print_report(args.workload, args, inp, outcome, spec)
    print(f"(run took {time.monotonic() - t0:.1f}s)")
    print(result_line(outcome, spec, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
