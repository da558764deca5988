"""Columnar kernels — BAMC vs the record pipeline.

Measures what the slab-columnar store and its kernels buy on a single
rank, against the per-record reference path:

1. Conversion targets with vectorized emitters (BED, BEDGRAPH, FASTA,
   FASTQ): BAMC through the kernels vs ``pipeline="record"`` on the
   BAMX store.  BAMX read through the same kernels is reported as an
   ungated column.
2. Whole-file scans: ``flagstat`` and the coverage histogram through
   the column kernels on BAMC vs ``flagstat_records`` /
   ``histogram_from_records`` over the BAMX store's decoded records.

Smoke mode (``REPRO_BENCH_SMOKE``, the CI perf-smoke job) runs the
same comparisons on the small dataset and gates on the columnar path
never being *slower* (>= 1x); the full run asserts the paper-style
wins (>= 2x on at least two conversion targets, >= 5x on the scans)
and commits ``BENCH_columnar_kernels.json``.
"""

from __future__ import annotations

import functools
import os
import time

from repro.core import BamConverter
from repro.formats.store import open_record_store

from .common import bam_dataset, bench_repeats, best_seconds, \
    dataset_dir, maybe_trace, report, report_json, smoke_mode

#: Targets with a vectorized columnar emitter (kernels.KERNEL_TARGETS).
TARGETS = ("bed", "bedgraph", "fasta", "fastq")


@functools.lru_cache(maxsize=None)
def preprocessed_stores() -> tuple[str, str]:
    """Preprocess the bench BAM once into both store formats."""
    with maybe_trace("columnar_preprocess"):
        bamx, _, _ = BamConverter().preprocess(
            bam_dataset(), os.path.join(dataset_dir(), "pp"))
        bamc, _, _ = BamConverter(store_format="bamc").preprocess(
            bam_dataset(), os.path.join(dataset_dir(), "ppc"))
    return bamx, bamc


def _best_wall(fn) -> float:
    """Best-of-N wall seconds of ``fn()`` (scan paths return no
    rank metrics, so this times the call directly)."""
    best = float("inf")
    for _ in range(bench_repeats()):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _compare_targets(out_root: str) -> dict[str, dict[str, float]]:
    """Single-rank record pipeline vs kernels, best-of-N per target."""
    bamx, bamc = preprocessed_stores()
    runs = {"record": (bamx, BamConverter(pipeline="record")),
            "bamx_kernel": (bamx, BamConverter()),
            "bamc": (bamc, BamConverter(store_format="bamc"))}
    comparison = {}
    for target in TARGETS:
        seconds = {}
        for name, (store, converter) in runs.items():
            out_dir = os.path.join(out_root, f"{name}_{target}")
            seconds[name] = best_seconds(
                lambda: converter.convert(store, target, out_dir,
                                          nprocs=1).rank_metrics)
        comparison[target] = {
            "record_seconds": round(seconds["record"], 4),
            "bamx_kernel_seconds": round(seconds["bamx_kernel"], 4),
            "bamc_seconds": round(seconds["bamc"], 4),
            "columnar_speedup": round(
                seconds["record"] / seconds["bamc"], 2),
            "bamx_kernel_speedup": round(
                seconds["record"] / seconds["bamx_kernel"], 2),
        }
    return comparison


def _compare_scans() -> dict[str, dict[str, float]]:
    """flagstat + coverage histogram: kernels vs the record path."""
    from repro.stats import histogram_from_records, histogram_from_store
    from repro.tools import flagstat_store
    from repro.tools.flagstat import flagstat_records
    bamx, bamc = preprocessed_stores()
    scans = {
        "flagstat": (lambda reader: flagstat_records(reader),
                     flagstat_store),
        "histogram": (lambda reader: histogram_from_records(
                          reader, reader.header),
                      histogram_from_store),
    }
    comparison = {}
    for name, (record_scan, kernel_scan) in scans.items():
        seconds = {}
        for side, store, scan in (("record", bamx, record_scan),
                                  ("kernel", bamc, kernel_scan)):
            def run(scan=scan, store=store):
                with open_record_store(store) as reader:
                    scan(reader)
            seconds[side] = _best_wall(run)
        comparison[name] = {
            "record_seconds": round(seconds["record"], 4),
            "kernel_seconds": round(seconds["kernel"], 4),
            "kernel_speedup": round(
                seconds["record"] / seconds["kernel"], 2),
        }
    return comparison


def test_columnar_kernels(tmp_path):
    targets = _compare_targets(str(tmp_path))
    scans = _compare_scans()
    payload = {"targets": targets, "scans": scans}

    if smoke_mode():
        report_json("columnar_kernels", payload)
        # CI gate: columnar must never lose to the record pipeline.
        for target, row in targets.items():
            assert row["columnar_speedup"] >= 1.0, (target, row)
        for scan, row in scans.items():
            assert row["kernel_speedup"] >= 1.0, (scan, row)
        return

    text = ("single-rank BAMC kernel speedup vs the record pipeline "
            "(BAMX kernels ungated):\n")
    text += "\n".join(
        f"  {t:10s} {row['record_seconds']:8.4f}s -> "
        f"{row['bamc_seconds']:8.4f}s  ({row['columnar_speedup']}x; "
        f"bamx {row['bamx_kernel_seconds']:.4f}s, "
        f"{row['bamx_kernel_speedup']}x)"
        for t, row in sorted(targets.items()))
    text += "\n\nwhole-file scans, kernel vs record path:\n"
    text += "\n".join(
        f"  {s:10s} {row['record_seconds']:8.4f}s -> "
        f"{row['kernel_seconds']:8.4f}s  ({row['kernel_speedup']}x)"
        for s, row in sorted(scans.items()))
    report("columnar_kernels", text)
    report_json("columnar_kernels", payload)

    # The tentpole's acceptance bar: decisive wins where a kernel
    # exists, >= 2x on at least two conversion targets, >= 5x scans.
    decisive = [t for t, row in targets.items()
                if row["columnar_speedup"] >= 2.0]
    assert len(decisive) >= 2, targets
    for target, row in targets.items():
        assert row["columnar_speedup"] >= 1.0, (target, row)
    for scan, row in scans.items():
        assert row["kernel_speedup"] >= 5.0, (scan, row)
