"""Figure 7 — full-conversion speedup of the BAM format converter.

Paper: a 117 GB sorted BAM converted to BED, BEDGRAPH and FASTA on 1 to
128 cores after sequential preprocessing; scalability is good because
(1) padded BAMX records give a perfectly regular layout and (2) rank
tasks are independent.

Like Fig. 6, this bench additionally measures the batched pipeline
(BAMX row slabs read as column slabs through the vectorized kernels)
against the record-at-a-time pipeline on a single rank; smoke mode
(``REPRO_BENCH_SMOKE``) runs only that comparison.
"""

from __future__ import annotations

import functools
import os

from repro.core import BamConverter
from repro.runtime.metrics import SpeedupCurve

from .common import CONVERSION_CORES, bam_dataset, best_of, \
    best_seconds, curve_payload, dataset_dir, maybe_trace, report, \
    report_json, sequential_reference, smoke_mode, speedup_curve

TARGETS = ("bed", "bedgraph", "fasta")


@functools.lru_cache(maxsize=None)
def preprocessed_bamx() -> str:
    """Preprocess the bench BAM once (shared with the Fig. 8 bench)."""
    converter = BamConverter()
    with maybe_trace("fig7_preprocess"):
        bamx, _, _ = converter.preprocess(
            bam_dataset(), os.path.join(dataset_dir(), "pp"))
    return bamx


def _compare_pipelines(out_root: str) -> dict[str, dict[str, float]]:
    """Single-rank record vs batch pipeline, best-of-3 per target."""
    bamx = preprocessed_bamx()
    comparison = {}
    for target in TARGETS:
        seconds = {}
        for pipeline in ("record", "batch"):
            converter = BamConverter(pipeline=pipeline)
            out_dir = os.path.join(out_root, f"pipe_{pipeline}_{target}")
            seconds[pipeline] = best_seconds(
                lambda: converter.convert(bamx, target, out_dir,
                                          nprocs=1).rank_metrics)
        comparison[target] = {
            "record_seconds": round(seconds["record"], 4),
            "batch_seconds": round(seconds["batch"], 4),
            "batched_speedup": round(
                seconds["record"] / seconds["batch"], 2),
        }
    return comparison


def _sweep(out_root: str) -> dict[str, SpeedupCurve]:
    bamx = preprocessed_bamx()
    converter = BamConverter()
    curves = {}
    for target in TARGETS:
        runs = {}
        for nprocs in CONVERSION_CORES:
            runs[nprocs] = best_of(lambda: converter.convert(
                bamx, target,
                os.path.join(out_root, f"{target}_{nprocs}"),
                nprocs).rank_metrics, repeats=3)
        seq = sequential_reference(runs[1])
        curves[target] = speedup_curve(f"BAM(X) -> {target.upper()}",
                                       seq, runs)
    return curves


def test_fig7_bam_full_conversion_speedup(benchmark, tmp_path):
    if smoke_mode():
        comparison = _compare_pipelines(str(tmp_path))
        report_json("fig7_bam_full", {"pipelines": comparison})
        for target, row in comparison.items():
            assert row["batched_speedup"] > 1.0, (target, row)
        return

    curves = benchmark.pedantic(_sweep, args=(str(tmp_path),),
                                rounds=1, iterations=1)
    comparison = _compare_pipelines(str(tmp_path))
    text = "\n\n".join(c.format_table() for c in curves.values())
    text += "\n\nsingle-rank batched speedup: " + ", ".join(
        f"{t}={row['batched_speedup']}x"
        for t, row in sorted(comparison.items()))
    report("fig7_bam_full", text)
    report_json("fig7_bam_full", {
        "pipelines": comparison,
        "curves": curve_payload(curves),
    })

    for target, curve in curves.items():
        speedups = curve.speedups()
        assert speedups[0] == 1.0
        assert speedups[2] > 2.5, (target, speedups)     # 4 cores
        assert speedups[4] > 9.0, (target, speedups)     # 16 cores
        # Monotone (2% tolerance) through the compute-bound range.
        for a, b in zip(speedups[:5], speedups[1:5]):
            assert b > 0.98 * a, (target, speedups)
        # Still gaining at the high end.
        assert speedups[-1] > speedups[4], target
    # The column kernels must beat record-at-a-time decisively.
    for target, row in comparison.items():
        assert row["batched_speedup"] >= 1.5, (target, row)
