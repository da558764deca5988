"""The in-process workloads: ``bam_cold`` and ``sam_ingest``.

Each job calls the program's public converters from this process with
the real ``process`` executor at ``nprocs=2``, is timed from the call to
the return of the last converter (every part file is on disk by then),
and is checked against the sequential references outside the timed
window.  Set-up is a cold program start (interpreter, imports and the
shared executor's process-pool start), repeated and reported as a
median.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import common

SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
#: A cold program start, as every CLI run pays it: a fresh interpreter
#: imports the converters and starts the shared process pool, then
#: prints the wall-clock time at which it is ready.
_COLD_START = """
import time
from repro.core import BamConverter, SamConverter  # noqa: F401
from repro.runtime.executor import get_shared_executor, \\
    reset_shared_executor
get_shared_executor().map_tasks(abs, range({nprocs}), "process")
print(time.time(), flush=True)
reset_shared_executor()
"""


@dataclass
class Job:
    """One timed job and what its check found."""

    wall: float
    ok: bool
    records: int = 0
    input_bytes: int = 0
    store_bytes: int = 0
    index_files: int = 0
    index_bytes: int = 0
    #: Size of the file the job's record store was written from.
    source_bytes: int = 0
    error: str | None = None


def setup() -> list[float]:
    """Time cold program starts (spawn to pool ready), then start this
    process's shared pool untimed for the jobs that follow."""
    from repro.runtime.executor import get_shared_executor
    code = _COLD_START.format(nprocs=common.NPROCS)
    env = dict(os.environ, PYTHONPATH=common.SRC_DIR)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=SETUP_TIMEOUT_S).stdout
        times.append(float(out.split()[-1]) - t0)
    get_shared_executor().map_tasks(abs, range(common.NPROCS), "process")
    return times


def _artifacts(work_dir: str) -> dict:
    """Sizes of the record stores and index files a job left behind."""
    store = index_files = index_bytes = 0
    for name in os.listdir(work_dir):
        size = os.path.getsize(os.path.join(work_dir, name))
        if name.endswith((".bamx", ".bamz", ".bamc")):
            store += size
        elif name.endswith((".baix", ".baix2")):
            index_files += 1
            index_bytes += size
    return {"store_bytes": store, "index_files": index_files,
            "index_bytes": index_bytes}


def bam_cold_job(inp: dict, job_dir: str) -> tuple[Job, list]:
    """Cold BAM -> BED: preprocess into a fresh work dir, then convert."""
    from repro.core import BamConverter
    work = os.path.join(job_dir, "work")
    out = os.path.join(job_dir, "out")
    converter = BamConverter()
    t0 = time.perf_counter()
    store, _, _ = converter.preprocess(inp["bam"], work)
    result = converter.convert(store, "bed", out, nprocs=common.NPROCS,
                               executor="process")
    wall = time.perf_counter() - t0
    job = Job(wall, False, records=result.records,
              input_bytes=inp["bam_bytes"], source_bytes=inp["bam_bytes"],
              **_artifacts(work))
    return job, [(result.outputs, inp["references"]["bed"])]


def sam_ingest_job(inp: dict, job_dir: str) -> tuple[Job, list]:
    """The paper's two SAM converters on the same SAM text."""
    from repro.core import SamConverter
    from repro.core.samp_converter import PreprocSamConverter
    work = os.path.join(job_dir, "work")
    out = os.path.join(job_dir, "out")
    t0 = time.perf_counter()
    fastq = SamConverter().convert(inp["sam"], "fastq",
                                   os.path.join(out, "fastq"),
                                   common.NPROCS, "process")
    bed = PreprocSamConverter(store_format="bamc").convert_end_to_end(
        inp["sam"], "bed", work, os.path.join(out, "bed"),
        common.NPROCS, common.NPROCS, "process")
    wall = time.perf_counter() - t0
    refs = inp["references"]
    # Both converters read the whole SAM: the job's input counts twice.
    job = Job(wall, False, records=fastq.records + bed.records,
              input_bytes=2 * inp["sam_bytes"],
              source_bytes=inp["sam_bytes"], **_artifacts(work))
    return job, [(fastq.outputs, refs["fastq"]),
                 (bed.outputs, refs["bed"])]


JOBS = {"bam_cold": bam_cold_job, "sam_ingest": sam_ingest_job}


def run_phase(name: str, inp: dict, seconds: float, run_dir: str,
              tag: str, tamper=None) -> list[Job]:
    """Run jobs back to back until *seconds* of job time are measured.

    Each job's part files are compared with the references after its
    timed window closes.  *tamper*, when given, is called with a job's
    part files just before that check (the self-test corrupts one).
    """
    job_fn = JOBS[name]
    jobs: list[Job] = []
    measured = 0.0
    deadline = time.monotonic() + 3 * seconds + 30
    while measured < seconds and time.monotonic() < deadline:
        job_dir = common.fresh_dir(
            os.path.join(run_dir, f"{tag}{len(jobs):04d}"))
        t0 = time.perf_counter()
        try:
            job, checks = job_fn(inp, job_dir)
            if tamper is not None:
                tamper([p for outputs, _ in checks for p in outputs])
            job.ok = all(common.parts_digest(outputs) == digest
                         for outputs, digest in checks)
            if not job.ok:
                job.error = "output mismatch or missing part file"
        except Exception as exc:  # counted as a failed operation
            job = Job(time.perf_counter() - t0, False,
                      error=f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        measured += job.wall
        jobs.append(job)
    return jobs


def _per_job(value: float, jobs: int) -> float:
    return value / jobs if jobs else 0.0


def _rank_times(results) -> list[list[float]]:
    return [[m.total_seconds for m in r.rank_metrics] for r in results]


def _imbalance(rank_sets) -> float:
    ratios = [max(ts) / (sum(ts) / len(ts)) for ts in rank_sets
              if ts and sum(ts) > 0]
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(trace, jobs: list[Job], inp: dict,
                  executor_delta: dict) -> dict:
    """Per-job layer quantities from a traced phase of *jobs*."""
    n = len(jobs)
    wall = sum(j.wall for j in jobs)
    get = trace.layer
    out: dict[str, float] = {}
    inflate = get("bgzf.inflate")
    out["bgzf.inflate_s"] = _per_job(inflate.total, n)
    out["bgzf.inflate_blocks"] = _per_job(inflate.calls, n)
    out["bgzf.inflated_mb"] = _per_job(inflate.work / common.MB, n)
    decode = get("bam.decode")
    out["bam.decode_s"] = _per_job(decode.total, n)
    out["bam.decode_records"] = _per_job(decode.calls, n)
    out["bam.decode_passes"] = _per_job(decode.calls, n) / inp["records"]
    codec = get("tags.codec")
    out["tags.codec_s"] = _per_job(codec.total, n)
    out["tags.codec_calls"] = _per_job(codec.calls, n)
    encode = get("store.encode")
    out["store.encode_s"] = _per_job(encode.total, n)
    out["store.encode_records"] = _per_job(encode.work, n)
    store_bytes = sum(j.store_bytes for j in jobs)
    source_bytes = sum(j.source_bytes for j in jobs)
    out["store.mb_written"] = _per_job(store_bytes / common.MB, n)
    out["store.bytes_per_input_byte"] = \
        store_bytes / source_bytes if source_bytes else 0.0
    out["index.build_s"] = _per_job(get("index.build").total, n)
    out["index.files_written"] = _per_job(
        sum(j.index_files for j in jobs), n)
    out["index.mb_written"] = _per_job(
        sum(j.index_bytes for j in jobs) / common.MB, n)
    pre = get("preprocess")
    out["preprocess.s"] = _per_job(pre.total, n)
    out["preprocess.share"] = pre.total / wall if wall else 0.0
    out["preprocess.self_s"] = _per_job(pre.self_s, n)
    convert = get("convert")
    ranks = _rank_times(convert.results)
    out["convert.s"] = _per_job(convert.total, n)
    out["convert.rank_busy_s"] = _per_job(sum(map(sum, ranks)), n)
    out["convert.rank_max_s"] = _per_job(sum(map(max, ranks)), n)
    out["convert.imbalance"] = _imbalance(ranks)
    rank_metrics = [m for r in convert.results for m in r.rank_metrics]
    out["convert.kernel_fallbacks"] = _per_job(
        sum(m.kernel_fallbacks for m in rank_metrics), n)
    out["convert.batch_fallbacks"] = _per_job(
        sum(m.fallbacks for m in rank_metrics), n)
    out["executor.pool_starts"] = executor_delta.get(
        "process_pool_starts", 0)
    out["executor.tasks"] = _per_job(
        executor_delta.get("tasks_completed", 0), n)
    out["shard.merge_s"] = _per_job(get("shard.merge").total, n)
    out["partition.s"] = _per_job(get("partition").total, n)
    sam = get("sam.convert")
    out["sam.convert_s"] = _per_job(sam.total, n)
    out["sam.rank_max_s"] = _per_job(sum(map(max, _rank_times(
        sam.results))), n)
    samp = get("samp.preprocess")
    samp_ranks = [[m.total_seconds for m in metrics]
                  for _, metrics in samp.results]
    out["samp.preprocess_s"] = _per_job(samp.total, n)
    out["samp.rank_max_s"] = _per_job(sum(map(max, samp_ranks)), n)
    out["samp.imbalance"] = _imbalance(samp_ranks)
    out["samp.convert_s"] = _per_job(get("samp.convert").total, n)
    return out


def executor_counters() -> dict:
    """Snapshot of the shared executor's counters."""
    from repro.runtime.executor import shared_executor_stats
    return dict(shared_executor_stats())


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` for every numeric counter."""
    return {k: after.get(k, 0) - before.get(k, 0) for k in after}


def shutdown() -> None:
    """Stop the shared worker pool and wait for its processes."""
    from repro.runtime.executor import reset_shared_executor
    reset_shared_executor()
