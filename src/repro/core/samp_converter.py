"""The preprocessing-optimized SAM format converter (§III-C, Fig. 5).

Combines the two earlier strategies: because SAM *can* be partitioned
with Algorithm 1, the BAMX-producing preprocessing phase runs in
parallel — each of M preprocessing ranks converts its SAM partition into
its own BAMX (or BAMC) file plus BAIX index.  The subsequent conversion
phase is the BAM converter's parallel phase run over one store at a
time with N ranks, yielding M x N target part files in total.

Each rank transposes its SAM text straight into column slabs
(:mod:`repro.formats.sam_transpose`), takes the store capacities from
the column maxima and writes the store and index from the same slabs,
building no :class:`~repro.formats.record.AlignmentRecord` except for
the lines the column parser flags.  The output is byte-identical to
parsing every line and writing it through the record writers, and a
bad input raises what that path raises.

Benefits (per the paper): the preprocessing cost is itself parallelized;
conversion reads compact, perfectly aligned binary records instead of
re-parsing text; and the regular layout improves I/O scalability.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from ..errors import ConversionError
from ..formats.baix import BaixIndex, default_index_path
from ..formats.bamc import BamcWriter, ColumnSlab, concat_slabs
from ..formats.bamx import BamxLayout, BamxWriter
from ..formats.batch import DEFAULT_BATCH_SIZE
from ..formats.header import SamHeader
from ..formats.sam_transpose import SamTransposer, raise_failure
from ..formats.store import check_store_format, store_extension
from ..runtime.autotune import AutoTuner
from ..runtime.buffers import RangeLineReader
from ..runtime.metrics import RankMetrics
from ..runtime.partition import partition_bytes_source
from ..runtime.tracing import get_tracer
from .base import ConversionResult, ensure_tuner, execute_rank_tasks, \
    finish_rank_metrics, record_tuning, resolve_tuning, staged_outputs, \
    validate_knob
from .bam_converter import BamConverter
from .sam_converter import partition_alignments, scan_header


@dataclass(frozen=True, slots=True)
class PreprocessSpec:
    """One preprocessing rank: SAM byte range -> one store/BAIX pair."""

    sam_path: str
    start: int
    end: int
    bamx_path: str
    header_text: str
    read_chunk: int
    batch_size: int = DEFAULT_BATCH_SIZE
    parse_only: bool = False
    store_format: str = "bamx"

    def cost_hint(self) -> float:
        """Relative shard size: bytes of SAM text to parse."""
        return float(self.end - self.start)

    def split(self, n: int) -> "list[PreprocessSpec]":
        """Over-decompose this rank's byte range into <= *n* shards.

        The store's capacities are the maxima over *all* of the rank's
        records, so shards cannot write independent store fragments;
        they run the transpose only (returning their column slab) and
        :meth:`merge_shards` concatenates the slabs in shard order
        before writing and indexing exactly as the unsharded task
        would — byte-identical store/BAIX output.
        """
        if n <= 1 or self.end - self.start <= 1:
            return [self]
        length = self.end - self.start
        with open(self.sam_path, "rb") as fh:
            def read_at(offset: int, size: int) -> bytes:
                fh.seek(self.start + offset)
                return fh.read(size)
            parts = partition_bytes_source(read_at, length, n)
        parts = [p for p in parts if p.length > 0]
        if len(parts) <= 1:
            return [self]
        return [replace(self,
                        start=self.start + p.start,
                        end=self.start + p.end,
                        parse_only=True)
                for p in parts]

    def merge_shards(self, shard_specs: "list[PreprocessSpec]",
                     shard_results: list[tuple]) -> RankMetrics:
        """Reduce transpose-only shard results to one store/BAIX pair."""
        parse_metrics = RankMetrics.merge_shards(
            [metrics for metrics, _ in shard_results])
        slabs, failures = [], []
        for _, (slab, shard_failures) in shard_results:
            offset = sum(s.count for s in slabs) + len(failures)
            slabs.append(slab)
            failures += [(offset + index, record)
                         for index, record in shard_failures]
        t0 = time.perf_counter()
        write_metrics = RankMetrics()
        _write_rank_store(self, concat_slabs(slabs), failures,
                          write_metrics)
        finish_rank_metrics(write_metrics, t0)
        return parse_metrics.merge(write_metrics)


def _transpose_rank(spec: PreprocessSpec,
                    metrics: RankMetrics) -> tuple[ColumnSlab, list]:
    """The spec's SAM byte range as one column slab, plus the records
    the record encoder rejected (see :mod:`~repro.formats.sam_transpose`).
    """
    reader = RangeLineReader(spec.sam_path, spec.start, spec.end,
                             chunk_size=spec.read_chunk, metrics=metrics)
    transposer = SamTransposer(SamHeader.from_text(spec.header_text))
    with get_tracer().span("transpose", "samp",
                           args={"batch_size": spec.batch_size}) as span:
        slabs = [transposer.transpose(lines)
                 for lines in reader.iter_batches(spec.batch_size)]
        slab = concat_slabs(slabs or [transposer.transpose([])])
        if span is not None:
            span.args.update(records=transposer.count)
    return slab, transposer.failures


def _write_rank_store(spec: PreprocessSpec, slab: ColumnSlab,
                      failures: list, metrics: RankMetrics) -> None:
    """Write the rank's slab as its store and BAIX index.

    Raises the record path's error instead if the transpose kept
    *failures* aside.  Both files are written under temporary names and
    renamed into place once the index is saved.
    """
    tracer = get_tracer()
    header = SamHeader.from_text(spec.header_text)
    if failures:
        raise_failure(failures, slab, header, spec.store_format,
                      spec.batch_size)
    layout = BamxLayout.of_columns([slab])
    baix_path = default_index_path(spec.bamx_path)
    suffix = f".tmp{os.getpid()}"
    store_tmp, baix_tmp = spec.bamx_path + suffix, baix_path + suffix
    with staged_outputs([(store_tmp, spec.bamx_path),
                         (baix_tmp, baix_path)]):
        if spec.store_format == "bamc":
            writer = BamcWriter(store_tmp, header, layout,
                                slab_records=spec.batch_size)
        else:
            writer = BamxWriter(store_tmp, header, layout)
        with tracer.span("write", "samp", args={"records": slab.count}), \
                writer:
            writer.write_columns(slab)
        with tracer.span("index", "samp") as span:
            index = BaixIndex.from_slabs([slab])
            index.save(baix_tmp)
            if span is not None:
                span.args.update(entries=len(index))
    metrics.bytes_written += (os.path.getsize(spec.bamx_path)
                              + os.path.getsize(baix_path))


def _preprocess_rank_task(spec: PreprocessSpec):
    """Transpose one SAM partition and write it as a record store.

    The rank's columns are held in memory until its capacities are
    known; with the even partitioning of Algorithm 1 each rank holds
    ~1/M of the dataset, which is the same working-set assumption the
    paper's in-memory buffers make.

    A ``parse_only`` shard stops after the transpose and returns
    ``(metrics, (slab, failures))`` for the per-rank reduction
    (:meth:`PreprocessSpec.merge_shards`).
    """
    t0 = time.perf_counter()
    metrics = RankMetrics()
    slab, failures = _transpose_rank(spec, metrics)
    metrics.records = slab.count + len(failures)
    metrics.emitted = metrics.records
    if spec.parse_only:
        return finish_rank_metrics(metrics, t0), (slab, failures)
    _write_rank_store(spec, slab, failures, metrics)
    return finish_rank_metrics(metrics, t0)


def _identity(path: str) -> tuple[int, int] | None:
    """``(inode, mtime)`` of *path*, or None if it does not exist."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns


class PreprocSamConverter:
    """SAM -> * converter with a *parallel* BAMX preprocessing phase."""

    def __init__(self, read_chunk: int = 4 << 20,
                 batch_size: int | str = DEFAULT_BATCH_SIZE,
                 pipeline: str = "batch",
                 shards_per_rank: int | str = 1,
                 store_format: str = "bamx",
                 tuner: AutoTuner | None = None) -> None:
        check_store_format(store_format, error=ConversionError)
        self.read_chunk = read_chunk
        self.batch_size = validate_knob(batch_size, "batch_size")
        self.pipeline = pipeline
        self.shards_per_rank = validate_knob(shards_per_rank,
                                             "shards_per_rank")
        self.store_format = store_format
        self.tuner = ensure_tuner(tuner, self.shards_per_rank,
                                  self.batch_size)

    def preprocess(self, sam_path: str | os.PathLike[str],
                   work_dir: str | os.PathLike[str], nprocs: int = 1,
                   executor: str = "simulate",
                   ) -> tuple[list[str], list[RankMetrics]]:
        """Parallel preprocessing: M ranks, M store/BAIX file pairs.

        Returns the store paths (rank order) and per-rank metrics.  If
        any rank fails, the files the other ranks of this call wrote
        are removed before the error propagates.
        """
        if nprocs < 1:
            raise ConversionError(f"nprocs {nprocs} must be >= 1")
        sam_path = os.fspath(sam_path)
        work_dir = os.fspath(work_dir)
        os.makedirs(work_dir, exist_ok=True)
        tracer = get_tracer()
        with tracer.span("preprocess", "samp",
                         args={"input": os.path.basename(sam_path),
                               "nprocs": nprocs}):
            with tracer.span("partition", "samp"):
                header, header_end = scan_header(sam_path)
                partitions = partition_alignments(sam_path, nprocs,
                                                  header_end)
            stem = os.path.splitext(os.path.basename(sam_path))[0]
            ext = store_extension(False, self.store_format)
            shards, batch_size, tuning = resolve_tuning(
                self.tuner, target="preprocess",
                store_format=self.store_format, pipeline="parse",
                total_units=os.path.getsize(sam_path) - header_end,
                nprocs=nprocs, shards=self.shards_per_rank,
                batch_size=self.batch_size,
                default_batch=DEFAULT_BATCH_SIZE)
            specs = [
                PreprocessSpec(
                    sam_path=sam_path,
                    start=p.start,
                    end=p.end,
                    bamx_path=os.path.join(
                        work_dir, f"{stem}.part{p.rank:04d}{ext}"),
                    header_text=header.to_text(),
                    read_chunk=self.read_chunk,
                    batch_size=batch_size,
                    store_format=self.store_format,
                )
                for p in partitions
            ]
            outputs = [path for spec in specs for path in
                       (spec.bamx_path, default_index_path(spec.bamx_path))]
            before = {path: _identity(path) for path in outputs}
            try:
                metrics = execute_rank_tasks(
                    _preprocess_rank_task, specs, executor,
                    shards_per_rank=shards, tuning=tuning)
            except BaseException:
                # A rank failed: remove what the other ranks of this
                # call wrote, leaving files from earlier runs alone.
                for path in outputs:
                    if _identity(path) not in (None, before[path]):
                        os.remove(path)
                raise
            record_tuning(tracer, tuning)
        return [s.bamx_path for s in specs], metrics

    def convert(self, bamx_paths: list[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate") -> ConversionResult:
        """Parallel conversion phase over the preprocessed BAMX files.

        Processes one BAMX file at a time with *nprocs* ranks (the
        paper's N), so M preprocessing ranks and N conversion ranks
        yield M x N target files.
        """
        if not bamx_paths:
            raise ConversionError("no BAMX files to convert")
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        bam_converter = BamConverter(batch_size=self.batch_size,
                                     pipeline=self.pipeline,
                                     shards_per_rank=self.shards_per_rank,
                                     store_format=self.store_format,
                                     tuner=self.tuner)
        outputs: list[str] = []
        # Rank r's total work is the sum of its share of every BAMX file,
        # matching the paper's one-file-at-a-time schedule.
        combined: list[RankMetrics] = [RankMetrics() for _ in range(nprocs)]
        records = 0
        emitted = 0
        for bamx_path in bamx_paths:
            part = bam_converter.convert(bamx_path, target, out_dir,
                                         nprocs, executor)
            outputs.extend(part.outputs)
            records += part.records
            emitted += part.emitted
            for rank in range(nprocs):
                combined[rank] = combined[rank].merge(
                    part.rank_metrics[rank])
        return ConversionResult(
            target=target,
            outputs=outputs,
            rank_metrics=combined,
            records=records,
            emitted=emitted,
            wall_seconds=time.perf_counter() - t0,
        )

    def convert_end_to_end(self, sam_path: str | os.PathLike[str],
                           target: str, work_dir: str | os.PathLike[str],
                           out_dir: str | os.PathLike[str],
                           preprocess_procs: int = 1,
                           convert_procs: int = 1,
                           executor: str = "simulate") -> ConversionResult:
        """Preprocess then convert; preprocessing metrics are attached to
        the result's ``preprocess_metrics``."""
        bamx_paths, pre_metrics = self.preprocess(
            sam_path, work_dir, preprocess_procs, executor)
        result = self.convert(bamx_paths, target, out_dir, convert_procs,
                              executor)
        result.preprocess_metrics = pre_metrics
        return result
