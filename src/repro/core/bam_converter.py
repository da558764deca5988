"""The BAM format converter (§III-B, Fig. 3).

BAM records carry no delimiter and sit inside BGZF blocks, so an even
byte split leaves every partition unparsable: BAM conversion cannot be
parallelized without preprocessing.  The converter therefore runs two
phases:

1. **Sequential preprocessing** — stream the BAM once, transposing its
   records slab by slab into columns, then write the fixed-record BAMX
   file (its capacities are the column maxima) and its one BAIX index
   (coordinate-sorted starts and ends -> record indices) from those
   columns.
2. **Parallel conversion** — the BAMX supports O(1) random access, so
   partitioning degenerates to handing each rank an equal count of
   records; from there the flow matches the SAM converter.

The BAIX also enables *partial conversion*: a chromosome region is
binary-searched to a contiguous BAIX subrange, which is split evenly
across ranks (§III-B, Fig. 4).  The same index answers overlap queries
(records whose alignment span meets the region).

For the Table I baseline, :func:`convert_bam_direct` converts straight
from BAM without preprocessing (necessarily one rank).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

from ..errors import ConversionError
from ..formats.bam import BamReader
from ..formats.baix import BaixIndex, default_index_path
from ..formats.bamc import BamcWriter
from ..formats.bamx import BamxLayout, BamxWriter
from ..formats.bamz import BamzWriter
from ..formats.bamz import index_path_for as bzi_path
from ..formats.batch import DEFAULT_BATCH_SIZE, PIPELINES
from ..formats.store import check_store_format, open_record_store, \
    store_extension
from ..formats.header import SamHeader
from ..formats.transpose import transpose_bam
from ..runtime.autotune import AUTO, AutoTuner
from ..runtime.buffers import BufferedTextWriter
from ..runtime.metrics import RankMetrics
from ..runtime.partition import partition_records
from ..runtime.tracing import get_tracer
from .base import ConversionResult, bind_target, emit_records, \
    ensure_tuner, execute_rank_tasks, finish_rank_metrics, \
    make_output_path, merge_shard_outputs, record_tuning, \
    resolve_tuning, staged_outputs, validate_knob
from .filters import ACCEPT_ALL, RecordFilter
from .region import GenomicRegion
from .targets import get_target


def preprocess_bam(bam_path: str | os.PathLike[str],
                   bamx_path: str | os.PathLike[str],
                   baix_path: str | os.PathLike[str] | None = None,
                   compress: bool = False,
                   batch_size: int = DEFAULT_BATCH_SIZE,
                   store_format: str = "bamx",
                   ) -> RankMetrics:
    """Sequential preprocessing: BAM -> BAMX/BAMZ/BAMC + BAIX.

    One streaming pass inflates the BAM and transposes it, *batch_size*
    records at a time, into column slabs
    (:func:`~repro.formats.transpose.transpose_bam`); the BGZF layer
    forbids anything but sequential decoding, which is why this phase
    cannot be parallelized (§III-B).  The store layout's capacities are
    the column maxima, the same slabs are written to the record store,
    and the one BAIX index comes from one sort of the placed records.  With
    ``compress=True`` the record store is written as BGZF-compressed
    BAMZ (the paper's future-work extension) instead of raw BAMX; with
    ``store_format="bamc"`` it is written as the slab-columnar BAMC,
    which the conversion phase reads through the vectorized kernels.

    The outputs are byte-identical to decoding every record and
    writing it through the record writers, and a bad input raises what
    that path raises.  Every artifact is written under a temporary name
    and renamed into place once all are complete, so a failed run
    leaves none behind.  Returns the phase metrics.
    """
    check_store_format(store_format, compress, ConversionError)
    t0 = time.perf_counter()
    metrics = RankMetrics()
    bam_path = os.fspath(bam_path)
    bamx_path = os.fspath(bamx_path)
    baix_path = os.fspath(baix_path or default_index_path(bamx_path))
    suffix = f".tmp{os.getpid()}"
    store_tmp = bamx_path + suffix
    baix_tmp = baix_path + suffix
    renames = [(store_tmp, bamx_path), (baix_tmp, baix_path)]
    if compress:
        renames.append((bzi_path(store_tmp), bzi_path(bamx_path)))
    tracer = get_tracer()
    with staged_outputs(renames), \
            tracer.span("preprocess", "bam",
                        args={"input": os.path.basename(bam_path),
                              "compress": compress,
                              "store_format": store_format}):
        with tracer.span("transpose", "bam",
                         args={"slab_records": batch_size}) as span, \
                BamReader(bam_path) as reader:
            header = reader.header
            slabs = list(transpose_bam(reader, batch_size))
            count = sum(slab.count for slab in slabs)
            if span is not None:
                span.args.update(records=count, slabs=len(slabs))
        layout = BamxLayout.of_columns(slabs)
        if store_format == "bamc":
            writer = BamcWriter(store_tmp, header, layout,
                                slab_records=batch_size)
        elif compress:
            writer = BamzWriter(store_tmp, header, layout)
        else:
            writer = BamxWriter(store_tmp, header, layout)
        with tracer.span("write", "bam", args={"records": count}), \
                writer:
            for slab in slabs:
                writer.write_columns(slab)
        with tracer.span("index", "bam") as span:
            index = BaixIndex.from_slabs(slabs)
            index.save(baix_tmp)
            if span is not None:
                span.args.update(entries=len(index))
    metrics.records = count
    metrics.bytes_read = os.path.getsize(bam_path)
    metrics.bytes_written = sum(os.path.getsize(final)
                                for _, final in renames)
    return finish_rank_metrics(metrics, t0)


@dataclass(frozen=True, slots=True)
class PreprocArtifacts:
    """Preprocessing products handed to a converter from outside.

    The service layer's artifact cache (and any future distributed
    store) builds BAMX/BAIX pairs out-of-band; converters accept this
    handle instead of insisting on running preprocessing themselves.
    """

    store_path: str
    baix_path: str

    @classmethod
    def for_store(cls, store_path: str | os.PathLike[str],
                  baix_path: str | os.PathLike[str] | None = None,
                  ) -> "PreprocArtifacts":
        """Wrap an existing store, defaulting the index path."""
        store_path = os.fspath(store_path)
        if baix_path is None:
            baix_path = default_index_path(store_path)
        return cls(store_path, os.fspath(baix_path))

    def validate(self) -> "PreprocArtifacts":
        """Check both files exist; returns self for chaining."""
        for path in (self.store_path, self.baix_path):
            if not os.path.isfile(path):
                raise ConversionError(
                    f"preprocessing artifact missing: {path}")
        return self


@dataclass(frozen=True, slots=True)
class BamxRangeSpec:
    """One rank's contiguous BAMX record range (full conversion)."""

    bamx_path: str
    start: int
    stop: int
    target: str
    out_path: str
    record_filter: RecordFilter = ACCEPT_ALL
    batch_size: int = DEFAULT_BATCH_SIZE
    pipeline: str = "batch"
    write_header: bool = True

    def cost_hint(self) -> float:
        """Relative shard size: BAMX records to convert."""
        return float(self.stop - self.start)

    def split(self, n: int) -> "list[BamxRangeSpec]":
        """Over-decompose this rank's record range into <= *n* shards.

        BAMX records are fixed-size, so the split is an exact count
        split; shards write ``.shardNN`` files (header on shard 0 only)
        that :meth:`merge_shards` concatenates.  Binary targets
        decline.
        """
        count = self.stop - self.start
        if n <= 1 or count <= 1 \
                or get_target(self.target).mode == "binary":
            return [self]
        parts = [(s, e) for s, e in partition_records(count, n) if e > s]
        if len(parts) <= 1:
            return [self]
        return [replace(self,
                        start=self.start + s,
                        stop=self.start + e,
                        out_path=f"{self.out_path}.shard{i:02d}",
                        write_header=(i == 0))
                for i, (s, e) in enumerate(parts)]

    def merge_shards(self, shard_specs: "list[BamxRangeSpec]",
                     shard_results: list[RankMetrics]) -> RankMetrics:
        """Ordered reducer: concatenate shard files into ``out_path``."""
        return merge_shard_outputs(self.out_path, shard_specs,
                                   shard_results)


@dataclass(frozen=True, slots=True)
class BamxPickSpec:
    """One rank's explicit record indices (partial conversion)."""

    bamx_path: str
    indices: tuple[int, ...]
    target: str
    out_path: str
    record_filter: RecordFilter = ACCEPT_ALL
    batch_size: int = DEFAULT_BATCH_SIZE
    pipeline: str = "batch"
    write_header: bool = True

    def cost_hint(self) -> float:
        """Relative shard size: records to random-access."""
        return float(len(self.indices))

    def split(self, n: int) -> "list[BamxPickSpec]":
        """Over-decompose this rank's index list into <= *n* shards."""
        count = len(self.indices)
        if n <= 1 or count <= 1 \
                or get_target(self.target).mode == "binary":
            return [self]
        parts = [(s, e) for s, e in partition_records(count, n) if e > s]
        if len(parts) <= 1:
            return [self]
        return [replace(self,
                        indices=self.indices[s:e],
                        out_path=f"{self.out_path}.shard{i:02d}",
                        write_header=(i == 0))
                for i, (s, e) in enumerate(parts)]

    def merge_shards(self, shard_specs: "list[BamxPickSpec]",
                     shard_results: list[RankMetrics]) -> RankMetrics:
        """Ordered reducer: concatenate shard files into ``out_path``."""
        return merge_shard_outputs(self.out_path, shard_specs,
                                   shard_results)


def _bamx_range_task(spec: BamxRangeSpec) -> RankMetrics:
    """Convert records ``[start, stop)`` of a record store."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with open_record_store(spec.bamx_path) as reader:
        target = bind_target(get_target(spec.target), reader.header)
        metrics.bytes_read += (spec.stop - spec.start) \
            * reader.layout.record_size
        if spec.pipeline == "batch" and target.mode == "text":
            slabs = reader.read_column_batches(spec.start, spec.stop,
                                               spec.batch_size)
            _write_target_columnar(slabs, reader, target, spec,
                                   metrics)
        else:
            records = spec.record_filter.apply(
                reader.read_range(spec.start, spec.stop))
            _write_target(records, target, reader.header, spec.out_path,
                          metrics, spec.write_header)
    return finish_rank_metrics(metrics, t0)


def _bamx_pick_task(spec: BamxPickSpec) -> RankMetrics:
    """Convert an explicit set of record indices (random access)."""
    t0 = time.perf_counter()
    metrics = RankMetrics()
    with open_record_store(spec.bamx_path) as reader:
        target = bind_target(get_target(spec.target), reader.header)
        metrics.bytes_read += len(spec.indices) * reader.layout.record_size
        if spec.pipeline == "batch" and target.mode == "text":
            slabs = reader.read_column_picks(spec.indices,
                                             spec.batch_size)
            _write_target_columnar(slabs, reader, target, spec,
                                   metrics)
        else:
            records = spec.record_filter.apply(
                reader[i] for i in spec.indices)
            _write_target(records, target, reader.header, spec.out_path,
                          metrics, spec.write_header)
    return finish_rank_metrics(metrics, t0)


def _write_target_columnar(slabs, reader, target, spec,
                           metrics: RankMetrics) -> None:
    """Columnar text conversion of :class:`~..formats.bamc.ColumnSlab`s.

    Targets with a vectorized kernel emit whole slabs through numpy
    masks and blob-wide decodes; other targets (and any slab a kernel
    declines) fall back to record-at-a-time decoding of the same slab,
    counted in ``metrics.kernel_fallbacks``.  Byte-identical to the
    per-record path.
    """
    from ..formats import kernels as kernel_codec
    tracer = get_tracer()
    header = reader.header
    emit = kernel_codec.kernel_emitter_for(target, header)
    seen = emitted = batches = fallbacks = 0
    with tracer.span("write", "io",
                     args={"out": os.path.basename(spec.out_path)}), \
            tracer.span("batch.pipeline", "bam",
                        args={"batch_size": spec.batch_size,
                              "kernel": emit is not None,
                              "target": spec.target}) as span, \
            BufferedTextWriter(spec.out_path, metrics=metrics) as writer:
        head = target.file_header(header)
        if head and spec.write_header:
            writer.write_text(head)
        out_lines: list[str] = []
        for slab in slabs:
            if emit is not None:
                try:
                    lines, s = emit(slab, spec.record_filter)
                    out_lines.extend(lines)
                    e = len(lines)
                except kernel_codec.KernelFallback:
                    s, e = kernel_codec.convert_slab_record(
                        slab, header, target, spec.record_filter,
                        out_lines)
                    fallbacks += 1
            else:
                s, e = kernel_codec.convert_slab_record(
                    slab, header, target, spec.record_filter, out_lines)
                fallbacks += 1
            seen += s
            emitted += e
            batches += 1
            if len(out_lines) >= spec.batch_size:
                writer.write_lines(out_lines)
                out_lines = []
        if out_lines:
            writer.write_lines(out_lines)
        if span is not None:
            span.args.update(batches=batches, records=seen,
                             fallbacks=fallbacks)
    metrics.records += seen
    metrics.emitted += emitted
    metrics.kernel_fallbacks += fallbacks


def _write_target(records, target, header: SamHeader, out_path: str,
                  metrics: RankMetrics, write_header: bool = True) -> None:
    with get_tracer().span("write", "io",
                           args={"out": os.path.basename(out_path)}):
        _write_target_inner(records, target, header, out_path, metrics,
                            write_header)


def _write_target_inner(records, target, header: SamHeader, out_path: str,
                        metrics: RankMetrics,
                        write_header: bool = True) -> None:
    if target.mode == "binary":
        from ..formats.bam import BamWriter
        writer = BamWriter(out_path, header)
        emitted = 0
        for record in records:
            writer.write(record)
            emitted += 1
        writer.close()
        metrics.records += emitted
        metrics.emitted += emitted
        metrics.bytes_written += os.path.getsize(out_path)
    else:
        with BufferedTextWriter(out_path, metrics=metrics) as writer:
            head = target.file_header(header)
            if head and write_header:
                writer.write_text(head)
            emit_records(records, target, writer, metrics)


class BamConverter:
    """Two-phase parallel BAM -> * converter.

    Parameters
    ----------
    batch_size:
        Records per column slab through the batched conversion phase.
    pipeline:
        ``"batch"`` (default) converts column slabs of any record store
        through the vectorized kernels; ``"record"`` decodes every
        record and is the reference.  Outputs are byte-identical.
    shards_per_rank:
        Over-decomposition factor: each rank's record range is split
        into up to this many shards pulled dynamically by the shared
        worker pool.  ``1`` (default) is the paper-faithful static
        schedule; ``"auto"`` lets the cost model pick per job.
    store_format:
        Record-store format :meth:`preprocess` writes: ``"bamx"``
        (default; row-major fixed records, BAMZ when compressed) or
        ``"bamc"`` (slab-columnar).  Conversion itself dispatches on
        the store's magic, so either converter reads either store.
    tuner:
        :class:`~repro.runtime.autotune.AutoTuner` resolving ``"auto"``
        knobs and learning from every run; auto-created in-memory when
        omitted but a knob is ``"auto"``.
    """

    def __init__(self, batch_size: int | str = DEFAULT_BATCH_SIZE,
                 pipeline: str = "batch",
                 shards_per_rank: int | str = 1,
                 store_format: str = "bamx",
                 tuner: AutoTuner | None = None) -> None:
        if pipeline not in PIPELINES:
            raise ConversionError(
                f"unknown pipeline {pipeline!r}; choose one of "
                f"{PIPELINES}")
        check_store_format(store_format, error=ConversionError)
        self.batch_size = validate_knob(batch_size, "batch_size")
        self.pipeline = pipeline
        self.shards_per_rank = validate_knob(shards_per_rank,
                                             "shards_per_rank")
        self.store_format = store_format
        self.tuner = ensure_tuner(tuner, self.shards_per_rank,
                                  self.batch_size)

    def _store_kind(self, store_path: str) -> str:
        """Cost-model store component, from the store's extension."""
        ext = os.path.splitext(store_path)[1].lstrip(".").lower()
        return ext or self.store_format

    def preprocess(self, bam_path: str | os.PathLike[str],
                   work_dir: str | os.PathLike[str],
                   compress: bool = False,
                   ) -> tuple[str, str, RankMetrics]:
        """Run sequential preprocessing into *work_dir*.

        Returns ``(store_path, baix_path, metrics)``; the store is BAMX,
        BGZF-compressed BAMZ when ``compress=True``, or columnar BAMC
        when the converter was built with ``store_format="bamc"``.
        """
        work_dir = os.fspath(work_dir)
        os.makedirs(work_dir, exist_ok=True)
        stem = os.path.splitext(os.path.basename(os.fspath(bam_path)))[0]
        bamx_path = os.path.join(
            work_dir, stem + store_extension(compress, self.store_format))
        baix_path = default_index_path(bamx_path)
        batch_size = DEFAULT_BATCH_SIZE if self.batch_size == AUTO \
            else self.batch_size
        metrics = preprocess_bam(bam_path, bamx_path, baix_path,
                                 compress=compress,
                                 batch_size=batch_size,
                                 store_format=self.store_format)
        return bamx_path, baix_path, metrics

    def ensure_preprocessed(self, bam_path: str | os.PathLike[str],
                            work_dir: str | os.PathLike[str],
                            compress: bool = False,
                            artifacts: PreprocArtifacts | None = None,
                            ) -> tuple[PreprocArtifacts,
                                       RankMetrics | None]:
        """Reuse externally supplied artifacts or preprocess now.

        When *artifacts* names an existing BAMX/BAIX pair (e.g. from
        the service layer's content-addressed cache) the sequential
        preprocessing phase is skipped entirely and the metrics slot is
        ``None``; otherwise :meth:`preprocess` runs into *work_dir*.
        """
        if artifacts is not None:
            return artifacts.validate(), None
        store_path, baix_path, metrics = self.preprocess(
            bam_path, work_dir, compress=compress)
        return PreprocArtifacts(store_path, baix_path), metrics

    def convert(self, bamx_path: str | os.PathLike[str], target: str,
                out_dir: str | os.PathLike[str], nprocs: int = 1,
                executor: str = "simulate",
                record_filter: RecordFilter | None = None,
                ) -> ConversionResult:
        """Parallel full conversion of a preprocessed BAMX/BAMZ store.

        *record_filter* restricts which records are emitted.
        """
        if nprocs < 1:
            raise ConversionError(f"nprocs {nprocs} must be >= 1")
        bamx_path = os.fspath(bamx_path)
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        tracer = get_tracer()
        with tracer.span("convert", "bam",
                         args={"store": os.path.basename(bamx_path),
                               "target": target, "nprocs": nprocs}):
            with open_record_store(bamx_path) as reader:
                count = len(reader)
            target_plugin = get_target(target)
            stem = os.path.splitext(os.path.basename(bamx_path))[0]
            shards, batch_size, tuning = resolve_tuning(
                self.tuner, target=target,
                store_format=self._store_kind(bamx_path),
                pipeline=self.pipeline, total_units=count,
                nprocs=nprocs, shards=self.shards_per_rank,
                batch_size=self.batch_size,
                default_batch=DEFAULT_BATCH_SIZE)
            specs = [
                BamxRangeSpec(bamx_path, start, stop, target,
                              make_output_path(out_dir, stem, rank,
                                               target_plugin),
                              record_filter or ACCEPT_ALL,
                              batch_size, self.pipeline)
                for rank, (start, stop)
                in enumerate(partition_records(count, nprocs))
            ]
            rank_metrics = execute_rank_tasks(
                _bamx_range_task, specs, executor,
                shards_per_rank=shards, tuning=tuning)
            record_tuning(tracer, tuning)
        return ConversionResult(
            target=target,
            outputs=[s.out_path for s in specs],
            rank_metrics=rank_metrics,
            records=sum(m.records for m in rank_metrics),
            emitted=sum(m.emitted for m in rank_metrics),
            wall_seconds=time.perf_counter() - t0,
        )

    def convert_region(self, bamx_path: str | os.PathLike[str],
                       baix_path: str | os.PathLike[str] | None,
                       region: GenomicRegion | str, target: str,
                       out_dir: str | os.PathLike[str], nprocs: int = 1,
                       executor: str = "simulate", mode: str = "start",
                       record_filter: RecordFilter | None = None,
                       ) -> ConversionResult:
        """Partial conversion of one chromosome region.

        ``mode="start"`` (the paper's semantics) selects records whose
        *starting position* lies inside the region, via binary search
        over the BAIX.  ``mode="overlap"`` selects records whose
        alignment span overlaps the region (the future-work extension)
        through the same index; a v1 index answers start queries only.
        *baix_path* defaults to ``<store>.baix``.  Either way the
        selected record indices are split evenly across ranks for
        random-access conversion (§III-B).  *record_filter* further
        restricts by flags/MAPQ.
        """
        return self._convert_picks(
            "convert.region", ".region", bamx_path, baix_path, [region],
            target, out_dir, nprocs, executor, mode, record_filter)

    def convert_regions(self, bamx_path: str | os.PathLike[str],
                        baix_path: str | os.PathLike[str] | None,
                        regions: list, target: str,
                        out_dir: str | os.PathLike[str], nprocs: int = 1,
                        executor: str = "simulate", mode: str = "start",
                        record_filter: RecordFilter | None = None,
                        ) -> ConversionResult:
        """Partial conversion of the *union* of several regions.

        Records selected by more than one region are converted exactly
        once; the combined index set is split evenly across ranks.  One
        of the "more partial conversion types" the paper's future work
        calls for.  Parameters match :meth:`convert_region`.
        """
        if not regions:
            raise ConversionError("convert_regions needs >= 1 region")
        return self._convert_picks(
            "convert.regions", ".regions", bamx_path, baix_path, regions,
            target, out_dir, nprocs, executor, mode, record_filter)

    def _convert_picks(self, span_name: str, suffix: str,
                       bamx_path: str | os.PathLike[str],
                       baix_path: str | os.PathLike[str] | None,
                       regions: list, target: str,
                       out_dir: str | os.PathLike[str], nprocs: int,
                       executor: str, mode: str,
                       record_filter: RecordFilter | None,
                       ) -> ConversionResult:
        """Convert the records the index selects for *regions*.

        Indices keep the index's order within a region and first-seen
        order across regions, without duplicates.  Part files are
        ``<stem><suffix>.partNNNN``.
        """
        if nprocs < 1:
            raise ConversionError(f"nprocs {nprocs} must be >= 1")
        if mode not in ("start", "overlap"):
            raise ConversionError(
                f"unknown partial-conversion mode {mode!r}; choose "
                f"'start' or 'overlap'")
        bamx_path = os.fspath(bamx_path)
        out_dir = os.fspath(out_dir)
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        tracer = get_tracer()
        with tracer.span(span_name, "bam",
                         args={"store": os.path.basename(bamx_path),
                               "target": target, "nprocs": nprocs,
                               "regions": len(regions), "mode": mode}):
            with open_record_store(bamx_path) as reader:
                header = reader.header
            parsed = [GenomicRegion.parse(r, header)
                      if isinstance(r, str) else r for r in regions]
            with tracer.span("locate", "bam", args={"mode": mode}):
                index = BaixIndex.load(
                    baix_path or default_index_path(bamx_path))
                index_lists = [
                    index.select(header.ref_id(region.chrom), region.start,
                                 region.end, mode)
                    for region in parsed]
            indices = list(dict.fromkeys(
                i for index_list in index_lists
                for i in index_list.tolist()))
            target_plugin = get_target(target)
            stem = os.path.splitext(os.path.basename(bamx_path))[0]
            shards, batch_size, tuning = resolve_tuning(
                self.tuner, target=target,
                store_format=self._store_kind(bamx_path),
                pipeline=f"{self.pipeline}.pick",
                total_units=len(indices), nprocs=nprocs,
                shards=self.shards_per_rank,
                batch_size=self.batch_size,
                default_batch=DEFAULT_BATCH_SIZE)
            specs = [
                BamxPickSpec(bamx_path, tuple(indices[start:stop]), target,
                             make_output_path(out_dir, stem + suffix,
                                              rank, target_plugin),
                             record_filter or ACCEPT_ALL,
                             batch_size, self.pipeline)
                for rank, (start, stop)
                in enumerate(partition_records(len(indices), nprocs))
            ]
            rank_metrics = execute_rank_tasks(
                _bamx_pick_task, specs, executor,
                shards_per_rank=shards, tuning=tuning)
            record_tuning(tracer, tuning)
        return ConversionResult(
            target=target,
            outputs=[s.out_path for s in specs],
            rank_metrics=rank_metrics,
            records=sum(m.records for m in rank_metrics),
            emitted=sum(m.emitted for m in rank_metrics),
            wall_seconds=time.perf_counter() - t0,
        )


def convert_bam_direct(bam_path: str | os.PathLike[str], target: str,
                       out_path: str | os.PathLike[str]) -> ConversionResult:
    """Sequential BAM -> * conversion without preprocessing.

    This is "our system without preprocessing" in Table I: the BGZF
    stream is decoded front-to-back on one core and converted on the
    fly.
    """
    t0 = time.perf_counter()
    metrics = RankMetrics()
    bam_path = os.fspath(bam_path)
    out_path = os.fspath(out_path)
    with get_tracer().span("convert.direct", "bam",
                           args={"input": os.path.basename(bam_path),
                                 "target": target}), \
            BamReader(bam_path) as reader:
        target_plugin = bind_target(get_target(target), reader.header)
        metrics.bytes_read += os.path.getsize(bam_path)
        _write_target(iter(reader), target_plugin, reader.header, out_path,
                      metrics)
    rank = finish_rank_metrics(metrics, t0)
    return ConversionResult(
        target=target,
        outputs=[out_path],
        rank_metrics=[rank],
        records=rank.records,
        emitted=rank.emitted,
        wall_seconds=time.perf_counter() - t0,
    )
