"""Converter runtime scaffolding shared by the three converter instances.

The paper separates a *runtime system* (partitioning, buffering,
parallel execution, resource management) from the *user program* (the
per-record conversion function).  This module is the runtime system's
common machinery:

* :func:`execute_rank_tasks` — run one task per rank under the chosen
  executor (``simulate`` / ``thread`` / ``process``);
* :class:`ConversionResult` — what every converter returns: output
  paths, per-rank metrics (feeding the cluster model), record counts;
* :func:`emit_records` — the inner loop converting parsed alignment
  objects through a target plugin into a write buffer, with compute
  time metered separately from I/O.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import ConversionError, RuntimeLayerError
from ..formats.header import SamHeader
from ..formats.record import AlignmentRecord
from ..runtime.autotune import AUTO, JobTuning, MAX_RESPLIT_ROUNDS
from ..runtime.buffers import BufferedTextWriter
from ..runtime.executor import get_shared_executor
from ..runtime.metrics import RankMetrics
from ..runtime.tracing import Tracer, get_tracer
from .targets import TargetFormat

#: Executors accepted by the converters.
EXECUTORS = ("simulate", "thread", "process")


def validate_knob(value: Any, name: str) -> int | str:
    """Validate a tuning knob that accepts a positive int or ``"auto"``.

    Returns the int or the canonical :data:`~repro.runtime.autotune.AUTO`
    sentinel; anything else raises :class:`~repro.errors.ConversionError`
    naming the bad value (no raw ``int()`` tracebacks).
    """
    if isinstance(value, str):
        if value.strip().lower() == AUTO:
            return AUTO
        try:
            value = int(value)
        except ValueError:
            raise ConversionError(
                f"invalid {name} value {value!r}: expected a positive "
                f"integer or 'auto'") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConversionError(
            f"invalid {name} value {value!r}: expected a positive "
            f"integer or 'auto'")
    if value < 1:
        raise ConversionError(
            f"invalid {name} value {value}: must be >= 1 (or 'auto')")
    return value


def ensure_tuner(tuner: Any, *knobs: Any) -> Any:
    """The tuner a converter should use.

    An explicit tuner wins.  Otherwise, when any knob is ``"auto"``, a
    private in-memory tuner is created (cold -> defaults, warming
    across this converter instance's calls); with neither, ``None`` —
    fully manual knobs pay zero tuning overhead.
    """
    if tuner is not None or AUTO not in knobs:
        return tuner
    from ..runtime.autotune import AutoTuner, CostModel
    return AutoTuner(CostModel())


def resolve_tuning(tuner: Any, target: str, store_format: str,
                   pipeline: str, total_units: float, nprocs: int,
                   shards: int | str, batch_size: int | str,
                   default_batch: int,
                   ) -> tuple[int, int, JobTuning | None]:
    """Resolve possibly-``"auto"`` knobs into concrete values.

    Returns ``(shards_per_rank, batch_size, tuning)``; without a tuner
    the ``"auto"`` knobs just fall back to the defaults and *tuning* is
    ``None`` (no budgets, no observations).
    """
    if tuner is None:
        return (1 if shards == AUTO else shards,
                default_batch if batch_size == AUTO else batch_size,
                None)
    tuning = tuner.begin_job(
        target=target, store_format=store_format, pipeline=pipeline,
        total_units=total_units, nprocs=nprocs, shards=shards,
        batch_size=batch_size, default_batch=default_batch)
    return tuning.shards_per_rank, tuning.batch_size, tuning


def record_tuning(tracer: Tracer, tuning: JobTuning | None) -> None:
    """Persist a job's observations and trace its ``cost_model`` block.

    The provenance span nests under whatever span is active — the
    converter's ``convert`` span, and through it the service's
    per-attempt job span — so ``repro status --trace JOB`` explains
    every auto decision.
    """
    if tuning is None:
        return
    tuning.finish()
    with tracer.span("autotune", "autotune",
                     args={"cost_model": tuning.provenance()}):
        pass


@dataclass(slots=True)
class ShardRemainder:
    """A budgeted shard task yielded early: partial results plus the
    spec covering its unconsumed input.

    Cooperative straggler handling: a spec carrying ``budget_seconds``
    checks its elapsed time at batch boundaries and, once over budget,
    stops cleanly (output written so far stays valid) and returns this
    instead of plain metrics.  The scheduler re-splits ``tail_spec``
    and dispatches the pieces across the pool; the ordered per-rank
    reduction keeps the final output byte-identical.
    """

    metrics: RankMetrics
    tail_spec: Any


@dataclass(slots=True)
class ConversionResult:
    """Outcome of one conversion run.

    Attributes
    ----------
    target:
        Target format name.
    outputs:
        Paths of the produced part files, in rank order.
    rank_metrics:
        One :class:`RankMetrics` per rank (conversion phase only).
    preprocess_metrics:
        Metrics of the preprocessing phase, when the converter has one.
    records:
        Total records converted (after target-side skips this is the
        number *emitted*, tracked separately as ``emitted``).
    emitted:
        Total target objects written.
    wall_seconds:
        Real elapsed time of the run on this machine.
    """

    target: str
    outputs: list[str] = field(default_factory=list)
    rank_metrics: list[RankMetrics] = field(default_factory=list)
    preprocess_metrics: list[RankMetrics] = field(default_factory=list)
    records: int = 0
    emitted: int = 0
    wall_seconds: float = 0.0

    @property
    def nprocs(self) -> int:
        """Number of ranks that participated in conversion."""
        return len(self.rank_metrics)


def execute_rank_tasks(task_fn: Callable[[Any], RankMetrics],
                       specs: Sequence[Any],
                       executor: str = "simulate",
                       shards_per_rank: int = 1,
                       tuning: JobTuning | None = None,
                       ) -> list[RankMetrics]:
    """Run ``task_fn(spec)`` once per rank spec; return per-rank metrics.

    Executors
    ---------
    ``simulate``
        Ranks run one after another in this process.  Per-rank timings
        are undistorted by contention, which is what the simulated-
        cluster model needs; this is the default and what the benches
        use.
    ``thread``
        Ranks run on the shared persistent thread pool (real
        concurrency, shared memory), capped at ``os.cpu_count()``
        workers.
    ``process``
        Ranks run on the shared persistent process pool (true
        parallelism; *task_fn* and specs must be picklable).  Workers
        are forked where the platform supports it and spawned
        otherwise.

    Sharding
    --------
    With ``shards_per_rank > 1`` every spec that implements ``split(n)``
    is over-decomposed into up to *n* shards, which the shared pool
    pulls dynamically longest-first; per-shard results are folded back
    to per-rank results via each spec's ``merge_shards`` (an ordered
    reducer, so outputs stay byte-identical to the static run).  A
    spec without ``split`` — and every spec of a static run — is a
    one-shard group: its task runs as the whole rank.  A static run
    with a single rank runs in the calling process, like ``simulate``.

    Tuning
    ------
    With a :class:`~repro.runtime.autotune.JobTuning`, the sharded
    schedule becomes *adaptive*: shards carry straggler budgets (model
    prediction x straggler factor, or — on the sequential executor with
    a cold model — the median of completed siblings), budget-blown
    shards yield a :class:`ShardRemainder` whose tail is re-split and
    re-dispatched (bounded waves; the final wave is un-budgeted so the
    job always terminates), and measured ``(units, seconds)`` pairs
    flow back into the cost model from both the sharded and the static
    path.
    """
    if executor not in EXECUTORS:
        raise RuntimeLayerError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if not specs:
        raise RuntimeLayerError("no rank specs to execute")
    if shards_per_rank < 1:
        raise RuntimeLayerError(
            f"shards_per_rank must be >= 1, got {shards_per_rank}")
    return _execute_sharded(task_fn, specs,
                            _shard_plan(specs, shards_per_rank), executor,
                            get_tracer(), tuning)


def _feed_observations(tuning: JobTuning, specs: Sequence[Any],
                       results: Sequence[Any]) -> None:
    """Collect measured ``(units, seconds)`` pairs for the cost model.

    Results that are not :class:`RankMetrics`-shaped (preprocess parse
    shards return tuples) are skipped — the model only learns from
    timed work.
    """
    pairs = []
    for spec, result in zip(specs, results):
        seconds = getattr(result, "total_seconds", None)
        if seconds is not None:
            pairs.append((_cost_hint(spec), float(seconds)))
    if pairs:
        tuning.observe(pairs)


def _shard_plan(specs: Sequence[Any], shards_per_rank: int,
                ) -> list[list[Any]]:
    """Split each spec into its group of shards.

    Specs opt in by implementing ``split(n) -> list[spec]``; a spec may
    return ``[self]`` to decline (single record, binary target, ...).
    Undecomposable workloads — sort/histogram/flagstat specs,
    ``--shards 1`` — become one-shard groups: the static schedule.
    """
    if shards_per_rank <= 1:
        return [[spec] for spec in specs]
    groups: list[list[Any]] = []
    for spec in specs:
        split = getattr(spec, "split", None)
        group = [spec] if split is None else split(shards_per_rank)
        if not group:
            raise RuntimeLayerError(
                f"split() of {type(spec).__name__} returned no shards")
        groups.append(group)
    return groups


def _cost_hint(spec: Any) -> float:
    """Relative size of a shard, for longest-first dispatch."""
    hint = getattr(spec, "cost_hint", None)
    return float(hint()) if hint is not None else 1.0


def _shard_label(path: tuple[int, ...]) -> int | str:
    """Span/label id of a shard: the plain index for first-wave shards
    (back-compat with trace consumers), dotted for re-split pieces
    (``2.1`` = second sub-shard of original shard 2)."""
    if len(path) == 1:
        return path[0]
    return ".".join(str(p) for p in path)


def _supports_budget(spec: Any) -> bool:
    return getattr(spec, "budget_seconds", "absent") != "absent" \
        and getattr(spec, "split", None) is not None


def _with_budget(spec: Any, tuning: JobTuning | None) -> Any:
    """Price a shard's straggler budget from the cost model.

    Leaves the spec untouched when there is no tuning, the spec cannot
    yield, or the model is cold (the sequential executor then falls
    back to sibling-median budgets mid-wave).
    """
    if tuning is None or not _supports_budget(spec):
        return spec
    budget = tuning.budget_for(_cost_hint(spec))
    if budget is None:
        return spec
    return replace(spec, budget_seconds=budget)


def _execute_sharded(task_fn: Callable[[Any], RankMetrics],
                     specs: Sequence[Any], groups: list[list[Any]],
                     executor: str, tracer: Tracer,
                     tuning: JobTuning | None = None,
                     ) -> list[RankMetrics]:
    """Run the over-decomposed schedule and reduce shards per rank.

    Shards of all ranks are flattened into one work list and dispatched
    longest-first; the shared pool's workers pull them dynamically, so
    a skewed rank's extra shards land on whichever workers are free.
    One-shard groups are the static schedule: the shard is the rank
    spec itself and runs under a ``rank`` span.  ``simulate``, and a
    static run of a single rank, run in the calling process and never
    touch the pool.

    With *tuning*, the schedule runs in waves: budgeted shards that
    yield a :class:`ShardRemainder` have their tail re-split
    (``tuning.resplit_factor`` pieces) and re-dispatched in the next
    wave; after :data:`~repro.runtime.autotune.MAX_RESPLIT_ROUNDS`
    waves budgets are dropped so the schedule always terminates.  Every
    piece is keyed by its split path (original shard 2's first tail
    piece is ``(2, 0)``), and the per-rank reduction sorts pieces by
    path — the same ordered reducer that keeps concatenated outputs
    byte-identical regardless of how many times a shard was re-split.
    """
    entries: list[tuple[int, tuple[int, ...], Any, bool]] = []
    for rank, group in enumerate(groups):
        # A one-piece group's shard IS the rank spec (same out_path), so
        # it must not yield a tail to merge into itself; budgets apply
        # only where shard files are distinct from the rank output.
        sharded = len(group) > 1
        for shard_idx, shard in enumerate(group):
            entries.append((rank, (shard_idx,),
                            _with_budget(shard, tuning) if sharded
                            else shard, sharded))
    inline = executor == "simulate" or len(entries) == 1
    parent_id = None
    if tracer.enabled:
        caller = tracer.current_span()
        parent_id = caller.span_id if caller is not None else None
    pieces: dict[tuple[int, tuple[int, ...]], tuple[Any, Any]] = {}
    rounds = 0
    while entries:
        budgets_live = tuning is not None and rounds < MAX_RESPLIT_ROUNDS
        results = _dispatch_shards(task_fn, entries, executor, inline,
                                   tracer, parent_id, tuning,
                                   budgets_live)
        next_entries: list[tuple[int, tuple[int, ...], Any, bool]] = []
        for (rank, path, spec, _), result in zip(entries, results):
            if not isinstance(result, ShardRemainder):
                pieces[(rank, path)] = (spec, result)
                continue
            pieces[(rank, path)] = (spec, result.metrics)
            factor = tuning.resplit_factor if tuning is not None else 2
            subs = result.tail_spec.split(factor)
            if tuning is not None:
                tuning.note_resplit(len(subs))
            for sub_idx, sub in enumerate(subs):
                next_entries.append((rank, path + (sub_idx,),
                                     _with_budget(sub, tuning)
                                     if budgets_live else sub, True))
        entries = next_entries
        rounds += 1
    out = []
    for rank, (spec, group) in enumerate(zip(specs, groups)):
        ordered = sorted((path, piece) for (r, path), piece
                         in pieces.items() if r == rank)
        shard_specs = [piece[0] for _, piece in ordered]
        shard_results = [piece[1] for _, piece in ordered]
        if len(shard_specs) == 1:
            out.append(shard_results[0])
        else:
            out.append(spec.merge_shards(shard_specs, shard_results))
    if tuning is not None:
        _feed_observations(tuning,
                           [piece[0] for piece in pieces.values()],
                           [piece[1] for piece in pieces.values()])
    return out


def _dispatch_shards(task_fn: Callable[[Any], Any],
                     entries: Sequence[tuple[int, tuple[int, ...], Any,
                                             bool]],
                     executor: str, inline: bool, tracer: Tracer,
                     parent_id: int | None,
                     tuning: JobTuning | None,
                     budgets_live: bool) -> list[Any]:
    """Dispatch one wave of shard entries; results in entry order.

    *inline* entries run one after another in this process.  There a
    cold cost model still gets straggler detection: completed
    siblings' durations price the budget of each not-yet-budgeted
    shard (k x median), which is the deterministic flavor the tests
    pin down.  Pool executors apply model budgets at submit time only
    — their shards run concurrently, so there is no well-defined
    "completed siblings" set to consult.
    """
    fn = _traced_task if tracer.enabled else task_fn
    # Process workers record into a child tracer (no parent span
    # there); their spans are gathered back under *parent_id*.
    shared = inline or executor != "process"

    def wrap(rank: int, path: tuple[int, ...], shard: Any,
             sharded: bool) -> Any:
        if not tracer.enabled:
            return shard
        return (task_fn, tracer if shared else None, tracer.epoch, rank,
                _shard_label(path) if sharded else None, shard,
                parent_id if shared else None)

    if inline:
        results = []
        durations: list[float] = []
        wave_start = time.perf_counter()
        for rank, path, shard, sharded in entries:
            if budgets_live and sharded \
                    and getattr(shard, "budget_seconds", None) is None \
                    and _supports_budget(shard):
                budget = tuning.sibling_budget(durations)
                if budget is not None:
                    shard = replace(shard, budget_seconds=budget)
            t0 = time.perf_counter()
            results.append(fn(wrap(rank, path, shard, sharded)))
            durations.append(time.perf_counter() - t0)
            if tuning is not None:
                tuning.note_completion(time.perf_counter() - wave_start)
    else:
        labels = [f"rank {rank} shard {_shard_label(path)}" if sharded
                  else f"rank {rank}" for rank, path, _, sharded in entries]
        costs = [_cost_hint(shard) for _, _, shard, _ in entries]
        progress = None
        if tuning is not None:
            progress = lambda i, result, elapsed: \
                tuning.note_completion(elapsed)  # noqa: E731
        results = get_shared_executor().map_tasks(
            fn, [wrap(*entry) for entry in entries], executor,
            labels=labels, costs=costs, progress=progress)
    if not tracer.enabled:
        return results
    out = []
    for (rank, _, _, _), (result, span_dicts) in zip(entries, results):
        if span_dicts is not None:
            tracer.ingest(span_dicts, rank=rank, parent_id=parent_id)
        out.append(result)
    return out


def _traced_task(payload: tuple) -> tuple[Any, list[dict] | None]:
    """Run one rank or shard task under its span; module-level so the
    process pool can pickle it.

    A one-shard group's span is ``rank``; a shard's is ``shard``, tagged
    with its rank and shard label.  In-process callers pass the shared
    *tracer* (its span stack is per-thread) and *parent_id*, which
    re-attaches the span to the launching span from a pool thread.  A
    process worker gets ``tracer=None``, records into a child tracer
    sharing the parent *epoch* and returns its spans for gathering.
    """
    task_fn, tracer, epoch, rank, shard, spec, parent_id = payload
    child = tracer is None
    if child:
        tracer = Tracer(enabled=True, epoch=epoch)
    if shard is None:
        name, args = "rank", {"task": task_fn.__name__}
    else:
        name, args = "shard", {"task": task_fn.__name__, "rank": rank,
                               "shard": shard}
    with tracer.activate(), tracer.rank_context(rank), \
            tracer.span(name, "rank", rank=rank, args=args,
                        parent_id=parent_id):
        result = task_fn(spec)
    return result, [s.to_dict() for s in tracer.spans()] if child \
        else None


def merge_shard_outputs(out_path: str, shard_specs: Sequence[Any],
                        shard_metrics: Sequence[RankMetrics],
                        ) -> RankMetrics:
    """Ordered reducer: concatenate shard part files into *out_path*.

    Shard files are appended in shard order (shard 0 carries the header)
    and removed afterwards, so the rank's output file is byte-identical
    to the one an unsharded rank task would have written.  Returns the
    rank-level metrics fold of *shard_metrics*.
    """
    with open(out_path, "wb") as dst:
        for shard in shard_specs:
            with open(shard.out_path, "rb") as src:
                shutil.copyfileobj(src, dst)
            os.remove(shard.out_path)
    return RankMetrics.merge_shards(list(shard_metrics))


def emit_records(records: Iterable[AlignmentRecord], target: TargetFormat,
                 writer: BufferedTextWriter, metrics: RankMetrics,
                 ) -> tuple[int, int]:
    """Drive parsed records through the user program into the writer.

    Returns ``(records_seen, objects_emitted)``.  No fine-grained timing
    happens here: rank tasks measure their total wall time and subtract
    the writer/reader-metered I/O to get compute seconds (see
    :func:`finish_rank_metrics`), which keeps the inner loop free of
    per-record timer calls.
    """
    if target.mode != "text":
        raise ConversionError(
            f"emit_records drives text targets; {target.name} is binary")
    seen = 0
    emitted = 0
    emit = target.emit
    write_line = writer.write_line
    for record in records:
        line = emit(record)
        seen += 1
        if line is not None:
            write_line(line)
            emitted += 1
    metrics.records += seen
    metrics.emitted += emitted
    return seen, emitted


def finish_rank_metrics(metrics: RankMetrics, t_start: float) -> RankMetrics:
    """Derive compute seconds as total wall time minus metered I/O."""
    wall = time.perf_counter() - t_start
    metrics.compute_seconds = max(0.0, wall - metrics.io_seconds)
    return metrics


@contextlib.contextmanager
def staged_outputs(renames: Sequence[tuple[str, str]]) -> Iterator[None]:
    """Commit ``(temporary, final)`` file pairs together.

    The body writes every temporary file; then each is renamed over its
    final path.  If the body or a rename fails, the temporary files —
    and, once renaming has begun, the final ones — are removed, so a
    failed run leaves none of the set behind.
    """
    renaming = False
    try:
        yield
        renaming = True
        for tmp, final in renames:
            os.replace(tmp, final)
    except BaseException:
        for tmp, final in renames:
            for path in (tmp, final) if renaming else (tmp,):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        raise


def make_output_path(out_dir: str, stem: str, rank: int,
                     target: TargetFormat) -> str:
    """Standard part-file naming: ``<stem>.part<rank><ext>``."""
    return f"{out_dir}/{stem}.part{rank:04d}{target.extension}"


def bind_target(target: TargetFormat, header: SamHeader) -> TargetFormat:
    """Give header-aware plugins (BAM) their reference dictionary."""
    binder = getattr(target, "bind_header", None)
    if binder is not None:
        binder(header)
    return target
