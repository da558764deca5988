"""Call-boundary tracing of the program's layers, from the outside.

:class:`LayerTrace` temporarily replaces public functions at the module
or class attribute their callers resolve, and records for each layer
the call count, inclusive seconds, self seconds (inclusive minus the
wrapped calls made inside it) and an optional work quantity such as
bytes inflated or records encoded.  Wrappers live only inside
``with trace.installed():`` and are removed on exit, so untraced runs
execute the program exactly as shipped.

A wrapped attribute that no longer exists is skipped, and a layer that
is never called reports zero counts, so a later change that stops
calling a function reads as "count 0" rather than an error.

Only calls made in this process are seen.  Work done in pooled worker
processes is read from the ``RankMetrics`` the converters return.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time

_perf = time.perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self_s", "work", "results")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.work = 0.0
        self.results: list = []


def _len_result(_args, _kwargs, result) -> float:
    return len(result)


def _len_first_arg(args, _kwargs, _result) -> float:
    # args[0] is the writer instance for methods.
    return len(args[1])


def _one(_args, _kwargs, _result) -> float:
    return 1.0


#: (layer, module, owner attribute or None, function attribute, work
#: quantity, keep return values).  Every place a caller resolves the
#: function is listed, because ``from x import f`` binds a second name.
TARGETS = [
    ("bgzf.inflate", "repro.formats.bgzf", None, "decompress_block",
     _len_result, False),
    ("bam.decode", "repro.formats.bam", None, "decode_record", _one,
     False),
    ("tags.codec", "repro.formats.bam", None, "decode_tags", None, False),
    ("tags.codec", "repro.formats.bam", None, "encode_tags", None, False),
    ("tags.codec", "repro.formats.bamx", None, "decode_tags", None, False),
    ("tags.codec", "repro.formats.bamx", None, "encode_tags", None, False),
    ("tags.codec", "repro.formats.bamc", None, "decode_tags", None, False),
    ("tags.codec", "repro.formats.bamc", None, "encode_tags", None, False),
    ("tags.codec", "repro.core.bam_converter", None, "encode_tags", None,
     False),
    ("store.encode", "repro.formats.bamx", "BamxWriter", "write_batch",
     _len_first_arg, False),
    ("store.encode", "repro.formats.bamx", "BamxWriter", "write", _one,
     False),
    ("store.encode", "repro.formats.bamx", "BamxWriter", "close", None,
     False),
    ("store.encode", "repro.formats.bamc", "BamcWriter", "write_batch",
     _len_first_arg, False),
    ("store.encode", "repro.formats.bamc", "BamcWriter", "write", _one,
     False),
    ("store.encode", "repro.formats.bamc", "BamcWriter", "close", None,
     False),
    ("index.build", "repro.formats.baix", "BaixIndex", "build", None,
     False),
    ("index.build", "repro.formats.baix", "BaixIndex", "save", _one,
     False),
    ("index.build", "repro.formats.baix2", "BaixOverlapIndex", "build",
     None, False),
    ("index.build", "repro.formats.baix2", "BaixOverlapIndex", "save",
     _one, False),
    ("preprocess", "repro.core.bam_converter", None, "preprocess_bam",
     None, False),
    ("convert", "repro.core.bam_converter", "BamConverter", "convert",
     None, True),
    ("shard.merge", "repro.core.base", None, "merge_shard_outputs", None,
     False),
    ("shard.merge", "repro.core.bam_converter", None,
     "merge_shard_outputs", None, False),
    ("shard.merge", "repro.core.sam_converter", None,
     "merge_shard_outputs", None, False),
    ("partition", "repro.core.sam_converter", None, "scan_header", None,
     False),
    ("partition", "repro.core.sam_converter", None,
     "partition_alignments", None, False),
    ("partition", "repro.core.samp_converter", None, "scan_header", None,
     False),
    ("partition", "repro.core.samp_converter", None,
     "partition_alignments", None, False),
    ("sam.convert", "repro.core.sam_converter", "SamConverter", "convert",
     None, True),
    ("samp.preprocess", "repro.core.samp_converter",
     "PreprocSamConverter", "preprocess", None, True),
    ("samp.convert", "repro.core.samp_converter", "PreprocSamConverter",
     "convert", None, False),
]


class LayerTrace:
    """Per-layer call statistics gathered while wrappers are installed."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict[str, _Stat]] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------

    def _state(self):
        local = self._local
        stats = getattr(local, "stats", None)
        if stats is None:
            stats = local.stats = {}
            local.children = []
            with self._lock:
                self._thread_stats.append(stats)
        return stats, local.children

    def _wrap(self, fn, layer: str, work, keep: bool):
        state = self._state

        def wrapper(*args, **kwargs):
            stats, children = state()
            children.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _perf() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat = stats.get(layer)
                if stat is None:
                    stat = stats[layer] = _Stat()
                stat.calls += 1
                stat.total += elapsed
                stat.self_s += elapsed - inner
            if work is not None:
                stat.work += work(args, kwargs, result)
            if keep:
                stat.results.append(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove ------------------------------------------

    def _install(self) -> None:
        for layer, module_name, owner_name, attr, work, keep in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            raw = None if owner is None else owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    self._wrap(raw.__func__, layer, work, keep))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(
                    self._wrap(raw.__func__, layer, work, keep))
            else:
                replacement = self._wrap(raw, layer, work, keep)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def _remove(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        self._install()
        try:
            yield self
        finally:
            self._remove()

    # -- reading ---------------------------------------------------

    def layer(self, name: str) -> _Stat:
        """Merged statistics of *name* over all threads (zeros when the
        layer was never called)."""
        merged = _Stat()
        with self._lock:
            tables = list(self._thread_stats)
        for table in tables:
            stat = table.get(name)
            if stat is None:
                continue
            merged.calls += stat.calls
            merged.total += stat.total
            merged.self_s += stat.self_s
            merged.work += stat.work
            merged.results.extend(stat.results)
        return merged
