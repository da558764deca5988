"""BAIX ("BAI eXtended"): the paper's index over a record store.

A BAIX file stores every alignment's *starting position*, its *end
position* and its *record index* in the associated store, sorted by
genomic coordinate (Fig. 4 of the paper: positions ascending, indices
in whatever order the records landed in the store).  It answers two
queries:

* **start** (the paper's partial conversion, §III-B): records whose
  start lies inside a region.  Both region boundaries are binary-searched
  over the sorted starts, giving a contiguous entry subrange that is then
  split evenly across processors.
* **overlap** (the paper's future-work "more partial conversion types"):
  records whose alignment span overlaps a region.  A record overlapping
  ``[qstart, qend)`` must start in ``[qstart - max_span, qend)``, where
  ``max_span`` is the reference's longest alignment; binary search gives
  that candidate subrange and a vectorized filter on the stored ends
  keeps the actual overlappers.  ``max_span`` is computed per reference
  on the first overlap query, so start queries never pay for it.

On-disk layout (magic ``BAIX\\x02``)::

    u64 entry_count
    i32[n] ref ids   i32[n] starts   i32[n] ends   i64[n] record indices

Version 1 files (magic ``BAIX\\x01``: the same columns without the ends)
are still read; they answer start queries only, and an overlap query on
one raises :class:`~repro.errors.IndexError_`.

Unplaced records (no reference / no position) are excluded from the
index, mirroring BAI behaviour.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..errors import IndexError_
from .bamx import BamxReader
from .header import SamHeader
from .record import AlignmentRecord

if TYPE_CHECKING:
    from .bamc import ColumnSlab

MAGIC = b"BAIX\x02"
MAGIC_V1 = b"BAIX\x01"

#: Column dtypes on disk, per magic.
_COLUMNS = {MAGIC: ("<i4", "<i4", "<i4", "<i8"),
            MAGIC_V1: ("<i4", "<i4", "<i8")}


class BaixIndex:
    """Sorted (ref, start, end) -> record index mapping answering start
    and overlap queries.  *ends* is ``None`` for a v1 index, which
    answers start queries only; *source* names the file it came from."""

    def __init__(self, ref_ids: np.ndarray, positions: np.ndarray,
                 indices: np.ndarray, ends: np.ndarray | None = None,
                 source: str | None = None) -> None:
        if not (len(ref_ids) == len(positions) == len(indices)) \
                or (ends is not None and len(ends) != len(indices)):
            raise IndexError_("BAIX column lengths disagree")
        self.ref_ids = np.ascontiguousarray(ref_ids, dtype=np.int32)
        self.positions = np.ascontiguousarray(positions, dtype=np.int32)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.ends = None if ends is None \
            else np.ascontiguousarray(ends, dtype=np.int32)
        self.source = source
        # Composite sort key: ref id in the high bits, position low.
        self._keys = (self.ref_ids.astype(np.int64) << 32) \
            | self.positions.astype(np.int64)
        if len(self._keys) > 1 and np.any(np.diff(self._keys) < 0):
            raise IndexError_("BAIX entries are not coordinate-sorted")
        if self.ends is not None and np.any(self.ends < self.positions):
            raise IndexError_("BAIX entry with end < start")
        self._max_spans: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.indices)

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, records: Iterable[tuple[int, AlignmentRecord]],
              header: SamHeader) -> "BaixIndex":
        """Build from ``(record_index, record)`` pairs in any order."""
        ref_ids = []
        starts = []
        ends = []
        indices = []
        for index, record in records:
            if record.rname == "*" or record.pos < 0:
                continue
            ref_ids.append(header.ref_id(record.rname))
            starts.append(record.pos)
            ends.append(record.end)
            indices.append(index)
        return cls.from_columns(np.asarray(ref_ids, dtype=np.int32),
                                np.asarray(starts, dtype=np.int32),
                                np.asarray(ends, dtype=np.int32),
                                np.asarray(indices, dtype=np.int64))

    @classmethod
    def from_columns(cls, ref_ids: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray, indices: np.ndarray) -> "BaixIndex":
        """Build from the placed records' columns, in any order: one
        lexsort by (ref id, start, record index)."""
        order = np.lexsort((indices, starts, ref_ids))
        return cls(ref_ids[order], starts[order], indices[order],
                   ends[order])

    @classmethod
    def from_slabs(cls, slabs: Iterable[ColumnSlab]) -> "BaixIndex":
        """Index the placed records (a reference and a position) of
        ColumnSlabs whose ``start`` is their first record's index."""
        columns = []
        for slab in slabs:
            placed = (slab.ref_id >= 0) & (slab.pos >= 0)
            columns.append((slab.ref_id[placed], slab.pos[placed],
                            slab.end_pos[placed],
                            slab.start + np.flatnonzero(placed)))
        if not columns:
            return cls.from_columns(*(np.empty(0, np.int32),) * 3,
                                    np.empty(0, np.int64))
        return cls.from_columns(*(np.concatenate(parts)
                                  for parts in zip(*columns)))

    @classmethod
    def from_bamx(cls, reader: BamxReader) -> "BaixIndex":
        """Index every placed record of an open BAMX reader."""
        return cls.build(enumerate(reader), reader.header)

    # -- (de)serialization -------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the columnar on-disk layout."""
        if self.ends is None:
            raise IndexError_("a v1 BAIX index has no ends to save")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<Q", len(self.indices)))
            fh.write(self.ref_ids.astype("<i4").tobytes())
            fh.write(self.positions.astype("<i4").tobytes())
            fh.write(self.ends.astype("<i4").tobytes())
            fh.write(self.indices.astype("<i8").tobytes())

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "BaixIndex":
        """Parse an on-disk BAIX file, current or v1."""
        path = os.fspath(path)
        with open(path, "rb") as fh:
            data = fh.read()
        dtypes = _COLUMNS.get(data[:len(MAGIC)])
        if dtypes is None:
            raise IndexError_(f"bad BAIX magic in {path}")
        offset = len(MAGIC) + 8
        if len(data) < offset:
            raise IndexError_(f"truncated BAIX file {path}")
        (count,) = struct.unpack_from("<Q", data, len(MAGIC))
        columns = []
        for dtype in dtypes:
            width = np.dtype(dtype).itemsize * count
            if offset + width > len(data):
                raise IndexError_(f"truncated BAIX file {path}")
            columns.append(np.frombuffer(data, dtype, count, offset))
            offset += width
        ref_ids, positions, *ends, indices = columns
        return cls(ref_ids, positions, indices,
                   ends[0] if ends else None, source=path)

    # -- queries -----------------------------------------------------------

    def locate(self, ref_id: int, start: int, end: int) -> tuple[int, int]:
        """Return the BAIX entry subrange ``[lo, hi)`` whose records
        *start* within ``[start, end)`` on reference *ref_id*.

        This is the binary search of §III-B: both region boundaries are
        located over the sorted starting positions.
        """
        if start < 0 or end < start:
            raise IndexError_(f"invalid region [{start}, {end})")
        lo_key = (ref_id << 32) | start
        hi_key = (ref_id << 32) | end
        lo = int(np.searchsorted(self._keys, lo_key, side="left"))
        hi = int(np.searchsorted(self._keys, hi_key, side="left"))
        return lo, hi

    def record_indices(self, lo: int, hi: int) -> np.ndarray:
        """Record indices for BAIX entries ``[lo, hi)``."""
        if not 0 <= lo <= hi <= len(self.indices):
            raise IndexError_(
                f"BAIX subrange [{lo}, {hi}) outside [0, {len(self.indices)})")
        return self.indices[lo:hi]

    def ref_span(self, ref_id: int) -> tuple[int, int]:
        """Entry subrange covering all of reference *ref_id*."""
        return self.locate(ref_id, 0, 1 << 31)

    def locate_overlaps(self, ref_id: int, start: int, end: int,
                        ) -> np.ndarray:
        """Record indices whose alignment span overlaps ``[start, end)``.

        May be non-contiguous in the index; returned in coordinate
        order.
        """
        if start < 0 or end < start:
            raise IndexError_(f"invalid region [{start}, {end})")
        if self.ends is None:
            raise IndexError_(
                f"{self.source or 'this BAIX index'} is a v1 index without "
                f"end positions; overlap queries need an index written by "
                f"current preprocessing")
        span = self._max_span(int(ref_id))
        lo, hi = self.locate(ref_id, max(0, start - span), end)
        return self.indices[lo:hi][self.ends[lo:hi] > start]

    def select(self, ref_id: int, start: int, end: int,
               mode: str = "start") -> np.ndarray:
        """Record indices of the records *starting* in ``[start, end)``
        (``mode="start"``) or overlapping it (``mode="overlap"``)."""
        if mode == "start":
            return self.record_indices(*self.locate(ref_id, start, end))
        if mode == "overlap":
            return self.locate_overlaps(ref_id, start, end)
        raise IndexError_(f"unknown BAIX query mode {mode!r}")

    def _max_span(self, ref_id: int) -> int:
        """Longest alignment on *ref_id*: the overlap candidate window."""
        span = self._max_spans.get(ref_id)
        if span is None:
            lo, hi = self.ref_span(ref_id)
            span = int((self.ends[lo:hi] - self.positions[lo:hi])
                       .max(initial=0))
            self._max_spans[ref_id] = span
        return span


def default_index_path(store_path: str | os.PathLike[str]) -> str:
    """The conventional sibling index path, ``<store>.baix``."""
    return os.fspath(store_path) + ".baix"
