"""BAMX ("BAM eXtended"): the paper's fixed-record-length binary format.

The whole point of BAMX (§III-B of the paper) is that every record
occupies exactly ``layout.record_size`` bytes: variable-length fields
(read name, CIGAR, sequence, qualities, tags) are padded to per-file
capacities recorded in the header.  Record *i* therefore lives at
``data_offset + i * record_size``, giving O(1) random access — which is
what makes equal-record partitioning and partial conversion possible in
the parallel phase.

File layout::

    magic "BAMX\\x01"
    u32  header_length          (bytes of everything before record data)
    u32  name_cap  u32 cigar_cap  u32 seq_cap  u32 tag_cap
    u64  record_count
    u32  sam_header_text_length
    ...  SAM header text (ASCII, carries the reference dictionary)
    ...  records, each exactly record_size bytes

Records are *uncompressed* — the paper defers compression to future
work — so the padding trades disk space for layout regularity.

Because every record has the same size, a slab of raw records is a
numpy array of rows: :func:`row_columns` turns one into the
:class:`~repro.formats.bamc.ColumnSlab` the vectorized kernels
(:mod:`repro.formats.kernels`) read, so BAMX and BAMZ share BAMC's
batched read path.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..errors import BamxFormatError, CapacityError
from .bam import MAGIC as _BAM_MAGIC  # noqa: F401  (kept for format docs)
from .cigar import REF_CONSUMING, decode_ops, encode_ops
from .header import SamHeader
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_bytes_to_text, qual_text_to_bytes, \
    unpack_sequence
from .tags import decode_tags, encode_tags

if TYPE_CHECKING:
    from .bamc import ColumnSlab

MAGIC = b"BAMX\x01"

_FIXED = struct.Struct("<iiBBHHiiiiH")
_FIXED_FIELDS = ("ref_id", "pos", "mapq", "name_len", "flag", "n_cigar",
                 "l_seq", "next_ref", "next_pos", "tlen", "tag_len")
#: The fixed fields as a packed numpy record, for strided column views.
_FIXED_DTYPE = np.dtype([(name, "<" + code) for name, code
                         in zip(_FIXED_FIELDS, _FIXED.format[1:])])

#: Whether each BAM CIGAR op code consumes the reference; the invalid
#: codes 9..15 count as non-consuming.
REF_CONSUMING_CODE = np.array(
    [op in REF_CONSUMING for op in "MIDNSHP=X"] + [False] * 7)


@dataclass(frozen=True, slots=True)
class BamxLayout:
    """Per-file field capacities defining the fixed record size.

    Attributes
    ----------
    name_cap:
        Maximum read-name length in bytes (without NUL).
    cigar_cap:
        Maximum number of CIGAR operations.
    seq_cap:
        Maximum sequence length in bases.
    tag_cap:
        Maximum encoded tag-block length in bytes.
    """

    name_cap: int
    cigar_cap: int
    seq_cap: int
    tag_cap: int
    #: Size in bytes of every record under this layout (derived).
    record_size: int = field(init=False, compare=False, default=0)

    def __post_init__(self) -> None:
        for label, value in (("name_cap", self.name_cap),
                             ("cigar_cap", self.cigar_cap),
                             ("seq_cap", self.seq_cap),
                             ("tag_cap", self.tag_cap)):
            if value < 0:
                raise BamxFormatError(f"negative {label}: {value}")
        if self.name_cap > 254:
            raise BamxFormatError("name_cap exceeds SAM's 254-byte limit")
        object.__setattr__(
            self, "record_size",
            _FIXED.size + self.name_cap + 4 * self.cigar_cap
            + (self.seq_cap + 1) // 2 + self.seq_cap + self.tag_cap)

    def slab_records(self, batch_size: int = 0) -> int:
        """Records per raw slab: *batch_size*, or ~4 MiB of rows if 0."""
        if batch_size > 0:
            return batch_size
        return max(1, (4 << 20) // max(self.record_size, 1))

    @classmethod
    def of_columns(cls, slabs: Iterable[ColumnSlab]) -> "BamxLayout":
        """The tightest layout fitting every record of *slabs*: the
        maxima of their field lengths."""
        name_cap = cigar_cap = seq_cap = tag_cap = 0
        for slab in slabs:
            name, cigar, seq, tags = field_lengths(slab)
            name_cap = max(name_cap, int(name.max(initial=0)))
            cigar_cap = max(cigar_cap, int(cigar.max(initial=0)))
            seq_cap = max(seq_cap, int(seq.max(initial=0)))
            tag_cap = max(tag_cap, int(tags.max(initial=0)))
        return cls(name_cap, cigar_cap, seq_cap, tag_cap)

    def check_columns(self, slab: ColumnSlab) -> None:
        """Raise :class:`CapacityError` if a record of *slab* does not
        fit, as :meth:`encode_into` does for a record."""
        for label, lengths, cap in zip(
                ("read name bytes", "CIGAR ops", "sequence bases",
                 "tag block bytes"), field_lengths(slab),
                (self.name_cap, self.cigar_cap, self.seq_cap,
                 self.tag_cap)):
            over = lengths > cap
            if over.any():
                raise CapacityError(
                    f"{int(lengths[over][0])} {label} exceed layout "
                    f"capacity {cap}")

    def merge(self, other: "BamxLayout") -> "BamxLayout":
        """Smallest layout accommodating records of both layouts."""
        return BamxLayout(max(self.name_cap, other.name_cap),
                          max(self.cigar_cap, other.cigar_cap),
                          max(self.seq_cap, other.seq_cap),
                          max(self.tag_cap, other.tag_cap))

    # -- record codec ----------------------------------------------------

    def encode(self, record: AlignmentRecord, header: SamHeader) -> bytes:
        """Encode one record to exactly :attr:`record_size` bytes."""
        out = bytearray(self.record_size)
        self.encode_into(record, header, out, 0)
        return bytes(out)

    def encode_into(self, record: AlignmentRecord, header: SamHeader,
                    out: bytearray, offset: int) -> None:
        """Encode one record into *out* at *offset*.

        The destination region must be zero-initialized (padding bytes
        are not written) and at least :attr:`record_size` bytes long —
        the batch encoders preallocate one zeroed buffer for a whole
        batch and pack records side by side.
        """
        name = record.qname.encode("ascii")
        if len(name) > self.name_cap:
            raise CapacityError(
                f"read name of {len(name)} bytes exceeds layout "
                f"capacity {self.name_cap}")
        cigar_words = encode_ops(record.cigar)
        if len(cigar_words) > self.cigar_cap:
            raise CapacityError(
                f"{len(cigar_words)} CIGAR ops exceed layout capacity "
                f"{self.cigar_cap}")
        l_seq = 0 if record.seq == "*" else len(record.seq)
        if l_seq > self.seq_cap:
            raise CapacityError(
                f"sequence of {l_seq} bases exceeds layout capacity "
                f"{self.seq_cap}")
        tag_block = encode_tags(record.tags)
        if len(tag_block) > self.tag_cap:
            raise CapacityError(
                f"tag block of {len(tag_block)} bytes exceeds layout "
                f"capacity {self.tag_cap}")
        ref_id = -1 if record.rname == "*" else header.ref_id(record.rname)
        if record.rnext == "*":
            next_ref = -1
        elif record.rnext == "=":
            next_ref = ref_id
        else:
            next_ref = header.ref_id(record.rnext)
        _FIXED.pack_into(
            out, offset,
            ref_id, record.pos, record.mapq, len(name), record.flag,
            len(cigar_words), l_seq, next_ref, record.pnext, record.tlen,
            len(tag_block))
        off = offset + _FIXED.size
        out[off:off + len(name)] = name
        off += self.name_cap
        struct.pack_into(f"<{len(cigar_words)}I", out, off, *cigar_words)
        off += 4 * self.cigar_cap
        seq_bytes = (self.seq_cap + 1) // 2
        if l_seq:
            packed = pack_sequence(record.seq)
            out[off:off + len(packed)] = packed
        off += seq_bytes
        if l_seq:
            if record.qual == "*":
                out[off:off + l_seq] = b"\xff" * l_seq
            else:
                if len(record.qual) != l_seq:
                    raise BamxFormatError(
                        f"QUAL length {len(record.qual)} != SEQ length "
                        f"{l_seq}")
                out[off:off + l_seq] = qual_text_to_bytes(record.qual)
        off += self.seq_cap
        out[off:off + len(tag_block)] = tag_block

    def decode(self, data: bytes | memoryview, header: SamHeader,
               offset: int = 0) -> AlignmentRecord:
        """Decode one record from *data* starting at *offset*.

        *data* may be any bytes-like object; the batched readers pass a
        :class:`memoryview` over a whole slab so field slices here are
        the only copies made.
        """
        if len(data) - offset < self.record_size:
            raise BamxFormatError("truncated BAMX record")
        (ref_id, pos, mapq, name_len, flag, n_cigar, l_seq,
         next_ref, next_pos, tlen, tag_len) = _FIXED.unpack_from(data, offset)
        off = offset + _FIXED.size
        name = str(data[off:off + name_len], "ascii")
        off += self.name_cap
        cigar_words = struct.unpack_from(f"<{n_cigar}I", data, off)
        off += 4 * self.cigar_cap
        seq = unpack_sequence(data[off:off + (l_seq + 1) // 2], l_seq) \
            if l_seq else "*"
        off += (self.seq_cap + 1) // 2
        qual_raw = bytes(data[off:off + l_seq])
        off += self.seq_cap
        if l_seq == 0 or not qual_raw.strip(b"\xff"):
            qual = "*"
        else:
            qual = qual_bytes_to_text(qual_raw)
        tags = decode_tags(bytes(data[off:off + tag_len]))
        rname = "*" if ref_id < 0 else header.ref_name(ref_id)
        if next_ref < 0:
            rnext = "*"
        elif next_ref == ref_id:
            rnext = "="
        else:
            rnext = header.ref_name(next_ref)
        return AlignmentRecord(
            qname=name, flag=flag, rname=rname,
            pos=pos if pos >= 0 else UNMAPPED_POS,
            mapq=mapq, cigar=decode_ops(list(cigar_words)),
            rnext=rnext,
            pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
            tlen=tlen, seq=seq, qual=qual, tags=tags)


def row_columns(buf, count: int, layout: BamxLayout,
                start: int) -> ColumnSlab:
    """View *count* raw records of *layout* as a ColumnSlab.

    Fixed fields are strided views into *buf*.  ``end_pos`` is
    ``record.end`` computed from the padded CIGAR words (``-1`` when
    unplaced, a zero span counts as 1).  Name, CIGAR, sequence, quality
    and tag bytes are compacted into blobs with ``lo``/``hi`` offsets
    in record order, the form the column kernels decode.  *start* is
    the global index of the first record, or ``-1`` for picked rows.
    """
    from .bamc import ColumnSlab
    rsize = layout.record_size
    rows = np.frombuffer(buf, np.uint8, count * rsize).reshape(count, rsize)
    fixed = rows[:, :_FIXED.size].view(_FIXED_DTYPE)[:, 0]
    name_len, n_cigar = fixed["name_len"], fixed["n_cigar"]
    l_seq, tag_len = fixed["l_seq"], fixed["tag_len"]
    if (name_len > layout.name_cap).any() \
            or (n_cigar > layout.cigar_cap).any() \
            or (l_seq < 0).any() or (l_seq > layout.seq_cap).any() \
            or (tag_len > layout.tag_cap).any():
        raise BamxFormatError(
            "corrupt BAMX record: field length exceeds layout capacity")
    sections = []
    off = _FIXED.size
    for cap, nbytes in (
            (layout.name_cap, name_len),
            (4 * layout.cigar_cap, 4 * n_cigar.astype(np.int64)),
            ((layout.seq_cap + 1) // 2, (l_seq + 1) // 2),
            (layout.seq_cap, l_seq),
            (layout.tag_cap, tag_len)):
        region = rows[:, off:off + cap]
        blob = region[np.arange(cap) < nbytes[:, None]].tobytes()
        hi = np.cumsum(nbytes, dtype=np.int64)
        sections.append((hi - nbytes, hi, blob))
        off += cap
    cigar_off = _FIXED.size + layout.name_cap
    words = rows[:, cigar_off:cigar_off + 4 * layout.cigar_cap].view("<u4")
    used = np.arange(layout.cigar_cap) < n_cigar[:, None]
    span = np.where(used & REF_CONSUMING_CODE[words & 0xF], words >> 4,
                    0).sum(axis=1, dtype=np.int64)
    pos = fixed["pos"]
    end_pos = np.where(pos < 0, -1, pos + np.maximum(span, 1))
    (name_lo, name_hi, name_blob), (cigar_lo, cigar_hi, cigar_blob), \
        (seq_lo, seq_hi, seq_blob), (qual_lo, qual_hi, qual_blob), \
        (tag_lo, tag_hi, tag_blob) = sections
    return ColumnSlab(
        start, count, fixed["ref_id"], pos, end_pos, fixed["next_ref"],
        fixed["next_pos"], fixed["tlen"], l_seq, fixed["flag"],
        fixed["mapq"], name_lo, name_hi, cigar_lo, cigar_hi, seq_lo,
        seq_hi, qual_lo, qual_hi, tag_lo, tag_hi, name_blob, cigar_blob,
        seq_blob, qual_blob, tag_blob)


def field_lengths(slab: ColumnSlab) -> tuple[np.ndarray, ...]:
    """Per-record read-name bytes, CIGAR ops, sequence bases and tag
    bytes of *slab*: the quantities a layout caps."""
    return (slab.name_hi - slab.name_lo,
            (slab.cigar_hi - slab.cigar_lo) // 4, slab.l_seq,
            slab.tag_hi - slab.tag_lo)


def column_rows(slab: ColumnSlab, layout: BamxLayout) -> np.ndarray:
    """Scatter *slab* into ``(count, record_size)`` BAMX rows.

    The inverse of :func:`row_columns`, byte for byte what
    :meth:`BamxLayout.encode_into` writes for the same records.
    """
    from .bamc import packed_field
    layout.check_columns(slab)
    rows = np.zeros((slab.count, layout.record_size), dtype=np.uint8)
    fixed = rows[:, :_FIXED.size].view(_FIXED_DTYPE)[:, 0]
    name_len, n_cigar, l_seq, tag_len = field_lengths(slab)
    if (tag_len > 0xFFFF).any() or (n_cigar > 0xFFFF).any():
        # The record path's struct.pack of the u16 fields fails here.
        raise struct.error("tag block or CIGAR longer than 65535 units")
    for name, column in (
            ("ref_id", slab.ref_id), ("pos", slab.pos),
            ("mapq", slab.mapq), ("name_len", name_len),
            ("flag", slab.flag), ("n_cigar", n_cigar),
            ("l_seq", l_seq), ("next_ref", slab.next_ref),
            ("next_pos", slab.next_pos), ("tlen", slab.tlen),
            ("tag_len", tag_len)):
        fixed[name] = column
    off = _FIXED.size
    for cap, lo, hi, blob in (
            (layout.name_cap, slab.name_lo, slab.name_hi, slab.name_blob),
            (4 * layout.cigar_cap, slab.cigar_lo, slab.cigar_hi,
             slab.cigar_blob),
            ((layout.seq_cap + 1) // 2, slab.seq_lo, slab.seq_hi,
             slab.seq_blob),
            (layout.seq_cap, slab.qual_lo, slab.qual_hi, slab.qual_blob),
            (layout.tag_cap, slab.tag_lo, slab.tag_hi, slab.tag_blob)):
        used = np.arange(cap) < (hi - lo)[:, None]
        rows[:, off:off + cap][used] = packed_field(lo, hi, blob)
        off += cap
    return rows


class RowColumnReader:
    """Columnar reads shared by the row stores (BAMX and BAMZ).

    Subclasses provide ``layout``, ``source_name``, ``len()`` and
    ``read_raw_batches``; every slab is converted by
    :func:`row_columns`, so the row stores expose the same
    ``read_column_batches`` / ``read_column_picks`` surface as
    :class:`~repro.formats.bamc.BamcReader`.
    """

    layout: BamxLayout
    source_name: str

    def read_column_batches(self, start: int, stop: int,
                            batch_size: int = 0) -> Iterator[ColumnSlab]:
        """Yield ColumnSlabs covering ``[start, stop)``.

        ``batch_size`` is records per slab; 0 picks ~4 MiB of rows.
        """
        for buf, count in self.read_raw_batches(start, stop, batch_size):
            yield row_columns(buf, count, self.layout, start)
            start += count

    def read_column_picks(self, indices: Sequence[int],
                          batch_size: int = 0) -> Iterator[ColumnSlab]:
        """Yield ColumnSlabs of the records at *indices*, in that order.

        Runs of consecutive indices are read with one seek each, and
        rows are gathered in caller order, so every slab's blobs are
        laid out in its own record order.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if not idx.size:
            return
        bad = (idx < 0) | (idx >= len(self))
        if bad.any():
            raise BamxFormatError(
                f"record index {int(idx[bad][0])} outside "
                f"[0, {len(self)})", source=self.source_name)
        breaks = np.flatnonzero(np.diff(idx) != 1) + 1
        run_starts = idx[np.r_[0, breaks]].tolist()
        run_stops = (idx[np.r_[breaks - 1, idx.size - 1]] + 1).tolist()
        per_slab = self.layout.slab_records(batch_size)
        parts: list = []
        n = 0
        for a, b in zip(run_starts, run_stops):
            for buf, count in self.read_raw_batches(a, b, per_slab):
                parts.append(buf)
                n += count
                if n >= per_slab:
                    yield self._picked_slab(parts, n)
                    parts, n = [], 0
        if n:
            yield self._picked_slab(parts, n)

    def _picked_slab(self, parts: list, count: int) -> ColumnSlab:
        buf = parts[0] if len(parts) == 1 else b"".join(parts)
        return row_columns(buf, count, self.layout, -1)


def plan_layout(records: Iterable[AlignmentRecord]) -> BamxLayout:
    """Scan records and compute the tightest layout that fits them all.

    This is the record path's layout planning (the SAM preprocessing
    and the reference writers); BAM preprocessing takes the same
    capacities from its column maxima with
    :meth:`BamxLayout.of_columns`.
    """
    name_cap = cigar_cap = seq_cap = tag_cap = 0
    for record in records:
        name_cap = max(name_cap, len(record.qname))
        cigar_cap = max(cigar_cap, len(record.cigar))
        if record.seq != "*":
            seq_cap = max(seq_cap, len(record.seq))
        tag_cap = max(tag_cap, len(encode_tags(record.tags)))
    return BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)


class BamxWriter:
    """Write a BAMX file with a pre-planned :class:`BamxLayout`."""

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 layout: BamxLayout) -> None:
        self._fh: io.BufferedWriter = open(target, "wb")  # noqa: SIM115
        self.header = header
        self.layout = layout
        self.records_written = 0
        text = header.to_text().encode("ascii")
        head = MAGIC + struct.pack(
            "<IIIIIQI",
            0,  # header_length placeholder, fixed up on close
            layout.name_cap, layout.cigar_cap, layout.seq_cap,
            layout.tag_cap, 0, len(text))
        self._header_struct_size = len(head)
        self._fh.write(head)
        self._fh.write(text)
        self._data_offset = self._fh.tell()

    def __enter__(self) -> "BamxWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return its 0-based record index."""
        self._fh.write(self.layout.encode(record, self.header))
        index = self.records_written
        self.records_written += 1
        return index

    def write_batch(self, records: list[AlignmentRecord]) -> int:
        """Append a batch in one preallocated encode + one write.

        Returns the record index of the first record written; record
        ``records[i]`` gets index ``return_value + i``.
        """
        if not records:
            return self.records_written
        rsize = self.layout.record_size
        out = bytearray(len(records) * rsize)
        off = 0
        for record in records:
            self.layout.encode_into(record, self.header, out, off)
            off += rsize
        self._fh.write(out)
        first = self.records_written
        self.records_written += len(records)
        return first

    def write_columns(self, slab: ColumnSlab) -> int:
        """Append *slab*'s records as rows; return the first one's
        index."""
        self._fh.write(column_rows(slab, self.layout))
        first = self.records_written
        self.records_written += slab.count
        return first

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> None:
        """Fix up header_length / record_count and close the file."""
        if self._fh.closed:
            return
        self._fh.seek(len(MAGIC))
        self._fh.write(struct.pack("<I", self._data_offset))
        self._fh.seek(len(MAGIC) + 4 + 16)
        self._fh.write(struct.pack("<Q", self.records_written))
        self._fh.close()


class BamxReader(RowColumnReader):
    """Random-access BAMX reader: ``len()``, ``[i]``, slices, iteration,
    and the columnar reads of :class:`RowColumnReader`."""

    def __init__(self, source: str | os.PathLike[str]) -> None:
        self.source_name = os.fspath(source)
        self._fh: io.BufferedReader = open(source, "rb")  # noqa: SIM115
        magic = self._fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BamxFormatError("bad BAMX magic", source=self.source_name)
        (self._data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
         self._count, text_len) = struct.unpack(
            "<IIIIIQI", self._fh.read(struct.calcsize("<IIIIIQI")))
        self.layout = BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)
        text = self._fh.read(text_len).decode("ascii")
        self.header = SamHeader.from_text(text)
        size = os.fstat(self._fh.fileno()).st_size
        expected = self._data_offset + self._count * self.layout.record_size
        if size < expected:
            raise BamxFormatError(
                f"file is {size} bytes but layout implies {expected}",
                source=self.source_name)

    def __enter__(self) -> "BamxReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> AlignmentRecord:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"record index {index} out of range "
                             f"[0, {self._count})")
        self._fh.seek(self._data_offset
                      + index * self.layout.record_size)
        data = self._fh.read(self.layout.record_size)
        return self.layout.decode(data, self.header)

    def read_raw_batches(self, start: int, stop: int,
                         batch_size: int = 0,
                         ) -> Iterator[tuple[memoryview, int]]:
        """Yield ``(slab, count)`` raw-record slabs for ``[start, stop)``.

        Each slab is a read-only :class:`memoryview` over ``count``
        consecutive records, so callers can slice fields without
        copying.  ``batch_size`` is records per slab; 0 picks a slab of
        roughly 4 MiB (the historical read_range behaviour).
        """
        if not 0 <= start <= stop <= self._count:
            raise BamxFormatError(
                f"record range [{start}, {stop}) outside [0, {self._count})")
        rsize = self.layout.record_size
        per_slab = self.layout.slab_records(batch_size)
        self._fh.seek(self._data_offset + start * rsize)
        remaining = stop - start
        while remaining > 0:
            n = min(per_slab, remaining)
            data = self._fh.read(n * rsize)
            if len(data) != n * rsize:
                raise BamxFormatError("truncated BAMX data region",
                                      source=self.source_name)
            yield memoryview(data), n
            remaining -= n

    def read_range(self, start: int, stop: int,
                   ) -> Iterator[AlignmentRecord]:
        """Yield records ``start <= i < stop`` with one buffered scan."""
        rsize = self.layout.record_size
        for data, n in self.read_raw_batches(start, stop):
            # Full decode touches every field: materializing the slab
            # once makes the per-field slices cheap bytes slices (small
            # memoryview slices are slower than the one big copy).
            data = bytes(data)
            for i in range(n):
                yield self.layout.decode(data, self.header, i * rsize)

    def __iter__(self) -> Iterator[AlignmentRecord]:
        return self.read_range(0, self._count)


def write_bamx(path: str | os.PathLike[str], header: SamHeader,
               records: list[AlignmentRecord],
               layout: BamxLayout | None = None) -> BamxLayout:
    """Write *records* to a BAMX file, planning the layout if not given.

    Returns the layout actually used.
    """
    if layout is None:
        layout = plan_layout(records)
    with BamxWriter(path, header, layout) as writer:
        writer.write_all(records)
    return layout


def read_bamx(path: str | os.PathLike[str],
              ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAMX file into memory: ``(header, records)``."""
    with BamxReader(path) as reader:
        return reader.header, list(reader)
