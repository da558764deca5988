"""BAMC ("BAM Columnar"): the columnar BAMX v2 record store.

BAMX (v1) keeps every record in one fixed-size row, so any consumer —
even a BED conversion that needs three fields — walks the full record
stride.  BAMC transposes the layout: records are grouped into slabs of
``slab_records`` records, and each slab stores the fixed-width fields
as contiguous little-endian *columns* (numpy-ready), with the
variable-length fields (name, CIGAR, sequence, qualities, tags) packed
into per-slab blobs addressed by ``u32`` offset tables.  Downstream
kernels (:mod:`repro.formats.kernels`) then run filters, flagstat,
histograms and target emission as vectorized array operations without
materializing a single :class:`~repro.formats.record.AlignmentRecord`.

:class:`ColumnSlab` is the batched read interface of every record
store: the BAMX and BAMZ readers build the same slabs from their rows
(:func:`repro.formats.bamx.row_columns`).

File layout::

    magic "BAMC\\x01"
    u32  data_offset            (bytes before the first slab; patched)
    u32  name_cap  u32 cigar_cap  u32 seq_cap  u32 tag_cap
    u64  record_count           (patched on close)
    u32  slab_records           (records per slab; last slab partial)
    u64  footer_offset          (patched on close)
    u32  sam_header_text_length
    ...  SAM header text (ASCII, carries the reference dictionary)
    ...  slabs
    footer:
        u32  slab_count
        u64[slab_count]  slab byte offsets
        u32[slab_count]  slab record counts

Slab layout for ``n`` records (all little-endian, tightly packed)::

    i32[n] ref_id      i32[n] pos       i32[n] end_pos
    i32[n] next_ref    i32[n] next_pos  i32[n] tlen   i32[n] l_seq
    u16[n] flag        u8[n]  mapq
    5 x variable sections, each:  u32[n+1] byte offsets, blob bytes
        name   ASCII read names
        cigar  BAM-packed u32 CIGAR words (len<<4 | op)
        seq    BAM 4-bit nybbles, (l_seq+1)//2 bytes per record
        qual   raw Phred bytes, l_seq per record (0xFF fill = absent)
        tags   BAM tag encoding

``end_pos`` is *derived* — ``record.end`` precomputed at write time
(``-1`` for unplaced records) — so interval targets (BED, BEDGRAPH)
and the coverage kernels never touch the CIGAR blob at read time.  The
decode path ignores it; round-trips are governed by the other columns.

The caps in the header are the same capacities a BAMX layout would
plan; BAMC enforces them at write time for error parity (a record that
would raise :class:`~repro.errors.CapacityError` in a BAMX writer
raises it here too) and exposes them through ``reader.layout`` so
record-size-based accounting keeps working unchanged.
"""

from __future__ import annotations

import io
import os
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..errors import BamxFormatError, CapacityError
from .bamx import BamxLayout
from .cigar import decode_ops, encode_ops
from .header import SamHeader
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_bytes_to_text, qual_text_to_bytes, \
    unpack_sequence
from .tags import decode_tags, encode_tags

MAGIC = b"BAMC\x01"

#: Default records per slab.  Big enough that per-slab numpy dispatch
#: overhead vanishes, small enough that a slab stays cache-friendly.
DEFAULT_SLAB_RECORDS = 4096

_HEADER = struct.Struct("<IIIIIQIQI")
# data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
# record_count, slab_records, footer_offset, text_len
_COUNT_OFFSET = len(MAGIC) + 20          # u64 record_count
_FOOTER_OFFSET = len(MAGIC) + 20 + 8 + 4  # u64 footer_offset


@dataclass(slots=True)
class ColumnSlab:
    """One slab's columns: numpy views plus blob bytes.

    Fixed fields are numpy arrays of length :attr:`count`; each
    variable field has per-record ``lo``/``hi`` byte ranges into its
    blob (``blob[lo[i]:hi[i]]`` is record *i*'s field).  ``start`` is
    the global index of the first record, or ``-1`` for a gathered
    (fancy-indexed) slab where the records are not contiguous.
    """

    start: int
    count: int
    ref_id: np.ndarray
    pos: np.ndarray
    end_pos: np.ndarray
    next_ref: np.ndarray
    next_pos: np.ndarray
    tlen: np.ndarray
    l_seq: np.ndarray
    flag: np.ndarray
    mapq: np.ndarray
    name_lo: np.ndarray
    name_hi: np.ndarray
    cigar_lo: np.ndarray
    cigar_hi: np.ndarray
    seq_lo: np.ndarray
    seq_hi: np.ndarray
    qual_lo: np.ndarray
    qual_hi: np.ndarray
    tag_lo: np.ndarray
    tag_hi: np.ndarray
    name_blob: bytes
    cigar_blob: bytes
    seq_blob: bytes
    qual_blob: bytes
    tag_blob: bytes

    def window(self, a: int, b: int, start: int) -> "ColumnSlab":
        """A zero-copy view of records ``[a, b)`` of this slab."""
        return ColumnSlab(
            start, b - a,
            self.ref_id[a:b], self.pos[a:b], self.end_pos[a:b],
            self.next_ref[a:b], self.next_pos[a:b], self.tlen[a:b],
            self.l_seq[a:b], self.flag[a:b], self.mapq[a:b],
            self.name_lo[a:b], self.name_hi[a:b],
            self.cigar_lo[a:b], self.cigar_hi[a:b],
            self.seq_lo[a:b], self.seq_hi[a:b],
            self.qual_lo[a:b], self.qual_hi[a:b],
            self.tag_lo[a:b], self.tag_hi[a:b],
            self.name_blob, self.cigar_blob, self.seq_blob,
            self.qual_blob, self.tag_blob)

    def take(self, idx: np.ndarray) -> "ColumnSlab":
        """A gathered slab of the (slab-local) records in *idx*.

        Preserves the order of *idx*, which is what lets the partial
        conversion path keep the caller's record order byte-for-byte.
        When *idx* is not strictly increasing the blob bytes are copied
        in *idx* order, so the result's blob offsets never decrease —
        the blob-wide sequence and quality decoders require that.
        """
        sections = [(lo[idx], hi[idx], blob) for lo, hi, blob in (
            (self.name_lo, self.name_hi, self.name_blob),
            (self.cigar_lo, self.cigar_hi, self.cigar_blob),
            (self.seq_lo, self.seq_hi, self.seq_blob),
            (self.qual_lo, self.qual_hi, self.qual_blob),
            (self.tag_lo, self.tag_hi, self.tag_blob))]
        if (np.diff(idx) <= 0).any():
            sections = [_regather(*section) for section in sections]
        (name_lo, name_hi, name_blob), (cigar_lo, cigar_hi, cigar_blob), \
            (seq_lo, seq_hi, seq_blob), (qual_lo, qual_hi, qual_blob), \
            (tag_lo, tag_hi, tag_blob) = sections
        return ColumnSlab(
            -1, len(idx),
            self.ref_id[idx], self.pos[idx], self.end_pos[idx],
            self.next_ref[idx], self.next_pos[idx], self.tlen[idx],
            self.l_seq[idx], self.flag[idx], self.mapq[idx],
            name_lo, name_hi, cigar_lo, cigar_hi, seq_lo, seq_hi,
            qual_lo, qual_hi, tag_lo, tag_hi,
            name_blob, cigar_blob, seq_blob, qual_blob, tag_blob)

    def decode(self, i: int, header: SamHeader) -> AlignmentRecord:
        """Decode record *i* of this slab, matching BAMX decode exactly."""
        return next(self.window(i, i + 1, -1).decode_all(header))

    def decode_all(self, header: SamHeader) -> Iterator[AlignmentRecord]:
        """Decode every record of this slab in order.

        Columns become Python lists once per slab, so the per-record
        loop touches no numpy scalars.
        """
        name_blob, cigar_blob = self.name_blob, self.cigar_blob
        seq_blob, qual_blob, tag_blob = \
            self.seq_blob, self.qual_blob, self.tag_blob
        for (ref_id, pos, next_ref, next_pos, tlen, l_seq, flag, mapq,
             name_lo, name_hi, cigar_lo, cigar_hi, seq_lo, seq_hi,
             qual_lo, qual_hi, tag_lo, tag_hi) in zip(*(
                column.tolist() for column in (
                    self.ref_id, self.pos, self.next_ref, self.next_pos,
                    self.tlen, self.l_seq, self.flag, self.mapq,
                    self.name_lo, self.name_hi, self.cigar_lo,
                    self.cigar_hi, self.seq_lo, self.seq_hi,
                    self.qual_lo, self.qual_hi, self.tag_lo,
                    self.tag_hi))):
            words = struct.unpack_from(f"<{(cigar_hi - cigar_lo) // 4}I",
                                       cigar_blob, cigar_lo)
            if l_seq:
                seq = unpack_sequence(seq_blob[seq_lo:seq_hi], l_seq)
                qual_raw = qual_blob[qual_lo:qual_hi]
                qual = "*" if not qual_raw.strip(b"\xff") \
                    else qual_bytes_to_text(qual_raw)
            else:
                seq = qual = "*"
            rname = "*" if ref_id < 0 else header.ref_name(ref_id)
            if next_ref < 0:
                rnext = "*"
            elif next_ref == ref_id:
                rnext = "="
            else:
                rnext = header.ref_name(next_ref)
            yield AlignmentRecord(
                qname=str(name_blob[name_lo:name_hi], "ascii"), flag=flag,
                rname=rname, pos=pos if pos >= 0 else UNMAPPED_POS,
                mapq=mapq, cigar=decode_ops(words), rnext=rnext,
                pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
                tlen=tlen, seq=seq, qual=qual,
                tags=decode_tags(tag_blob[tag_lo:tag_hi]))


def _regather(lo: np.ndarray, hi: np.ndarray, blob: bytes,
              ) -> tuple[np.ndarray, np.ndarray, bytes]:
    """Copy the ranges ``blob[lo[i]:hi[i]]`` into a new blob, in order.

    Returns the ``(lo, hi, blob)`` of the copy.
    """
    lengths = hi.astype(np.int64) - lo
    new_hi = np.cumsum(lengths)
    new_lo = new_hi - lengths
    src = np.repeat(lo - new_lo, lengths) \
        + np.arange(int(new_hi[-1]) if len(new_hi) else 0)
    return new_lo, new_hi, np.frombuffer(blob, np.uint8)[src].tobytes()


def packed_field(lo: np.ndarray, hi: np.ndarray,
                 blob: bytes) -> np.ndarray:
    """The bytes ``blob[lo[i]:hi[i]]`` of every record, concatenated in
    record order (a zero-copy view when they already are)."""
    if len(lo) and (lo[1:] == hi[:-1]).all():
        return np.frombuffer(blob, np.uint8)[lo[0]:hi[-1]]
    return np.frombuffer(_regather(lo, hi, blob)[2], np.uint8)


def _section(blobs: list[bytes]) -> tuple[np.ndarray, np.ndarray, bytes]:
    """``(lo, hi, blob)`` of per-record byte strings laid end to end."""
    lengths = np.array([len(b) for b in blobs], dtype=np.int64)
    hi = np.cumsum(lengths)
    return hi - lengths, hi, b"".join(blobs)


def _slab_bytes(slab: ColumnSlab) -> bytes:
    """Serialize *slab* in the on-disk slab layout."""
    parts = [np.ascontiguousarray(column, dtype) for column, dtype in (
        (slab.ref_id, "<i4"), (slab.pos, "<i4"), (slab.end_pos, "<i4"),
        (slab.next_ref, "<i4"), (slab.next_pos, "<i4"),
        (slab.tlen, "<i4"), (slab.l_seq, "<i4"), (slab.flag, "<u2"),
        (slab.mapq, "u1"))]
    for lo, hi, blob in (
            (slab.name_lo, slab.name_hi, slab.name_blob),
            (slab.cigar_lo, slab.cigar_hi, slab.cigar_blob),
            (slab.seq_lo, slab.seq_hi, slab.seq_blob),
            (slab.qual_lo, slab.qual_hi, slab.qual_blob),
            (slab.tag_lo, slab.tag_hi, slab.tag_blob)):
        offsets = np.zeros(slab.count + 1, "<u4")
        np.cumsum(hi - lo, out=offsets[1:])
        parts.append(offsets)
        parts.append(packed_field(lo, hi, blob))
    return b"".join(parts)


#: ColumnSlab's fixed columns and ``(lo, hi, blob)`` sections, in field
#: order.
_FIXED_COLUMNS = ("ref_id", "pos", "end_pos", "next_ref", "next_pos",
                  "tlen", "l_seq", "flag", "mapq")
_SECTIONS = tuple((f"{name}_lo", f"{name}_hi", f"{name}_blob")
                  for name in ("name", "cigar", "seq", "qual", "tag"))


def concat_slabs(slabs: Sequence[ColumnSlab]) -> ColumnSlab:
    """One slab holding the records of *slabs* in order, from record 0."""
    fixed = [np.concatenate([getattr(slab, name) for slab in slabs])
             for name in _FIXED_COLUMNS]
    sections = []
    for lo, hi, blob in _SECTIONS:
        lengths = np.concatenate([getattr(slab, hi).astype(np.int64)
                                  - getattr(slab, lo) for slab in slabs])
        ends = np.cumsum(lengths)
        sections += [ends - lengths, ends]
    blobs = [b"".join(packed_field(getattr(slab, lo), getattr(slab, hi),
                                   getattr(slab, blob)).tobytes()
                      for slab in slabs) for lo, hi, blob in _SECTIONS]
    return ColumnSlab(0, len(fixed[0]), *fixed, *sections, *blobs)


def record_columns(records: Sequence[AlignmentRecord], header: SamHeader,
                   layout: BamxLayout | None = None) -> ColumnSlab:
    """The record path's encoder: *records* as one ColumnSlab.

    Raises what the record store writers raise for a record they cannot
    store: :class:`CapacityError` for a field beyond *layout* (skipped
    when *layout* is None), the tag codec's errors, an unknown reference,
    an invalid base, a QUAL/SEQ length mismatch, and — once every record
    passed those — :class:`OverflowError` for a value outside its
    column's range.
    """
    n = len(records)
    ref_ids = [0] * n
    poss = [0] * n
    ends = [0] * n
    next_refs = [0] * n
    next_poss = [0] * n
    tlens = [0] * n
    l_seqs = [0] * n
    flags = [0] * n
    mapqs = [0] * n
    names: list[bytes] = []
    cigars: list[bytes] = []
    seqs: list[bytes] = []
    quals: list[bytes] = []
    tags: list[bytes] = []
    for i, record in enumerate(records):
        name = record.qname.encode("ascii")
        if layout is not None and len(name) > layout.name_cap:
            raise CapacityError(
                f"read name of {len(name)} bytes exceeds layout "
                f"capacity {layout.name_cap}")
        words = encode_ops(record.cigar)
        if layout is not None and len(words) > layout.cigar_cap:
            raise CapacityError(
                f"{len(words)} CIGAR ops exceed layout capacity "
                f"{layout.cigar_cap}")
        l_seq = 0 if record.seq == "*" else len(record.seq)
        if layout is not None and l_seq > layout.seq_cap:
            raise CapacityError(
                f"sequence of {l_seq} bases exceeds layout "
                f"capacity {layout.seq_cap}")
        tag_block = encode_tags(record.tags)
        if layout is not None and len(tag_block) > layout.tag_cap:
            raise CapacityError(
                f"tag block of {len(tag_block)} bytes exceeds "
                f"layout capacity {layout.tag_cap}")
        ref_id = -1 if record.rname == "*" \
            else header.ref_id(record.rname)
        if record.rnext == "*":
            next_ref = -1
        elif record.rnext == "=":
            next_ref = ref_id
        else:
            next_ref = header.ref_id(record.rnext)
        ref_ids[i] = ref_id
        poss[i] = record.pos
        ends[i] = record.end
        next_refs[i] = next_ref
        next_poss[i] = record.pnext
        tlens[i] = record.tlen
        l_seqs[i] = l_seq
        flags[i] = record.flag
        mapqs[i] = record.mapq
        names.append(name)
        cigars.append(struct.pack(f"<{len(words)}I", *words))
        if l_seq:
            seqs.append(pack_sequence(record.seq))
            if record.qual == "*":
                quals.append(b"\xff" * l_seq)
            else:
                if len(record.qual) != l_seq:
                    raise BamxFormatError(
                        f"QUAL length {len(record.qual)} != SEQ "
                        f"length {l_seq}")
                quals.append(qual_text_to_bytes(record.qual))
        else:
            seqs.append(b"")
            quals.append(b"")
        tags.append(tag_block)
    sections = [_section(blobs)
                for blobs in (names, cigars, seqs, quals, tags)]
    (name_lo, name_hi, name_blob), (cigar_lo, cigar_hi, cigar_blob), \
        (seq_lo, seq_hi, seq_blob), (qual_lo, qual_hi, qual_blob), \
        (tag_lo, tag_hi, tag_blob) = sections
    # Typed up front: a value out of its column's range raises.
    return ColumnSlab(
        -1, n, np.array(ref_ids, "<i4"), np.array(poss, "<i4"),
        np.array(ends, "<i4"), np.array(next_refs, "<i4"),
        np.array(next_poss, "<i4"), np.array(tlens, "<i4"),
        np.array(l_seqs, "<i4"), np.array(flags, "<u2"),
        np.array(mapqs, "u1"),
        name_lo, name_hi, cigar_lo, cigar_hi, seq_lo, seq_hi,
        qual_lo, qual_hi, tag_lo, tag_hi,
        name_blob, cigar_blob, seq_blob, qual_blob, tag_blob)


def _parse_slab(buf: bytes, start: int, count: int) -> ColumnSlab:
    """Build a :class:`ColumnSlab` over one raw slab buffer."""
    off = 0

    def fixed(dtype: str, width: int) -> np.ndarray:
        nonlocal off
        arr = np.frombuffer(buf, dtype, count, off)
        off += width * count
        return arr

    ref_id = fixed("<i4", 4)
    pos = fixed("<i4", 4)
    end_pos = fixed("<i4", 4)
    next_ref = fixed("<i4", 4)
    next_pos = fixed("<i4", 4)
    tlen = fixed("<i4", 4)
    l_seq = fixed("<i4", 4)
    flag = fixed("<u2", 2)
    mapq = fixed("u1", 1)

    sections = []
    for _ in range(5):
        offsets = np.frombuffer(buf, "<u4", count + 1, off)
        off += 4 * (count + 1)
        blob_len = int(offsets[count])
        blob = buf[off:off + blob_len]
        if len(blob) != blob_len:
            raise BamxFormatError("truncated BAMC slab")
        off += blob_len
        sections.append((offsets[:-1], offsets[1:], blob))
    (name_lo, name_hi, name_blob), (cigar_lo, cigar_hi, cigar_blob), \
        (seq_lo, seq_hi, seq_blob), (qual_lo, qual_hi, qual_blob), \
        (tag_lo, tag_hi, tag_blob) = sections
    return ColumnSlab(
        start, count, ref_id, pos, end_pos, next_ref, next_pos, tlen,
        l_seq, flag, mapq, name_lo, name_hi, cigar_lo, cigar_hi,
        seq_lo, seq_hi, qual_lo, qual_hi, tag_lo, tag_hi,
        name_blob, cigar_blob, seq_blob, qual_blob, tag_blob)


class BamcWriter:
    """Write a BAMC file with a pre-planned :class:`BamxLayout`.

    Mirrors :class:`~repro.formats.bamx.BamxWriter`: ``write`` /
    ``write_batch`` (returning the first record index, for BAIX
    building) / ``write_all`` / ``close``, with the same capacity
    validation and :class:`~repro.errors.CapacityError` behaviour.
    """

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 layout: BamxLayout,
                 slab_records: int = DEFAULT_SLAB_RECORDS) -> None:
        if slab_records < 1:
            raise BamxFormatError(
                f"slab_records {slab_records} must be >= 1")
        self._fh: io.BufferedWriter = open(target, "wb")  # noqa: SIM115
        self.header = header
        self.layout = layout
        self.slab_records = slab_records
        self.records_written = 0
        self._pending: list[AlignmentRecord] = []
        self._slab_offsets: list[int] = []
        self._slab_counts: list[int] = []
        text = header.to_text().encode("ascii")
        self._fh.write(MAGIC)
        self._fh.write(_HEADER.pack(
            0, layout.name_cap, layout.cigar_cap, layout.seq_cap,
            layout.tag_cap, 0, slab_records, 0, len(text)))
        self._fh.write(text)
        self._data_offset = self._fh.tell()

    def __enter__(self) -> "BamcWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return its 0-based record index."""
        index = self.records_written
        self._pending.append(record)
        self.records_written += 1
        if len(self._pending) >= self.slab_records:
            self._flush_slab()
        return index

    def write_batch(self, records: list[AlignmentRecord]) -> int:
        """Append a batch; return the first record's index."""
        first = self.records_written
        for record in records:
            self._pending.append(record)
            self.records_written += 1
            if len(self._pending) >= self.slab_records:
                self._flush_slab()
        return first

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def _flush_slab(self) -> None:
        records, self._pending = self._pending, []
        if not records:
            return
        self._slab_offsets.append(self._fh.tell())
        self._slab_counts.append(len(records))
        self._fh.write(_slab_bytes(record_columns(records, self.header,
                                                  self.layout)))

    def write_columns(self, slab: ColumnSlab) -> int:
        """Append *slab*'s records; return the first one's index.

        Pending records are flushed first, then the slab is stored in
        slabs of ``slab_records`` records, so a stream of full slabs
        lays out exactly as :meth:`write_batch` would.
        """
        self._flush_slab()
        self.layout.check_columns(slab)
        first = self.records_written
        for a in range(0, slab.count, self.slab_records):
            b = min(a + self.slab_records, slab.count)
            self._slab_offsets.append(self._fh.tell())
            self._slab_counts.append(b - a)
            self._fh.write(_slab_bytes(slab.window(a, b, -1)))
        self.records_written += slab.count
        return first

    def close(self) -> None:
        """Flush the tail slab, write the footer, patch the header."""
        if self._fh.closed:
            return
        self._flush_slab()
        footer_offset = self._fh.tell()
        self._fh.write(struct.pack("<I", len(self._slab_offsets)))
        self._fh.write(np.array(self._slab_offsets, "<u8").tobytes())
        self._fh.write(np.array(self._slab_counts, "<u4").tobytes())
        self._fh.seek(len(MAGIC))
        self._fh.write(struct.pack("<I", self._data_offset))
        self._fh.seek(_COUNT_OFFSET)
        self._fh.write(struct.pack("<Q", self.records_written))
        self._fh.seek(_FOOTER_OFFSET)
        self._fh.write(struct.pack("<Q", footer_offset))
        self._fh.close()


class BamcReader:
    """Random-access BAMC reader.

    Exposes the :class:`~repro.formats.bamx.BamxReader` surface —
    ``len()``, ``[i]``, ``read_range``, iteration, ``.header``,
    ``.layout`` and the columnar access the kernels run on:
    :meth:`read_column_batches` (contiguous ranges) and
    :meth:`read_column_picks` (explicit indices, order-preserving).
    """

    def __init__(self, source: str | os.PathLike[str]) -> None:
        self.source_name = os.fspath(source)
        self._fh: io.BufferedReader = open(source, "rb")  # noqa: SIM115
        magic = self._fh.read(len(MAGIC))
        if magic != MAGIC:
            raise BamxFormatError("bad BAMC magic",
                                  source=self.source_name)
        (self._data_offset, name_cap, cigar_cap, seq_cap, tag_cap,
         self._count, self.slab_records, footer_offset,
         text_len) = _HEADER.unpack(self._fh.read(_HEADER.size))
        self.layout = BamxLayout(name_cap, cigar_cap, seq_cap, tag_cap)
        text = self._fh.read(text_len).decode("ascii")
        self.header = SamHeader.from_text(text)
        size = os.fstat(self._fh.fileno()).st_size
        if footer_offset < self._data_offset or footer_offset + 4 > size:
            raise BamxFormatError("bad BAMC footer offset",
                                  source=self.source_name)
        self._fh.seek(footer_offset)
        (n_slabs,) = struct.unpack("<I", self._fh.read(4))
        directory = self._fh.read(n_slabs * 12)
        if len(directory) != n_slabs * 12:
            raise BamxFormatError("truncated BAMC footer",
                                  source=self.source_name)
        self._slab_offsets = np.frombuffer(directory, "<u8", n_slabs)
        self._slab_counts = np.frombuffer(directory, "<u4", n_slabs,
                                          8 * n_slabs)
        self._footer_offset = footer_offset
        # Global index of each slab's first record; one extra entry so
        # _slab_starts[i + 1] bounds slab i.
        self._slab_starts = np.zeros(n_slabs + 1, dtype=np.int64)
        np.cumsum(self._slab_counts, out=self._slab_starts[1:])
        if int(self._slab_starts[-1]) != self._count:
            raise BamxFormatError(
                f"slab directory sums to {int(self._slab_starts[-1])} "
                f"records but header says {self._count}",
                source=self.source_name)
        self._cached_slab: ColumnSlab | None = None
        self._cached_index = -1

    def __enter__(self) -> "BamcReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying file."""
        self._fh.close()

    def __len__(self) -> int:
        return self._count

    def _slab_of(self, index: int) -> int:
        """Slab number holding global record *index*."""
        return int(np.searchsorted(self._slab_starts, index,
                                   side="right")) - 1

    def _load_slab(self, slab_index: int) -> ColumnSlab:
        """Parse (and cache) slab *slab_index*."""
        if slab_index == self._cached_index \
                and self._cached_slab is not None:
            return self._cached_slab
        offset = int(self._slab_offsets[slab_index])
        end = int(self._slab_offsets[slab_index + 1]) \
            if slab_index + 1 < len(self._slab_offsets) \
            else self._footer_offset
        self._fh.seek(offset)
        buf = self._fh.read(end - offset)
        if len(buf) != end - offset:
            raise BamxFormatError("truncated BAMC slab",
                                  source=self.source_name)
        slab = _parse_slab(buf, int(self._slab_starts[slab_index]),
                           int(self._slab_counts[slab_index]))
        self._cached_slab, self._cached_index = slab, slab_index
        return slab

    def __getitem__(self, index: int) -> AlignmentRecord:
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"record index {index} out of range "
                             f"[0, {self._count})")
        slab = self._load_slab(self._slab_of(index))
        return slab.decode(index - slab.start, self.header)

    def read_column_batches(self, start: int, stop: int,
                            batch_size: int = 0,
                            ) -> Iterator[ColumnSlab]:
        """Yield :class:`ColumnSlab` windows covering ``[start, stop)``.

        The fixed columns of each yielded slab are zero-copy numpy
        views.  A positive *batch_size* caps the records per window;
        0 yields whole stored slabs.
        """
        if not 0 <= start <= stop <= self._count:
            raise BamxFormatError(
                f"record range [{start}, {stop}) outside "
                f"[0, {self._count})")
        index = start
        while index < stop:
            slab_index = self._slab_of(index)
            slab = self._load_slab(slab_index)
            a = index - slab.start
            b = min(stop - slab.start, slab.count)
            if batch_size > 0:
                b = min(b, a + batch_size)
            yield slab if (a == 0 and b == slab.count) \
                else slab.window(a, b, index)
            index = slab.start + b

    def read_column_picks(self, indices: Sequence[int],
                          batch_size: int = 0,
                          ) -> Iterator[ColumnSlab]:
        """Yield gathered slabs for explicit *indices*, in order.

        Consecutive indices living in the same slab are grouped into
        one gathered :class:`ColumnSlab` (at most *batch_size* of them
        when positive); the overall record order is exactly the order
        of *indices*.
        """
        n = len(indices)
        i = 0
        while i < n:
            index = indices[i]
            if not 0 <= index < self._count:
                raise BamxFormatError(
                    f"record index {index} outside [0, {self._count})",
                    source=self.source_name)
            slab_index = self._slab_of(index)
            slab = self._load_slab(slab_index)
            lo, hi = slab.start, slab.start + slab.count
            limit = n if batch_size <= 0 else min(n, i + batch_size)
            j = i + 1
            while j < limit and lo <= indices[j] < hi:
                j += 1
            local = np.asarray(indices[i:j], dtype=np.int64) - lo
            yield slab.take(local)
            i = j

    def read_range(self, start: int, stop: int,
                   ) -> Iterator[AlignmentRecord]:
        """Yield records ``start <= i < stop`` slab by slab."""
        for slab in self.read_column_batches(start, stop):
            yield from slab.decode_all(self.header)

    def __iter__(self) -> Iterator[AlignmentRecord]:
        return self.read_range(0, self._count)


def write_bamc(path: str | os.PathLike[str], header: SamHeader,
               records: list[AlignmentRecord],
               layout: BamxLayout | None = None,
               slab_records: int = DEFAULT_SLAB_RECORDS) -> BamxLayout:
    """Write *records* to a BAMC file, planning the layout if not given.

    Returns the layout actually used.
    """
    if layout is None:
        from .bamx import plan_layout
        layout = plan_layout(records)
    with BamcWriter(path, header, layout,
                    slab_records=slab_records) as writer:
        writer.write_all(records)
    return layout


def read_bamc(path: str | os.PathLike[str],
              ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAMC file into memory: ``(header, records)``."""
    with BamcReader(path) as reader:
        return reader.header, list(reader)
