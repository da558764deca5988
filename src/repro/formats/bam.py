"""BAM binary format (SAM spec §4): reader and writer over BGZF.

The writer encodes :class:`~repro.formats.record.AlignmentRecord` to the
exact on-disk layout (little-endian, 4-bit packed sequence, packed CIGAR,
binary tags); the reader is the inverse.  Record virtual offsets are
surfaced so BAI construction and the paper's sequential-preprocessing
phase can be built on top.

Like BamTools — the C++ library the paper wraps — this reader only decodes
the stream *sequentially*: without an index there is no way to find record
boundaries mid-stream, which is exactly why the paper's BAM converter
needs its preprocessing phase.
"""

from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from ..errors import BamFormatError, BgzfError
from .bgzf import BgzfReader, BgzfWriter
from .binning import reg2bin
from .cigar import decode_ops, encode_ops
from .header import Reference, SamHeader
from .record import UNMAPPED_POS, AlignmentRecord
from .seq import pack_sequence, qual_bytes_to_text, qual_text_to_bytes, \
    unpack_sequence
from .tags import decode_tags, encode_tags

MAGIC = b"BAM\x01"

_FIXED = struct.Struct("<iiBBHHHiiii")  # refID..tlen after block_size
_BLOCK_SIZE = struct.Struct("<i")


def encode_record(record: AlignmentRecord, header: SamHeader) -> bytes:
    """Encode one alignment to its BAM byte representation, including the
    leading ``block_size`` field."""
    ref_id = -1 if record.rname == "*" else header.ref_id(record.rname)
    if record.rnext == "*":
        next_ref = -1
    elif record.rnext == "=":
        next_ref = ref_id
    else:
        next_ref = header.ref_id(record.rnext)
    name = record.qname.encode("ascii") + b"\x00"
    if len(name) > 255:
        raise BamFormatError(f"QNAME {record.qname!r} longer than 254 bytes")
    cigar_words = encode_ops(record.cigar)
    seq = b"" if record.seq == "*" else pack_sequence(record.seq)
    l_seq = 0 if record.seq == "*" else len(record.seq)
    if record.qual == "*":
        qual = b"\xff" * l_seq
    else:
        if len(record.qual) != l_seq:
            raise BamFormatError(
                f"QUAL length {len(record.qual)} != SEQ length {l_seq}")
        qual = qual_text_to_bytes(record.qual)
    tag_block = encode_tags(record.tags)
    bin_no = reg2bin(record.pos, record.end) if record.pos != UNMAPPED_POS \
        else 4680
    fixed = _FIXED.pack(
        ref_id,
        record.pos,
        len(name),
        record.mapq,
        bin_no,
        len(cigar_words),
        record.flag,
        l_seq,
        next_ref,
        record.pnext,
        record.tlen,
    )
    body = (fixed + name
            + struct.pack(f"<{len(cigar_words)}I", *cigar_words)
            + seq + qual + tag_block)
    return struct.pack("<i", len(body)) + body


def decode_record(body: bytes, header: SamHeader) -> AlignmentRecord:
    """Decode one alignment from its BAM body (without ``block_size``)."""
    if len(body) < _FIXED.size:
        raise BamFormatError("truncated BAM alignment record")
    (ref_id, pos, l_read_name, mapq, _bin, n_cigar, flag, l_seq,
     next_ref, next_pos, tlen) = _FIXED.unpack_from(body, 0)
    off = _FIXED.size
    name = body[off:off + l_read_name - 1].decode("ascii")
    if body[off + l_read_name - 1] != 0:
        raise BamFormatError("read name is not NUL-terminated")
    off += l_read_name
    cigar_words = struct.unpack_from(f"<{n_cigar}I", body, off)
    off += 4 * n_cigar
    seq_bytes = (l_seq + 1) // 2
    seq = unpack_sequence(body[off:off + seq_bytes], l_seq) if l_seq else "*"
    off += seq_bytes
    qual_raw = body[off:off + l_seq]
    off += l_seq
    if l_seq == 0 or not qual_raw.strip(b"\xff"):
        qual = "*"
    else:
        qual = qual_bytes_to_text(qual_raw)
    tags = decode_tags(body[off:])
    rname = "*" if ref_id < 0 else header.ref_name(ref_id)
    if next_ref < 0:
        rnext = "*"
    elif next_ref == ref_id:
        rnext = "="
    else:
        rnext = header.ref_name(next_ref)
    return AlignmentRecord(
        qname=name,
        flag=flag,
        rname=rname,
        pos=pos if pos >= 0 else UNMAPPED_POS,
        mapq=mapq,
        cigar=decode_ops(list(cigar_words)),
        rnext=rnext,
        pnext=next_pos if next_pos >= 0 else UNMAPPED_POS,
        tlen=tlen,
        seq=seq,
        qual=qual,
        tags=tags,
    )


class BamWriter:
    """Write a BAM file: header block, then alignments in call order."""

    def __init__(self, target: str | os.PathLike[str], header: SamHeader,
                 level: int = 6) -> None:
        self._bgzf = BgzfWriter(target, level=level)
        self.header = header
        text = header.to_text().encode("ascii")
        out = bytearray(MAGIC)
        out += struct.pack("<i", len(text))
        out += text
        out += struct.pack("<i", len(header.references))
        for ref in header.references:
            name = ref.name.encode("ascii") + b"\x00"
            out += struct.pack("<i", len(name))
            out += name
            out += struct.pack("<i", ref.length)
        self._bgzf.write(bytes(out))
        self.records_written = 0

    def __enter__(self) -> "BamWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def tell(self) -> int:
        """Virtual offset at which the next record will start."""
        return self._bgzf.tell()

    def write(self, record: AlignmentRecord) -> int:
        """Append one record; return the virtual offset where it starts."""
        voffset = self._bgzf.tell()
        self._bgzf.write(encode_record(record, self.header))
        self.records_written += 1
        return voffset

    def write_all(self, records: Iterable[AlignmentRecord]) -> int:
        """Append every record; return the count written by this call."""
        n = 0
        for record in records:
            self.write(record)
            n += 1
        return n

    def close(self) -> None:
        """Flush blocks, write the BGZF EOF marker, close the file."""
        self._bgzf.close()


class BamReader:
    """Sequential BAM reader; yields records (or records with offsets)."""

    def __init__(self, source: str | os.PathLike[str]) -> None:
        self._bgzf = BgzfReader(source)
        self.source_name = os.fspath(source) if isinstance(
            source, (str, os.PathLike)) else "<stream>"
        magic = self._bgzf.read(4)
        if magic != MAGIC:
            raise BamFormatError("bad BAM magic", source=self.source_name)
        (l_text,) = struct.unpack("<i", self._bgzf.read_exactly(4))
        text = self._bgzf.read_exactly(l_text).decode("ascii")
        (n_ref,) = struct.unpack("<i", self._bgzf.read_exactly(4))
        references = []
        for _ in range(n_ref):
            (l_name,) = struct.unpack("<i", self._bgzf.read_exactly(4))
            raw = self._bgzf.read_exactly(l_name)
            (l_ref,) = struct.unpack("<i", self._bgzf.read_exactly(4))
            references.append(Reference(raw[:-1].decode("ascii"), l_ref))
        header = SamHeader.from_text(text.rstrip("\x00"))
        if header.references:
            # Consistency: binary reference list must match @SQ lines.
            if [(r.name, r.length) for r in header.references] != \
                    [(r.name, r.length) for r in references]:
                raise BamFormatError(
                    "binary reference list disagrees with @SQ header lines",
                    source=self.source_name)
            self.header = header
        else:
            self.header = SamHeader.from_references(references)
            # Preserve original header lines (e.g. @PG/@CO) if any.
            self.header.lines = header.lines + self.header.lines[1:]
        self._after_header = self._bgzf.tell()

    def __enter__(self) -> "BamReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying BGZF stream."""
        self._bgzf.close()

    def _read_one(self) -> AlignmentRecord | None:
        size_raw = self._bgzf.read(4)
        if not size_raw:
            return None
        if len(size_raw) != 4:
            raise BamFormatError("truncated record length",
                                 source=self.source_name)
        (block_size,) = struct.unpack("<i", size_raw)
        body = self._bgzf.read_exactly(block_size)
        return decode_record(body, self.header)

    def __iter__(self) -> Iterator[AlignmentRecord]:
        while True:
            record = self._read_one()
            if record is None:
                return
            yield record

    def iter_with_offsets(self) -> Iterator[tuple[int, AlignmentRecord]]:
        """Yield ``(virtual_offset, record)`` pairs for index building."""
        while True:
            voffset = self._bgzf.tell()
            record = self._read_one()
            if record is None:
                return
            yield voffset, record

    def read_raw_slabs(self, max_records: int,
                       ) -> Iterator[tuple[bytes, np.ndarray]]:
        """Yield ``(buf, starts)``: up to *max_records* whole raw records.

        Record *i* of a slab is ``buf[starts[i]:]`` from its
        ``block_size`` field on, so this walks the ``block_size`` chain
        without decoding a record.  A stream that ends inside a record,
        a negative ``block_size`` or a corrupt BGZF block raises the
        exception class iteration raises, but only after every whole
        record before the fault has been yielded.
        """
        unpack = _BLOCK_SIZE.unpack_from
        buf = bytearray()
        pos = 0
        starts: list[int] = []
        while True:
            n = len(buf)
            while pos + 4 <= n:
                (size,) = unpack(buf, pos)
                if size < 0 or pos + 4 + size > n:
                    break
                starts.append(pos)
                pos += 4 + size
                if len(starts) == max_records:
                    yield bytes(buf[:pos]), np.array(starts)
                    del buf[:pos]
                    pos, starts, n = 0, [], len(buf)
            try:
                # A negative block_size makes read_exactly swallow the
                # rest of the stream and fail: read no further.
                negative = pos + 4 <= n and unpack(buf, pos)[0] < 0
                chunk = b"" if negative else self._bgzf.read_block()
                if not chunk and pos < n:
                    raise self._truncated(bytes(buf[pos:]))
            except Exception:
                if starts:
                    yield bytes(buf[:pos]), np.array(starts)
                raise
            if not chunk:
                break
            buf += chunk
        if starts:
            yield bytes(buf[:pos]), np.array(starts)

    def _truncated(self, tail: bytes) -> Exception:
        """The error :meth:`_read_one` raises on a stream that ends with
        the partial record *tail*."""
        if len(tail) < 4:
            return BamFormatError("truncated record length",
                                  source=self.source_name)
        (size,) = _BLOCK_SIZE.unpack_from(tail)
        return BgzfError(f"unexpected EOF: wanted {size} bytes, got "
                         f"{len(tail) - 4}")

    def seek_virtual(self, voffset: int) -> None:
        """Jump to a record boundary previously obtained from
        :meth:`iter_with_offsets` or an index."""
        self._bgzf.seek_virtual(voffset)

    def rewind(self) -> None:
        """Return to the first alignment record."""
        self._bgzf.seek_virtual(self._after_header)


def read_bam(path: str | os.PathLike[str],
             ) -> tuple[SamHeader, list[AlignmentRecord]]:
    """Read an entire BAM file into memory: ``(header, records)``."""
    with BamReader(path) as reader:
        return reader.header, list(reader)


def write_bam(path: str | os.PathLike[str], header: SamHeader,
              records: Iterable[AlignmentRecord], level: int = 6) -> int:
    """Write *records* to a BAM file at *path*; return the count."""
    with BamWriter(path, header, level=level) as writer:
        return writer.write_all(records)
