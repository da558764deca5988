"""BAM -> column transpose: raw BAM records straight into ColumnSlabs.

Every column of a record store is a slice of the BAM binary record:
the fixed fields, the read name, the CIGAR words, the 4-bit sequence,
the raw qualities and the tag block.  :func:`transpose_bam` therefore
walks the ``block_size`` chain of the inflated stream and gathers a
slab of records at a time with numpy, with no per-record decode.

The contract is the record path's bytes and errors: a slab holds
exactly the columns that :func:`~repro.formats.bam.decode_record`
followed by a store writer would produce.  Where that round trip
changes bytes, the gather applies the same normalization:

* the pad nybble of an odd-length SEQ is zeroed;
* raw QUAL bytes above 222 clamp to 222, unless the whole run is
  ``0xFF`` (absent qualities);
* ``pos``, ``next_pos``, ``ref_id`` and ``next_ref`` below 0 become -1.

Records the gather cannot vouch for are *flagged*: a malformed fixed
part, a name that is not NUL-terminated ASCII, a CIGAR op code >= 9
or of length 0, a reference id out of range, or a tag block that is
not already canonical (an integer not in its narrowest code, a NaN
float, non-ASCII text, ``H`` or ``B`` values, an unknown or truncated
code).  Each flagged record goes through the reference codec, which
raises the record path's error or yields its canonical bytes.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..errors import BamxFormatError
from .bam import BamReader, decode_record, encode_record
from .bamc import ColumnSlab
from .bamx import REF_CONSUMING_CODE
from .header import SamHeader

#: ``block_size`` plus the fixed part of a BAM record.
_BAM_FIXED = np.dtype([
    ("block_size", "<i4"), ("ref_id", "<i4"), ("pos", "<i4"),
    ("l_read_name", "u1"), ("mapq", "u1"), ("bin", "<u2"),
    ("n_cigar", "<u2"), ("flag", "<u2"), ("l_seq", "<i4"),
    ("next_ref", "<i4"), ("next_pos", "<i4"), ("tlen", "<i4")])

#: Segment order within a record; every byte of a slab is in one.
_HEAD, _NAME, _NUL, _CIGAR, _SEQ, _QUAL, _TAGS = range(7)

#: Largest QUAL byte that survives the Phred+33 text round trip.
_MAX_QUAL = 255 - 33

#: Value width of each tag type code: -1 for NUL-terminated ``Z``, 0 for
#: codes whose bytes are never canonical as stored (``H``, ``B``) or
#: unknown.
_TAG_WIDTH = np.zeros(256, dtype=np.int64)
for _code, _width in (("A", 1), ("c", 1), ("C", 1), ("s", 2), ("S", 2),
                      ("i", 4), ("I", 4), ("f", 4), ("Z", -1)):
    _TAG_WIDTH[ord(_code)] = _width


def transpose_bam(reader: BamReader,
                  slab_records: int) -> Iterator[ColumnSlab]:
    """Yield the remaining records of *reader* as ColumnSlabs of up to
    *slab_records* records each, in file order."""
    start = 0
    for buf, starts in reader.read_raw_slabs(slab_records):
        slab = transpose_records(buf, starts, reader.header, start)
        start += slab.count
        yield slab


def transpose_records(buf: bytes, starts: np.ndarray, header: SamHeader,
                      start: int) -> ColumnSlab:
    """One ColumnSlab from whole raw records.

    ``buf[starts[i]:]`` begins with record *i*'s ``block_size`` and the
    records tile *buf* exactly; *start* is the first record's index.
    """
    fixed, seg = _fields(buf, starts)
    flagged = np.flatnonzero(
        _flagged(buf, starts, fixed, seg, len(header.references)))
    if flagged.size:
        buf, starts = _canonical(buf, starts, flagged, header)
        fixed, seg = _fields(buf, starts)
    return _columns(buf, fixed, seg, start)


def _fields(buf: bytes, starts: np.ndarray,
            ) -> tuple[np.ndarray, np.ndarray]:
    """The fixed parts of the records and their ``(n, 7)`` segment
    sizes (head, name, NUL, CIGAR, SEQ, QUAL, tags).

    Sizes are what the fixed fields claim; a malformed record can have
    a negative one, which :func:`_flagged` catches.
    """
    data = np.frombuffer(buf, np.uint8)
    at = np.minimum(starts[:, None] + np.arange(_BAM_FIXED.itemsize),
                    data.size - 1)
    fixed = data[at].view(_BAM_FIXED)[:, 0]
    l_seq = fixed["l_seq"].astype(np.int64)
    seg = np.empty((len(starts), 7), dtype=np.int64)
    seg[:, _HEAD] = _BAM_FIXED.itemsize
    seg[:, _NAME] = fixed["l_read_name"].astype(np.int64) - 1
    seg[:, _NUL] = 1
    seg[:, _CIGAR] = 4 * fixed["n_cigar"].astype(np.int64)
    seg[:, _SEQ] = (l_seq + 1) // 2
    seg[:, _QUAL] = l_seq
    seg[:, _TAGS] = fixed["block_size"].astype(np.int64) + 4 \
        - seg[:, :_TAGS].sum(axis=1)
    return fixed, seg


def _flagged(buf: bytes, starts: np.ndarray, fixed: np.ndarray,
             seg: np.ndarray, n_ref: int) -> np.ndarray:
    """Mask of the records that must go through the reference codec."""
    bad = (fixed["block_size"] < 32) | (seg[:, _NAME] < 0) \
        | (fixed["l_seq"] < 0) | (seg[:, _TAGS] < 0) \
        | (fixed["ref_id"] >= n_ref) | (fixed["next_ref"] >= n_ref)
    ok = np.flatnonzero(~bad)
    if not ok.size:
        return bad
    data = np.frombuffer(buf, np.uint8)
    high = _marks(data >= 0x80)
    seg = seg[ok]
    at = starts[ok, None] + np.cumsum(seg, axis=1) - seg
    nul = at[:, _NUL]
    bad[ok] = (data[nul] != 0) | (_next(high, at[:, _NAME]) < nul) \
        | _bad_cigar(data, at[:, _CIGAR], seg[:, _CIGAR] // 4) \
        | _bad_tags(data, high, at[:, _TAGS], at[:, _TAGS] + seg[:, _TAGS])
    return bad


def _marks(mask: np.ndarray) -> np.ndarray:
    """Positions where *mask* holds, then ``mask.size`` as a sentinel."""
    return np.append(np.flatnonzero(mask), mask.size)


def _next(marks: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The first of *marks* at or after each position in *at*."""
    return marks[np.searchsorted(marks, at)]


def _bad_cigar(data: np.ndarray, lo: np.ndarray,
               n_ops: np.ndarray) -> np.ndarray:
    """Records with a CIGAR op code >= 9 (the decoder rejects it) or an
    op of length 0 (the encoder rejects it)."""
    total = int(n_ops.sum())
    bad = np.zeros(len(lo), dtype=bool)
    if not total:
        return bad
    first = np.cumsum(n_ops) - n_ops
    at = np.repeat(lo - 4 * first, n_ops) + 4 * np.arange(total)
    words = data[at[:, None] + np.arange(4)].view("<u4")[:, 0]
    bad_word = ((words & 0xF) >= 9) | ((words >> 4) == 0)
    bad[np.repeat(np.arange(len(lo)), n_ops)[bad_word]] = True
    return bad


def _bad_tags(data: np.ndarray, high: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> np.ndarray:
    """Records whose tag block ``data[lo:hi]`` is not canonical; *high*
    marks the bytes >= 0x80 (see :func:`_marks`).

    The walk advances one tag per step for every record still inside
    its block, so it loops over the tag ordinal, not the records.
    """
    bad = np.zeros(len(lo), dtype=bool)
    cur = lo.copy()
    live = np.flatnonzero(cur < hi)
    last = data.size - 1
    nuls = None
    while live.size:
        p, end = cur[live], hi[live]
        # Two name bytes, the type code and up to four value bytes.
        head = data[np.minimum(p[:, None] + np.arange(7), last)]
        code = head[:, 2]
        width = _TAG_WIDTH[code]
        value = head[:, 3:].copy().view("<u4")[:, 0].astype(np.int64)
        truncated = p + 3 > end
        flag = truncated | (width == 0) | (head[:, 0] >= 0x80) \
            | (head[:, 1] >= 0x80) | _noncanonical_value(code, value)
        text = np.flatnonzero((width < 0) & ~truncated)
        if text.size:
            if nuls is None:
                nuls = _marks(data == 0)
            vstart = p[text] + 3
            stop = _next(nuls, vstart)
            width[text] = stop - vstart + 1
            flag[text] |= _next(high, vstart) < stop
        nxt = p + 3 + width
        flag |= nxt > end
        bad[live[flag]] = True
        cur[live] = nxt
        live = live[~flag & (nxt < end)]
    return bad


def _noncanonical_value(code: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Tag values the decode -> encode round trip would rewrite.

    *value* is the four bytes after the type code, little-endian.
    Integers must sit in the narrowest of ``cCsSiI`` that holds them;
    an ``A`` must be ASCII; a float NaN may lose its payload.
    """
    u8, u16 = value & 0xFF, value & 0xFFFF
    s16 = u16 - ((u16 >> 15) << 16)
    s32 = value - ((value >> 31) << 32)
    return ((code == ord("C")) & (u8 < 0x80)) \
        | ((code == ord("A")) & (u8 >= 0x80)) \
        | ((code == ord("s")) & (s16 >= -0x80) & (s16 <= 0xFF)) \
        | ((code == ord("S")) & (u16 < 0x8000)) \
        | ((code == ord("i")) & (s32 >= -0x8000) & (s32 <= 0xFFFF)) \
        | ((code == ord("I")) & (value < 0x80000000)) \
        | ((code == ord("f")) & ((value & 0x7F800000) == 0x7F800000)
           & ((value & 0x7FFFFF) != 0))


def _canonical(buf: bytes, starts: np.ndarray, flagged: np.ndarray,
               header: SamHeader) -> tuple[bytes, np.ndarray]:
    """*buf* with each flagged record replaced by its canonical bytes.

    Returns the new buffer and record starts; raises whatever the
    reference codec raises on a flagged record.
    """
    spans = np.diff(np.append(starts, len(buf)))
    pieces = []
    prev = 0
    for i in flagged.tolist():
        a, size = int(starts[i]), int(spans[i])
        pieces.append(buf[prev:a])
        pieces.append(_reference(buf[a + 4:a + size], header))
        spans[i] = len(pieces[-1])
        prev = a + size
    pieces.append(buf[prev:])
    return b"".join(pieces), np.cumsum(spans) - spans


def _reference(body: bytes, header: SamHeader) -> bytes:
    """The record path for one BAM record body: decode, then re-encode
    the way the store writers do."""
    record = decode_record(body, header)
    if record.qual != "*" and len(record.qual) != len(record.seq):
        raise BamxFormatError(
            f"QUAL length {len(record.qual)} != SEQ length "
            f"{len(record.seq)}")
    return encode_record(record, header)


def _columns(buf: bytes, fixed: np.ndarray, seg: np.ndarray,
             start: int) -> ColumnSlab:
    """Gather canonical records into a ColumnSlab."""
    n = len(fixed)
    data = np.frombuffer(buf, np.uint8)
    owner = np.repeat(np.tile(np.arange(7, dtype=np.uint8), n), seg.ravel())
    blobs = {k: data[owner == k]
             for k in (_NAME, _CIGAR, _SEQ, _QUAL, _TAGS)}
    hi = np.cumsum(seg, axis=0)
    lo = hi - seg

    words = blobs[_CIGAR].view("<u4")
    consumed = np.zeros(words.size + 1, dtype=np.int64)
    np.cumsum(np.where(REF_CONSUMING_CODE[words & 0xF], words >> 4, 0),
              out=consumed[1:])
    span = consumed[hi[:, _CIGAR] // 4] - consumed[lo[:, _CIGAR] // 4]
    pos = np.maximum(fixed["pos"], -1)
    end_pos = np.where(pos < 0, -1, pos + np.maximum(span, 1))
    if (end_pos > np.iinfo(np.int32).max).any():
        raise OverflowError("alignment end beyond the 32-bit position "
                            "range")

    l_seq = fixed["l_seq"]
    seq = blobs[_SEQ]
    odd = (l_seq & 1) == 1
    seq[hi[odd, _SEQ] - 1] &= 0xF0
    qual = blobs[_QUAL]
    if qual.size and qual.max() > _MAX_QUAL:
        not_ff = np.zeros(qual.size + 1, dtype=np.int64)
        np.cumsum(qual != 0xFF, out=not_ff[1:])
        absent = not_ff[hi[:, _QUAL]] == not_ff[lo[:, _QUAL]]
        np.minimum(qual, _MAX_QUAL, out=qual,
                   where=~np.repeat(absent, l_seq))

    return ColumnSlab(
        start, n, np.maximum(fixed["ref_id"], -1), pos,
        end_pos.astype(np.int32), np.maximum(fixed["next_ref"], -1),
        np.maximum(fixed["next_pos"], -1), fixed["tlen"], l_seq,
        fixed["flag"], fixed["mapq"],
        lo[:, _NAME], hi[:, _NAME], lo[:, _CIGAR], hi[:, _CIGAR],
        lo[:, _SEQ], hi[:, _SEQ], lo[:, _QUAL], hi[:, _QUAL],
        lo[:, _TAGS], hi[:, _TAGS],
        blobs[_NAME].tobytes(), blobs[_CIGAR].tobytes(), seq.tobytes(),
        qual.tobytes(), blobs[_TAGS].tobytes())
