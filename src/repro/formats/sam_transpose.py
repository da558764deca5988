"""SAM text -> column transpose: alignment lines straight into ColumnSlabs.

The SAM preprocessing ranks of the preprocessing-optimized converter
turn text into a record store.  :class:`SamTransposer` does that one
batch of lines at a time, column by column, with numpy over the batch's
bytes and no :class:`~repro.formats.record.AlignmentRecord`:

* newline and tab positions split the batch into its eleven mandatory
  columns and the tag block of every line;
* FLAG, POS, MAPQ, PNEXT and TLEN are decimal-parsed as arrays;
* RNAME and RNEXT map to reference ids by one dictionary lookup each;
* CIGAR words and ``end_pos`` come from one pass over the CIGAR bytes;
* SEQ is nybble-packed through a lookup table (odd pad nybble zero);
* QUAL becomes raw Phred bytes, ``*`` a run of ``0xFF``;
* each tag block is ``encode_tag(parse_tag(field))`` of its fields,
  through a bounded memo keyed by the text.

The contract is the record path's bytes and errors: ``parse_alignment``
then a record store writer.  Lines the column parser cannot vouch for
are *flagged* — fewer than eleven columns, an integer that is not
``-?[0-9]{1,18}`` or is outside its column's range, a CIGAR that is not
``*`` or ``([0-9]+[MIDNSHP=X])+`` with lengths in ``[1, MAX_OP_LEN]``, a base
outside the nybble alphabet, an unknown reference, a QUAL length that
differs from SEQ's, a tag the codec rejects, or an end beyond the 32-bit
range.  A flagged line goes through ``parse_alignment`` (whose errors
surface at once, in stream order, as the record path's parse pass
raises them) and the record encoder,
:func:`~repro.formats.bamc.record_columns`.  A record that encoder
rejects is a *failure*: the record path would only reject it after
parsing the whole rank, so it is kept aside and :func:`raise_failure`
raises the record path's error once the rank is parsed.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import ReproError
from .baix import BaixIndex
from .bamc import ColumnSlab, concat_slabs, record_columns
from .bamx import REF_CONSUMING_CODE, BamxLayout, plan_layout
from .cigar import CIGAR_OPS, MAX_OP_LEN
from .header import SamHeader
from .record import AlignmentRecord
from .sam import MANDATORY_COLUMNS, parse_alignment
from .seq import NYBBLE_ALPHABET
from .tags import encode_tag, parse_tag

_INT32_MAX = (1 << 31) - 1

#: Nybble code of each byte, 0xFF outside the alphabet (either case).
_NYBBLE = np.full(256, 0xFF, dtype=np.uint8)
for _code, _base in enumerate(NYBBLE_ALPHABET):
    _NYBBLE[ord(_base)] = _NYBBLE[ord(_base.lower())] = _code

#: BAM op code of each CIGAR op character, -1 for any other byte.
_OP_CODE = np.full(256, -1, dtype=np.int64)
for _code, _op in enumerate(CIGAR_OPS):
    _OP_CODE[ord(_op)] = _code

#: Phred+33 text byte -> raw score, as ``qual_text_to_bytes`` maps it.
_PHRED = np.maximum(np.arange(256) - 33, 0).astype(np.uint8)

#: Tag memo entries kept before the memo is cleared.
_MEMO_LIMIT = 1 << 16

_MISSING = object()

#: What the SAM, tag and record codecs raise on a value they reject.
_CODEC_ERRORS = (ReproError, ValueError, ArithmeticError, struct.error)


class SamTransposer:
    """Transpose the SAM lines of one rank, batch by batch.

    Call :meth:`transpose` once per batch, in stream order.  Records are
    numbered across batches (header and blank lines skipped);
    :attr:`failures` holds the ``(record index, record)`` pairs the
    record encoder rejected, in stream order.
    """

    def __init__(self, header: SamHeader) -> None:
        self.header = header
        self.count = 0
        self.failures: list[tuple[int, AlignmentRecord]] = []
        names = {ref.name.encode("utf-8"): i
                 for i, ref in enumerate(header.references)}
        self._rname = {**names, b"*": -1}
        # -3: the mate's reference is the record's own.
        self._rnext = {**names, b"*": -1, b"=": -3}
        # Tag-column text -> block; a line without tags has text b"".
        self._tags: dict[bytes, object] = {b"": b""}

    def transpose(self, lines: list[str]) -> ColumnSlab:
        """One ColumnSlab of the records of *lines* (ASCII, no newlines),
        in order; raises what ``parse_alignment`` raises on a line."""
        first = self.count
        buf = "\n".join(lines).encode("ascii") + b"\n"
        data = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero(data == 10)
        begins = np.empty_like(ends)
        begins[0] = 0
        begins[1:] = ends[:-1] + 1
        keep = (ends > begins) & (data[begins] != ord("@"))
        line_of = np.flatnonzero(keep)
        begins, ends = begins[keep], ends[keep]
        n = len(begins)
        self.count += n
        tabs = np.append(np.flatnonzero(data == 9), data.size)
        first_tab = np.searchsorted(tabs, begins)
        n_tabs = np.searchsorted(tabs, ends) - first_tab
        rows = np.flatnonzero(n_tabs >= MANDATORY_COLUMNS - 1)
        cols = _Columns(self, buf, data, tabs, begins[rows], ends[rows],
                        first_tab[rows], n_tabs[rows])
        good = rows[cols.ok]
        slab = cols.slab(cols.ok)
        flagged = np.setdiff1d(np.arange(n), good, assume_unique=True)
        if flagged.size:
            slab = self._with_flagged(slab, good, flagged, lines, line_of,
                                      first)
        slab.start = first
        return slab

    def _with_flagged(self, slab: ColumnSlab, good: np.ndarray,
                      flagged: np.ndarray, lines: list[str],
                      line_of: np.ndarray, first: int) -> ColumnSlab:
        """*slab* (the records at rows *good*) merged with the flagged
        rows' records from the record path, in row order."""
        records = [parse_alignment(lines[i])
                   for i in line_of[flagged].tolist()]
        try:
            pieces = [record_columns(records, self.header)]
            kept = flagged
        except _CODEC_ERRORS:
            pieces, kept_rows = [], []
            for row, record in zip(flagged.tolist(), records):
                try:
                    pieces.append(record_columns([record], self.header))
                    kept_rows.append(row)
                except _CODEC_ERRORS:
                    self.failures.append((first + row, record))
            kept = np.array(kept_rows, dtype=np.int64)
        merged = concat_slabs([slab, *pieces])
        order = np.argsort(np.concatenate([good, kept]), kind="stable")
        return merged.take(order)

    def tag_blocks(self, texts: list[bytes]) -> list[bytes | None]:
        """The BAM tag block of each SAM tag-column text (``b""`` for
        none), or None where the tag codec rejects it."""
        blocks = list(map(self._tags.get, texts))
        for i, block in enumerate(blocks):
            if block is None:
                blocks[i] = self._encode_tags(texts[i])
        return blocks

    def _encode_tags(self, text: bytes) -> bytes | None:
        """Encode *text* field by field through the memo."""
        block = self._tags.get(text, _MISSING)
        if block is not _MISSING:
            return block  # type: ignore[return-value]
        fields = text.split(b"\t")
        try:
            if len(fields) == 1:
                block = encode_tag(parse_tag(text.decode("ascii")))
            elif b"" in fields:
                block = None
            else:
                parts = [self._encode_tags(field) for field in fields]
                block = None if None in parts else b"".join(parts)
        except _CODEC_ERRORS:
            block = None
        if len(self._tags) >= _MEMO_LIMIT:
            self._tags.clear()
            self._tags[b""] = b""
        self._tags[text] = block
        return block  # type: ignore[return-value]


class _Columns:
    """The mandatory columns of lines with at least ten tabs, parsed as
    arrays; :attr:`ok` marks the lines the arrays hold exactly."""

    def __init__(self, owner: SamTransposer, buf: bytes, data: np.ndarray,
                 tabs: np.ndarray, begins: np.ndarray, ends: np.ndarray,
                 first_tab: np.ndarray, n_tabs: np.ndarray) -> None:
        self.data = data
        # Column k of line i is data[lo[i, k]:hi[i, k]].
        tab = tabs[first_tab[:, None] + np.arange(MANDATORY_COLUMNS)]
        lo = np.empty_like(tab)
        lo[:, 0] = begins
        lo[:, 1:] = tab[:, :-1] + 1
        hi = tab.copy()
        hi[:, -1] = np.where(n_tabs >= MANDATORY_COLUMNS, tab[:, -1], ends)
        self.lo, self.hi = lo, hi

        flag, ok = _decimal(data, lo[:, 1], hi[:, 1])
        pos1, ok3 = _decimal(data, lo[:, 3], hi[:, 3])
        mapq, ok4 = _decimal(data, lo[:, 4], hi[:, 4])
        pnext1, ok7 = _decimal(data, lo[:, 7], hi[:, 7])
        tlen, ok8 = _decimal(data, lo[:, 8], hi[:, 8])
        ok &= ok3 & ok4 & ok7 & ok8 \
            & (flag >= 0) & (flag <= 0xFFFF) & (mapq >= 0) & (mapq <= 0xFF) \
            & (pos1 <= _INT32_MAX + 1) & (pnext1 <= _INT32_MAX + 1) \
            & (tlen >= -_INT32_MAX - 1) & (tlen <= _INT32_MAX)
        self.flag, self.mapq, self.tlen = flag, mapq, tlen
        self.pos = np.where(pos1 > 0, pos1 - 1, -1)
        self.next_pos = np.where(pnext1 > 0, pnext1 - 1, -1)

        self.ref_id = np.array(_lookup(owner._rname, buf, lo[:, 2],
                                       hi[:, 2]), dtype=np.int64)
        next_ref = np.array(_lookup(owner._rnext, buf, lo[:, 6], hi[:, 6]),
                            dtype=np.int64)
        self.next_ref = np.where(next_ref == -3, self.ref_id, next_ref)
        ok &= (self.ref_id != -2) & (self.next_ref != -2)

        cigar_ok, self.n_ops, self.words, self.op_owner, span = \
            _cigars(data, lo[:, 5], hi[:, 5])
        ok &= cigar_ok
        self.end_pos = np.where(self.pos < 0, -1,
                                self.pos + np.maximum(span, 1))
        ok &= self.end_pos <= _INT32_MAX

        seq_lo = lo[:, 9]
        l_seq = hi[:, 9] - seq_lo
        l_seq[(l_seq == 1) & (data[seq_lo] == ord("*"))] = 0
        q_len = hi[:, 10] - lo[:, 10]
        self.qual_star = (q_len == 1) & (data[lo[:, 10]] == ord("*"))
        ok &= (l_seq == 0) | self.qual_star | (q_len == l_seq)
        self.codes = _NYBBLE[data[_mask(data.size, seq_lo, seq_lo + l_seq)]]
        bad_base = np.flatnonzero(self.codes > 0xF)
        if bad_base.size:
            ok[np.searchsorted(np.cumsum(l_seq), bad_base, "right")] = False
        self.l_seq = l_seq

        has_tags = n_tabs >= MANDATORY_COLUMNS
        tag_lo = np.where(has_tags, tab[:, -1] + 1, ends)
        ok &= ~has_tags | (tag_lo < ends)
        self.tags = owner.tag_blocks(
            [buf[a:b] for a, b in zip(tag_lo.tolist(), ends.tolist())])
        ok[[i for i, block in enumerate(self.tags) if block is None]] \
            = False
        self.ok = ok

    def slab(self, keep: np.ndarray) -> ColumnSlab:
        """The ColumnSlab of the lines in the mask *keep*."""
        data, lo, hi = self.data, self.lo[keep], self.hi[keep]
        name_len = hi[:, 0] - lo[:, 0]
        name_blob = data[_mask(data.size, lo[:, 0], hi[:, 0])].tobytes()

        cigar_blob = self.words[keep[self.op_owner]].tobytes()
        cigar_len = 4 * self.n_ops[keep]

        l_seq = self.l_seq[keep]
        codes = self.codes if keep.all() \
            else self.codes[np.repeat(keep, self.l_seq)]
        odd = np.flatnonzero(l_seq & 1)
        if odd.size:
            codes = np.insert(codes, np.cumsum(l_seq)[odd], 0)
        seq_blob = ((codes[0::2] << 4) | codes[1::2]).tobytes()

        text = (l_seq > 0) & ~self.qual_star[keep]
        qual = _PHRED[data[_mask(data.size, lo[text, 10], hi[text, 10])]]
        if not text.all():
            absent = np.full(int(l_seq.sum()), 0xFF, dtype=np.uint8)
            absent[np.repeat(text, l_seq)] = qual
            qual = absent

        tags = [block for block, k in zip(self.tags, keep.tolist()) if k]
        tag_len = np.fromiter(map(len, tags), dtype=np.int64,
                              count=len(tags))
        sections = []
        for lengths in (name_len, cigar_len, (l_seq + 1) // 2, l_seq,
                        tag_len):
            ends = np.cumsum(lengths)
            sections += [ends - lengths, ends]
        return ColumnSlab(
            -1, len(l_seq), self.ref_id[keep].astype(np.int32),
            self.pos[keep].astype(np.int32),
            self.end_pos[keep].astype(np.int32),
            self.next_ref[keep].astype(np.int32),
            self.next_pos[keep].astype(np.int32),
            self.tlen[keep].astype(np.int32), l_seq.astype(np.int32),
            self.flag[keep].astype(np.uint16),
            self.mapq[keep].astype(np.uint8), *sections,
            name_blob, cigar_blob, seq_blob, qual.tobytes(),
            b"".join(tags))


def _mask(size: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of the positions ``[0, size)`` inside one of the
    ranges ``[lo[i], hi[i])``, which are in order and disjoint."""
    runs = np.empty(2 * len(lo) + 1, dtype=np.int64)
    runs[0:-1:2] = lo - np.concatenate([[0], hi[:-1]])
    runs[1::2] = hi - lo
    runs[-1] = size - (hi[-1] if len(hi) else 0)
    inside = np.zeros(len(runs), dtype=bool)
    inside[1::2] = True
    return np.repeat(inside, runs)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """Start offset of each of *lengths* laid end to end."""
    return np.cumsum(lengths) - lengths


def _lookup(table: dict[bytes, int], buf: bytes, lo: np.ndarray,
            hi: np.ndarray) -> list[int]:
    """``table[buf[lo[i]:hi[i]]]`` per field, -2 for a missing key."""
    get = table.get
    return [get(buf[a:b], -2) for a, b in zip(lo.tolist(), hi.tolist())]


def _decimal(data: np.ndarray, lo: np.ndarray, hi: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Values of the decimal fields ``data[lo:hi]`` and a mask of the
    fields that are exactly ``-?[0-9]{1,18}``."""
    neg = data[np.minimum(lo, data.size - 1)] == ord("-")
    n_digits = hi - lo - neg
    ok = (n_digits >= 1) & (n_digits <= 18)
    width = int(n_digits[ok].max(initial=1))
    place = np.arange(width)
    inside = place >= width - n_digits[:, None]
    digits = data[np.maximum(hi[:, None] - width + place, 0)] \
        .astype(np.int64) - ord("0")
    ok &= (((digits >= 0) & (digits <= 9)) | ~inside).all(axis=1)
    scale = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    value = (np.where(inside, digits, 0) * scale).sum(axis=1)
    return np.where(neg, -value, value), ok


def _cigars(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Parse the CIGAR fields ``data[lo:hi]``.

    Returns ``(ok, n_ops, words, op_owner, span)``: the mask of fields
    that are ``*`` or canonical op runs, ops per field, every op's BAM
    word in field order, the field of each op and each field's
    reference span.
    """
    m = len(lo)
    star = (hi - lo == 1) & (data[lo] == ord("*"))
    lengths = np.where(star, 0, hi - lo)
    text = data[_mask(data.size, lo, lo + lengths)]
    owner = np.repeat(np.arange(m), lengths)
    code = _OP_CODE[text]
    ok = star | (lengths > 0)
    junk = (code < 0) & ((text - ord("0")).astype(np.uint8) > 9)
    ok[owner[junk]] = False
    starts = _offsets(lengths)
    last = starts + lengths - 1
    ok[lengths > 0] &= code[last[lengths > 0]] >= 0
    at = np.flatnonzero(code >= 0)
    op_owner = owner[at]
    run_lo = np.maximum(np.concatenate([[0], at[:-1] + 1]),
                        starts[op_owner])
    length, digits_ok = _decimal(text, run_lo, at)
    ok[op_owner[~(digits_ok & (length >= 1) & (length <= MAX_OP_LEN))]] \
        = False
    op = code[at]
    words = ((length << 4) | op).astype("<u4")
    span = np.bincount(op_owner, minlength=m,
                       weights=np.where(REF_CONSUMING_CODE[op], length, 0))
    return (ok, np.bincount(op_owner, minlength=m), words, op_owner,
            span.astype(np.int64))


def raise_failure(failures: list[tuple[int, AlignmentRecord]],
                  slab: ColumnSlab, header: SamHeader, store_format: str,
                  slab_records: int) -> None:
    """Raise what the record path raises for a rank whose transpose
    kept *failures* aside; *slab* holds the rank's other records.

    The record path plans the layout over every record (tag codec
    errors, then a read name beyond 254 bytes), then writes them in
    stream order: a BAMX row at a time, a BAMC slab of *slab_records*
    records at a time (every record's own checks before the slab's
    column ranges).  BAMX stores no alignment end, so an end beyond the
    32-bit range only fails its index build, after every write — or,
    on an unplaced record, not at all; this path rejects it as the BAM
    transpose does.
    """
    records = [record for _, record in failures]
    layout = plan_layout(records)
    BamxLayout.of_columns([slab])
    if store_format == "bamc":
        first_slab = failures[0][0] // slab_records
        record_columns([record for index, record in failures
                        if index // slab_records == first_slab], header)
    else:
        for record in records:
            layout.encode(record, header)
        BaixIndex.build(enumerate(records), header)
    # Only an unplaced record's end is left, which BAMX would store.
    raise OverflowError("alignment end beyond the 32-bit position range")

