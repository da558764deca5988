"""Cross-codec property tests: arbitrary records must round-trip
identically through SAM text, BAM binary, BAMX and BAMZ."""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.bam import decode_record, encode_record
from repro.formats.bamx import plan_layout
from repro.formats.header import SamHeader
from repro.formats.record import UNMAPPED_POS, AlignmentRecord
from repro.formats.sam import format_alignment, parse_alignment
from repro.formats.tags import Tag

HDR = SamHeader.from_references([("chr1", 1 << 20), ("chr2", 1 << 18)])

_qname = st.from_regex(r"[!-?A-~]{1,24}", fullmatch=True)
_seq = st.text(alphabet="ACGTN", min_size=1, max_size=40)
_tag_name = st.from_regex(r"[A-Za-z][A-Za-z0-9]", fullmatch=True)
_tags = st.lists(
    st.one_of(
        st.builds(Tag, _tag_name, st.just("i"),
                  st.integers(-2**31, 2**31 - 1)),
        st.builds(Tag, _tag_name, st.just("Z"),
                  st.from_regex(r"[ -~]{0,12}", fullmatch=True)
                  .filter(lambda s: "\t" not in s)),
        st.builds(Tag, _tag_name, st.just("A"),
                  st.from_regex(r"[!-~]", fullmatch=True)),
    ),
    max_size=4, unique_by=lambda t: t.name)


@st.composite
def records(draw):
    seq = draw(_seq)
    mapped = draw(st.booleans())
    n = len(seq)
    if mapped:
        # Build a CIGAR consuming exactly n query bases.
        style = draw(st.integers(0, 3))
        if style == 0:
            cigar = [(n, "M")]
        elif style == 1 and n >= 3:
            a = draw(st.integers(1, n - 2))
            cigar = [(a, "S"), (n - a, "M")]
        elif style == 2 and n >= 4:
            a = draw(st.integers(1, n - 3))
            i = draw(st.integers(1, n - a - 2))
            cigar = [(a, "M"), (i, "I"), (n - a - i, "M")]
        elif n >= 2:
            a = draw(st.integers(1, n - 1))
            d = draw(st.integers(1, 5))
            cigar = [(a, "M"), (d, "D"), (n - a, "M")]
        else:
            cigar = [(n, "M")]
        rname = draw(st.sampled_from(["chr1", "chr2"]))
        pos = draw(st.integers(0, 100_000))
        mapq = draw(st.integers(0, 254))
        flag = draw(st.sampled_from([0, 16, 99, 147, 83, 163, 1024]))
    else:
        cigar = []
        rname, pos, mapq, flag = "*", UNMAPPED_POS, 0, 4
    mate_mapped = draw(st.booleans())
    if mapped and mate_mapped:
        rnext = draw(st.sampled_from(["=", "chr1", "chr2"]))
        pnext = draw(st.integers(0, 100_000))
    else:
        rnext, pnext = "*", UNMAPPED_POS
    qual = "*" if draw(st.booleans()) else "".join(
        chr(draw(st.integers(33, 126))) for _ in range(n))
    return AlignmentRecord(
        qname=draw(_qname), flag=flag, rname=rname, pos=pos, mapq=mapq,
        cigar=cigar, rnext=rnext, pnext=pnext,
        tlen=draw(st.integers(-(1 << 30), 1 << 30)), seq=seq, qual=qual,
        tags=draw(_tags))


def _norm(record: AlignmentRecord) -> AlignmentRecord:
    """BAM normalizes an explicit same-reference RNEXT to '='."""
    if record.rnext not in ("*", "=") and record.rnext == record.rname:
        import dataclasses
        return dataclasses.replace(record, rnext="=")
    return record


@given(records())
@settings(max_examples=120, deadline=None)
def test_sam_text_roundtrip(record):
    assert parse_alignment(format_alignment(record)) == record


@given(records())
@settings(max_examples=120, deadline=None)
def test_bam_binary_roundtrip(record):
    body = encode_record(record, HDR)
    assert decode_record(body[4:], HDR) == _norm(record)


@given(st.lists(records(), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_bamx_roundtrip(batch):
    layout = plan_layout(batch)
    for record in batch:
        decoded = layout.decode(layout.encode(record, HDR), HDR)
        assert decoded == _norm(record)


@given(st.lists(records(), min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_bamz_file_roundtrip(batch):
    from repro.formats.bamz import read_bamz, write_bamz
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/t.bamz"
        write_bamz(path, HDR, batch)
        _, decoded = read_bamz(path)
    assert decoded == [_norm(r) for r in batch]


@given(records())
@settings(max_examples=60, deadline=None)
def test_json_yaml_roundtrip(record):
    from repro.formats.json_fmt import dict_to_record, record_to_dict
    from repro.formats.yaml_fmt import format_record as yaml_format
    from repro.formats.yaml_fmt import load_all
    assert dict_to_record(record_to_dict(record)) == record
    (doc,) = load_all(yaml_format(record))
    assert dict_to_record(doc) == record


@given(records())
@settings(max_examples=60, deadline=None)
def test_all_codecs_agree(record):
    """SAM text and BAM binary round-trips commute."""
    via_text = parse_alignment(format_alignment(record))
    via_bam = decode_record(encode_record(record, HDR)[4:], HDR)
    assert _norm(via_text) == via_bam


@given(st.lists(records(), min_size=1, max_size=12), st.integers(1, 8))
@settings(max_examples=25, deadline=None)
def test_bam_preprocess_matches_record_path(batch, slab_records):
    """Random records -> BAM -> preprocess_bam writes the same bytes as
    the record path, for every store and slab size."""
    import pathlib

    from repro.formats.bam import write_bam
    from tests.test_transpose import STORES, reference, transposed
    with tempfile.TemporaryDirectory() as d:
        bam = f"{d}/r.bam"
        write_bam(bam, HDR, batch)
        for kind in STORES:
            pathlib.Path(f"{d}/ref").mkdir(exist_ok=True)
            pathlib.Path(f"{d}/new").mkdir(exist_ok=True)
            ref = reference(bam, f"{d}/ref/s.{kind}", kind, slab_records)
            new = transposed(bam, f"{d}/new/s.{kind}", kind, slab_records)
            for a, b in zip(ref, new):
                assert open(a, "rb").read() == open(b, "rb").read(), b


@given(st.lists(records(), min_size=1, max_size=12), st.integers(1, 8),
       st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_sam_preprocess_matches_record_path(batch, batch_size, nprocs):
    """Random records -> SAM -> PreprocSamConverter writes the same
    bytes as the record path, for every store, slab size and rank
    count."""
    import pathlib

    from repro.formats.sam import write_sam
    from tests.test_sam_transpose import STORES, reference, transposed
    with tempfile.TemporaryDirectory() as d:
        sam = f"{d}/r.sam"
        write_sam(sam, HDR, batch)
        for kind in STORES:
            pathlib.Path(f"{d}/ref-{kind}").mkdir()
            pathlib.Path(f"{d}/new-{kind}").mkdir()
            ref = reference(sam, f"{d}/ref-{kind}", kind, nprocs,
                            batch_size)
            new = transposed(sam, f"{d}/new-{kind}", kind, nprocs,
                             batch_size)
            assert len(ref) == len(new)
            for a, b in zip(ref, new):
                assert open(a, "rb").read() == open(b, "rb").read(), b
