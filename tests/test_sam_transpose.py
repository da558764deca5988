"""Byte-identity and error-parity tests for SAM preprocessing.

``PreprocSamConverter.preprocess`` transposes each rank's SAM text into
columns without building records.  The reference is the record path,
rank by rank: ``parse_alignment`` on every line, ``plan_layout``, the
store writer's ``write_batch`` in batches, and ``BaixIndex.build``.
Every store and index must match the reference byte for byte, and
every input the reference rejects must raise the reference's exception
(class and message) and leave no artifact behind.
"""

import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samp_converter import PreprocSamConverter
from repro.core.sam_converter import partition_alignments, scan_header
from repro.formats.baix import BaixIndex
from repro.formats.bamc import BamcWriter
from repro.formats.bamx import BamxWriter, plan_layout
from repro.formats.sam import parse_alignment, write_sam
from repro.runtime.buffers import RangeLineReader

STORES = ("bamx", "bamc")
HEADER = "@HD\tVN:1.6\n@SQ\tSN:chr1\tLN:100000\n@SQ\tSN:chr2\tLN:50000\n"


def reference(sam_path, out_dir, kind, nprocs, batch_size) -> list[str]:
    """The record path, per Algorithm-1 rank."""
    header, header_end = scan_header(sam_path)
    paths = []
    for part in partition_alignments(sam_path, nprocs, header_end):
        reader = RangeLineReader(sam_path, part.start, part.end)
        records = [parse_alignment(line)
                   for lines in reader.iter_batches(batch_size)
                   for line in lines if line and line[0] != "@"]
        store = os.path.join(out_dir, f"r.part{part.rank:04d}.{kind}")
        layout = plan_layout(records)
        writer = BamcWriter(store, header, layout, slab_records=batch_size) \
            if kind == "bamc" else BamxWriter(store, header, layout)
        with writer:
            for off in range(0, len(records), batch_size):
                writer.write_batch(records[off:off + batch_size])
        BaixIndex.build(enumerate(records), header).save(store + ".baix")
        paths += [store, store + ".baix"]
    return paths


def transposed(sam_path, out_dir, kind, nprocs, batch_size,
               shards=1) -> list[str]:
    """``PreprocSamConverter.preprocess`` into *out_dir*."""
    stores, _ = PreprocSamConverter(
        batch_size=batch_size, shards_per_rank=shards,
        store_format=kind).preprocess(sam_path, out_dir, nprocs)
    return [path for store in stores for path in (store, store + ".baix")]


def assert_identical(sam_path, tmp_path, kind, nprocs=1, batch_size=4,
                     shards=1) -> None:
    ref_dir, new_dir = tmp_path / f"ref-{kind}", tmp_path / f"new-{kind}"
    ref_dir.mkdir()
    new_dir.mkdir()
    ref = reference(sam_path, ref_dir, kind, nprocs, batch_size)
    new = transposed(sam_path, new_dir, kind, nprocs, batch_size, shards)
    assert len(ref) == len(new)
    for a, b in zip(ref, new):
        assert open(a, "rb").read() == open(b, "rb").read(), \
            os.path.basename(b)
    assert sorted(os.listdir(new_dir)) == sorted(
        os.path.basename(p) for p in new)


def write_lines(tmp_path, lines, name="hand.sam") -> str:
    path = tmp_path / name
    path.write_text(HEADER + "".join(line + "\n" for line in lines))
    return str(path)


def line(name="r", flag="0", rname="chr1", pos="100", mapq="30",
         cigar="4M", rnext="*", pnext="0", tlen="0", seq="ACGT",
         qual="IIII", tags=()) -> str:
    return "\t".join([name, flag, rname, pos, mapq, cigar, rnext, pnext,
                      tlen, seq, qual, *tags])


# -- byte identity -------------------------------------------------------

@pytest.fixture(scope="module")
def simdata_sam(workload, tmp_path_factory):
    _, header, records = workload
    path = tmp_path_factory.mktemp("sim") / "sim.sam"
    write_sam(path, header, records)
    return str(path)


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("nprocs", [1, 3])
@pytest.mark.parametrize("shards", [1, 2])
def test_simdata_matches_record_path(simdata_sam, tmp_path, kind, nprocs,
                                     shards):
    # 37-record slabs: boundaries fall mid-rank and mid-shard.
    assert_identical(simdata_sam, tmp_path, kind, nprocs, 37, shards)


#: Lines that hit every column rule; the ones the column parser flags
#: are marked, and must still come out as the record path writes them.
EVERY_RULE = [
    line("widths", tags=("Xc:i:-5", "XC:i:200", "Xs:i:-200", "XS:i:40000",
                         "Xi:i:-40000", "XI:i:3000000000", "Xz:i:0")),
    line("others", tags=("XF:f:1.5", "XH:H:1a2B", "XB:B:c,1,-2",
                         "Xb:B:f,0.5,1", "XA:A:q", "RG:Z:grp 1",
                         "XE:Z:")),
    line("lower", seq="acgtnRYKM=wsbdhv", qual="ABCDEFGHIJKLMNOP",
         cigar="16M"),
    line("odd", seq="ACGTA", qual="!!~~5", cigar="2S3M"),
    line("noseq", seq="*", qual="*", cigar="*"),
    line("seqstar_qual", seq="*", qual="IIII"),
    line("qualstar", seq="ACG", qual="*", cigar="3M"),
    line("mate_eq", flag="99", rnext="=", pnext="300", tlen="250"),
    line("mate_named", flag="97", rnext="chr2", pnext="40", tlen="-250"),
    line("mate_star", flag="73", rnext="*", pnext="0"),
    line("pos0", pos="0", cigar="*"),
    line("unplaced", flag="4", rname="*", pos="0", mapq="0", cigar="*"),
    line("unplaced_pos", flag="4", rname="*", pos="77", cigar="*"),
    line("span", rname="chr2", pos="40",
         cigar="2H3S5M4D2M100N1M1I1P1=1X", seq="ACGTACGTACGTAC",
         qual="IIIIIIIIIIIIII"),
    line("neg_pos", pos="-3", pnext="-9"),
    line("zeros", flag="0016", pos="007", mapq="00", cigar="04M"),
    line("big", flag="65535", mapq="255", pos="2147483548",
         tlen="-2147483648", pnext="2147483648"),
    line("", tags=("NM:i:1",)),
    # Flagged, valid for the record path.
    line("plus", flag="+16", pos=" 5", mapq="1_0"),
    line("long_op", cigar="0000000004M"),
    line("cr", tags=("NM:i:2\r",)),
    line("dup1", pos="100"),
    line("dup2", pos="100"),
]


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("batch_size", [1, 5, 4096])
def test_every_rule_matches_record_path(tmp_path, kind, batch_size):
    sam = write_lines(tmp_path, EVERY_RULE + ["", "@CO\tmid-stream"]
                      + EVERY_RULE[::-1])
    assert_identical(sam, tmp_path, kind, 1, batch_size)


def test_tag_memo_bound_keeps_bytes(tmp_path, monkeypatch):
    """A memo cleared every few entries still encodes every block."""
    from repro.formats import sam_transpose
    monkeypatch.setattr(sam_transpose, "_MEMO_LIMIT", 3)
    sam = write_lines(tmp_path, EVERY_RULE * 3)
    assert_identical(sam, tmp_path, "bamc", 1, 7)


@pytest.mark.parametrize("kind", STORES)
def test_empty_and_header_only(tmp_path, kind):
    sam = write_lines(tmp_path, [])
    assert_identical(sam, tmp_path, kind, 2)


# -- error parity --------------------------------------------------------

GOOD = [line(f"g{i}", pos=str(10 * i + 1)) for i in range(12)]

#: Single bad lines, placed mid-stream after GOOD[:6].
BAD_LINES = {
    "short_line": "r\t0\tchr1\t100\t30\t4M\t*\t0\t0\tACGT",
    "non_integer_flag": line(flag="x1"),
    "zero_length_op": line(cigar="0M"),
    "unknown_reference": line(rname="chrX"),
    "unknown_mate_reference": line(rnext="chrY"),
    "bad_base": line(seq="ACXT"),
    "qual_seq_mismatch": line(qual="III"),
    "empty_tag_column": line(tags=("",)),
    "empty_middle_tag": line(tags=("NM:i:0", "", "AS:i:1")),
    "rname_equals": line(rname="="),
    "bad_tag": line(tags=("NM:i:one",)),
    "int_tag_beyond_32_bits": line(tags=("XX:i:4294967296",)),
    "flag_beyond_16_bits": line(flag="70000"),
    "mapq_negative": line(mapq="-1"),
    "pos_beyond_32_bits": line(pos="99999999999999999999"),
    "end_beyond_32_bits": line(pos="2147483640", cigar="20M", seq="*",
                               qual="*"),
    "name_over_254_bytes": line(name="n" * 255),
}


def _error(fn) -> tuple[type, str]:
    with pytest.raises(Exception) as exc:
        fn()
    return exc.type, str(exc.value)


def _assert_same_error(sam, tmp_path, kind, nprocs=1, batch_size=4,
                       shards=1) -> None:
    ref_dir, work = tmp_path / "ref", tmp_path / "work"
    ref_dir.mkdir()
    work.mkdir()
    expected = _error(lambda: reference(sam, ref_dir, kind, nprocs,
                                        batch_size))
    got = _error(lambda: transposed(sam, work, kind, nprocs, batch_size,
                                    shards))
    assert got == expected
    assert os.listdir(work) == []


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_bad_line_raises_reference_error(tmp_path, kind, case):
    sam = write_lines(tmp_path, GOOD[:6] + [BAD_LINES[case]] + GOOD[6:])
    _assert_same_error(sam, tmp_path, kind)


#: Pairs of bad lines in stream order, and which one the record path
#: reports: parse errors first, then tag-codec errors, then the read
#: name limit, then write errors in stream order.
PRECEDENCE = {
    "parse_then_parse": ("short_line", "non_integer_flag"),
    "parse_after_parse": ("zero_length_op", "short_line"),
    "write_then_parse": ("bad_base", "non_integer_flag"),
    "write_then_write": ("unknown_reference", "bad_base"),
    "write_after_write": ("qual_seq_mismatch", "unknown_reference"),
    "write_then_tag": ("bad_base", "int_tag_beyond_32_bits"),
    "write_then_name": ("unknown_reference", "name_over_254_bytes"),
    "range_then_base": ("flag_beyond_16_bits", "bad_base"),
    "end_then_base": ("end_beyond_32_bits", "bad_base"),
}


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("batch_size", [4, 4096])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("case", sorted(PRECEDENCE))
def test_error_precedence_matches_record_path(tmp_path, kind, batch_size,
                                              shards, case):
    first, second = PRECEDENCE[case]
    sam = write_lines(tmp_path, GOOD[:2] + [BAD_LINES[first]] + GOOD[2:9]
                      + [BAD_LINES[second]] + GOOD[9:])
    _assert_same_error(sam, tmp_path, kind, 1, batch_size, shards)


@pytest.mark.parametrize("kind", STORES)
def test_cigar_over_64k_ops(tmp_path, kind):
    """BAMX rows hold the CIGAR op count in 16 bits; BAMC does not."""
    sam = write_lines(tmp_path, GOOD + [line(cigar="1D" * 70_000)])
    if kind == "bamc":
        assert_identical(sam, tmp_path, kind)
        return
    (tmp_path / "ref").mkdir()
    (tmp_path / "work").mkdir()
    with pytest.raises(Exception) as expected:
        reference(sam, tmp_path / "ref", kind, 1, 4)
    with pytest.raises(expected.type):
        transposed(sam, tmp_path / "work", kind, 1, 4)
    assert os.listdir(tmp_path / "work") == []


@pytest.mark.parametrize("kind", STORES)
def test_errors_across_ranks(tmp_path, kind):
    sam = write_lines(tmp_path, GOOD + [BAD_LINES["bad_base"]] + GOOD
                      + [BAD_LINES["short_line"]] + GOOD)
    _assert_same_error(sam, tmp_path, kind, nprocs=3)


# -- artifacts of a failed run -------------------------------------------

@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("executor", ["simulate", "process"])
def test_failed_preprocess_leaves_no_artifacts(simdata_sam, tmp_path,
                                               kind, executor):
    """Rank 1 fails on a SAM cut mid-QUAL; rank 0's complete pair and
    every temporary file are removed, unrelated files stay."""
    data = open(simdata_sam, "rb").read().rstrip(b"\n")
    line_start = data.rindex(b"\n") + 1
    fields = data[line_start:].split(b"\t")
    cut = tmp_path / "trunc.sam"
    cut.write_bytes(data[:line_start + sum(len(f) + 1 for f in fields[:10])
                         + 35])
    work = tmp_path / "work"
    work.mkdir()
    (work / "notes.txt").write_text("keep")
    (work / "other.bamc").write_bytes(b"earlier run")
    with pytest.raises(Exception, match="QUAL length 35"):
        PreprocSamConverter(store_format=kind).preprocess(
            cut, work, nprocs=2, executor=executor)
    assert sorted(os.listdir(work)) == ["notes.txt", "other.bamc"]
    assert (work / "other.bamc").read_bytes() == b"earlier run"


# -- differential fuzzing ------------------------------------------------

_MUTATION_CHARS = "0123456789AaCGTNn=*-+ :,\t\rMIDSHX.Zifc@\x00"


@st.composite
def mutated_sam(draw):
    """A few lines of EVERY_RULE/GOOD/BAD_LINES, some with characters
    replaced, inserted or deleted."""
    pool = EVERY_RULE + GOOD + list(BAD_LINES.values())
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        chars = list(draw(st.sampled_from(pool)))
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(chars)))
            edit = draw(st.sampled_from(["replace", "insert", "delete"]))
            if edit == "insert" or not chars:
                chars.insert(at, draw(st.sampled_from(_MUTATION_CHARS)))
            elif edit == "replace":
                chars[min(at, len(chars) - 1)] = draw(
                    st.sampled_from(_MUTATION_CHARS))
            else:
                del chars[min(at, len(chars) - 1)]
        lines.append("".join(chars))
    return lines


def _outcome(fn):
    try:
        return [open(path, "rb").read() for path in fn()]
    except Exception as exc:
        return type(exc), str(exc)


@given(mutated_sam(), st.sampled_from(STORES), st.sampled_from([1, 3, 4096]),
       st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_mutated_lines_match_record_path(lines, kind, batch_size, shards):
    """Any mix of valid, flagged and bad lines gives the record path's
    bytes or its error, and a failed run leaves nothing behind."""
    with tempfile.TemporaryDirectory() as d:
        root = pathlib.Path(d)
        sam = write_lines(root, lines)
        (root / "ref").mkdir()
        (root / "new").mkdir()
        expected = _outcome(lambda: reference(sam, root / "ref", kind, 1,
                                              batch_size))
        got = _outcome(lambda: transposed(sam, root / "new", kind, 1,
                                          batch_size, shards))
        assert got == expected
        if isinstance(got, tuple):
            assert os.listdir(root / "new") == []
