"""Batched pipeline correctness: the chunk-level codecs and fastpaths in
:mod:`repro.formats.batch` must be byte-identical to the record-at-a-time
path for every converter, every registered target, and adversarial batch
sizes / chunk boundaries."""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BamConverter, PreprocSamConverter, SamConverter
from repro.core.filters import RecordFilter
from repro.core.targets import get_target, target_names
from repro.errors import ConversionError, FormatError
from repro.formats import batch as batch_codec
from repro.formats.bam import write_bam
from repro.formats.bamx import BamxReader, BamxWriter, plan_layout
from repro.formats.header import SamHeader
from repro.formats.sam import format_alignment, write_sam
from repro.runtime.buffers import BufferedTextWriter, RangeLineReader
from tests.test_properties_records import records as record_strategy

HDR = SamHeader.from_references([("chr1", 1 << 20), ("chr2", 1 << 18)])

#: Adversarial batch sizes: degenerate, tiny, prime, larger than any
#: test file.
BATCH_SIZES = (1, 2, 7, 100_000)


def _read_outputs(result):
    blobs = []
    for path in result.outputs:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return blobs


def _assert_pipelines_identical(make_converter, convert, nprocs=3):
    """Record vs batch outputs must match byte for byte."""
    record = convert(make_converter(pipeline="record"), "record")
    for batch_size in BATCH_SIZES:
        batched = convert(
            make_converter(pipeline="batch", batch_size=batch_size),
            f"batch{batch_size}")
        assert _read_outputs(batched) == _read_outputs(record), batch_size
        assert batched.records == record.records
        assert batched.emitted == record.emitted


@pytest.fixture(scope="module")
def sample_records():
    """A deterministic mix: mapped/unmapped, reverse strand, mates,
    secondary/supplementary flags, '*' quals, tags."""
    from repro.simdata import build_sam_dataset
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mix.sam")
        build_sam_dataset(path, 60,
                          chromosomes=[("chr1", 1 << 20),
                                       ("chr2", 1 << 18)],
                          seed=7)
        from repro.formats.sam import read_sam
        _, records = read_sam(path)
    return records


@pytest.fixture(scope="module")
def sam_path(sample_records, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("batchsam") / "in.sam")
    write_sam(path, HDR, sample_records)
    return path


@pytest.fixture(scope="module")
def bamx_store(sample_records, tmp_path_factory):
    d = tmp_path_factory.mktemp("batchbamx")
    bam = str(d / "in.bam")
    write_bam(bam, HDR, sample_records)
    bamx, _, _ = BamConverter().preprocess(bam, str(d / "work"))
    return bamx


@pytest.mark.parametrize("target", target_names())
def test_sam_converter_pipelines_identical(target, sam_path, tmp_path):
    def convert(converter, tag):
        return converter.convert(sam_path, target,
                                 str(tmp_path / f"{target}_{tag}"),
                                 nprocs=3)
    _assert_pipelines_identical(SamConverter, convert)


@pytest.mark.parametrize("target", target_names())
def test_bam_converter_pipelines_identical(target, bamx_store, tmp_path):
    def convert(converter, tag):
        return converter.convert(bamx_store, target,
                                 str(tmp_path / f"{target}_{tag}"),
                                 nprocs=3)
    _assert_pipelines_identical(BamConverter, convert)


@pytest.mark.parametrize("target", ("bed", "fastq", "sam"))
def test_samp_converter_pipelines_identical(target, sam_path, tmp_path):
    parts = {}
    for pipeline in ("record", "batch"):
        converter = PreprocSamConverter(pipeline=pipeline, batch_size=7)
        paths, _ = converter.preprocess(
            sam_path, str(tmp_path / f"pre_{pipeline}"), nprocs=2)
        parts[pipeline] = converter.convert(
            paths, target, str(tmp_path / f"{target}_{pipeline}"),
            nprocs=2)
    assert _read_outputs(parts["batch"]) == _read_outputs(parts["record"])


def test_sam_converter_filter_pipelines_identical(sam_path, tmp_path):
    flt = RecordFilter(min_mapq=10, primary_only=True, mapped_only=True)

    def convert(converter, tag):
        return converter.convert(sam_path, "bed",
                                 str(tmp_path / f"f_{tag}"), nprocs=2,
                                 record_filter=flt)
    _assert_pipelines_identical(SamConverter, convert)


def test_bam_region_filter_pipelines_identical(bamx_store, tmp_path):
    flt = RecordFilter(min_mapq=5)

    def convert(converter, tag):
        return converter.convert_region(
            bamx_store, None, "chr1:1000-200000", "bed",
            str(tmp_path / f"r_{tag}"), nprocs=2, mode="overlap",
            record_filter=flt)
    _assert_pipelines_identical(BamConverter, convert)


def test_records_straddling_chunk_boundaries(sam_path, tmp_path):
    """A tiny read chunk forces every record to straddle buffer reads."""
    def make(pipeline, batch_size=3):
        return SamConverter(read_chunk=7, batch_size=batch_size,
                            pipeline=pipeline)

    def convert(converter, tag):
        return converter.convert(sam_path, "sam",
                                 str(tmp_path / f"s_{tag}"), nprocs=2)
    record = convert(make("record"), "record")
    batched = convert(make("batch"), "batch")
    assert _read_outputs(batched) == _read_outputs(record)


@given(st.lists(record_strategy(), min_size=1, max_size=10),
       st.sampled_from(BATCH_SIZES),
       st.sampled_from(["sam", "bed", "fasta", "fastq", "bedgraph"]))
@settings(max_examples=25, deadline=None)
def test_fuzz_batch_equals_record(batch, batch_size, target):
    """Arbitrary generated record sets: batch == record, byte for byte."""
    with tempfile.TemporaryDirectory() as d:
        src = f"{d}/in.sam"
        write_sam(src, HDR, batch)
        outs = {}
        for pipeline in ("record", "batch"):
            result = SamConverter(
                pipeline=pipeline, batch_size=batch_size).convert(
                    src, target, f"{d}/{pipeline}", nprocs=2)
            outs[pipeline] = _read_outputs(result)
        assert outs["batch"] == outs["record"]


def test_invalid_pipeline_and_batch_size_rejected():
    with pytest.raises(ConversionError):
        SamConverter(pipeline="vectorized")
    with pytest.raises(ConversionError):
        SamConverter(batch_size=0)
    with pytest.raises(ConversionError):
        BamConverter(pipeline="")
    with pytest.raises(ConversionError):
        BamConverter(batch_size=-1)


# ---------------------------------------------------------------------------
# Unit-level codec checks


def test_convert_sam_lines_counts_fallbacks():
    """Non-canonical text falls back to the record path but still emits
    the canonical line.  A leading-zero FLAG is normalized by the
    fastpath itself (no fallback); a leading-zero CIGAR count is not
    provably canonical, so that line takes the record path."""
    fast = batch_codec.sam_fastpath_for(get_target("sam"))
    assert fast is not None
    out = []
    seen, emitted, fallbacks = batch_codec.convert_sam_lines(
        ["r1\t007\tchr1\t100\t30\t4M\t*\t0\t0\tACGT\t!!!!"],
        get_target("sam"), fast, None, out)
    assert (seen, emitted, fallbacks) == (1, 1, 0)
    assert out[0].startswith("r1\t7\t")
    out = []
    seen, emitted, fallbacks = batch_codec.convert_sam_lines(
        ["r1\t0\tchr1\t100\t30\t04M\t*\t0\t0\tACGT\t!!!!"],
        get_target("sam"), fast, None, out)
    assert (seen, emitted, fallbacks) == (1, 1, 1)
    assert "\t4M\t" in out[0]


def test_convert_sam_lines_skips_headers_and_blanks():
    lines = ["@HD\tVN:1.6", "",
             "r\t0\tchr1\t10\t3\t2M\t*\t0\t0\tAC\t!!"]
    out = []
    seen, emitted, _ = batch_codec.convert_sam_lines(
        lines, get_target("bed"), batch_codec.sam_fastpath_for(
            get_target("bed")), None, out)
    assert seen == 1 and emitted == 1 and len(out) == 1


def test_sam_fastpath_only_for_text_targets():
    assert batch_codec.sam_fastpath_for(get_target("bam")) is None
    assert batch_codec.sam_fastpath_for(get_target("bed")) is not None
    assert batch_codec.sam_fastpath_for(get_target("json")) is None


@given(st.lists(record_strategy(), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_parse_sam_lines_matches_per_line_parse(batch):
    lines = [format_alignment(r) for r in batch]
    assert batch_codec.parse_sam_lines(lines) == batch


@given(st.lists(record_strategy(), min_size=1, max_size=9),
       st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_bamx_write_batch_matches_per_record_writes(batch, split):
    with tempfile.TemporaryDirectory() as d:
        layout = plan_layout(batch)
        one, many = f"{d}/one.bamx", f"{d}/many.bamx"
        with BamxWriter(one, HDR, layout) as w:
            for r in batch:
                w.write(r)
        with BamxWriter(many, HDR, layout) as w:
            for off in range(0, len(batch), split):
                first = w.write_batch(batch[off:off + split])
                assert first == off
        with open(one, "rb") as a, open(many, "rb") as b:
            assert a.read() == b.read()


@given(st.lists(record_strategy(), min_size=1, max_size=9),
       st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_bamx_read_raw_batches_roundtrip(batch, batch_size):
    from tests.test_properties_records import _norm
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/t.bamx"
        with BamxWriter(path, HDR, plan_layout(batch)) as w:
            w.write_batch(batch)
        with BamxReader(path) as reader:
            rsize = reader.layout.record_size
            decoded = []
            for buf, count in reader.read_raw_batches(
                    0, len(batch), batch_size):
                decoded.extend(reader.layout.decode(buf, reader.header,
                                                    i * rsize)
                               for i in range(count))
    assert decoded == [_norm(r) for r in batch]


def test_matches_flag_mapq_agrees_with_matches(sample_records):
    flt = RecordFilter(min_mapq=20, exclude_flags=0x10,
                       primary_only=True, mapped_only=True)
    for record in sample_records:
        assert flt.matches(record) == \
            flt.matches_flag_mapq(record.flag, record.mapq)


# ---------------------------------------------------------------------------
# Buffer-layer batching


def test_iter_batches_matches_line_iteration(tmp_path):
    path = str(tmp_path / "t.txt")
    lines = [f"line-{i}" * (i % 5 + 1) for i in range(57)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    size = os.path.getsize(path)
    for batch_size in BATCH_SIZES:
        reader = RangeLineReader(path, 0, size, chunk_size=13)
        got = [line for chunk in reader.iter_batches(batch_size)
               for line in chunk]
        assert got == lines, batch_size
    reader = RangeLineReader(path, 0, size, chunk_size=13)
    assert list(reader) == lines


def test_iter_batches_rejects_nonpositive(tmp_path):
    from repro.errors import PartitionError
    path = str(tmp_path / "t.txt")
    with open(path, "w") as fh:
        fh.write("x\n")
    reader = RangeLineReader(path, 0, 2)
    with pytest.raises(PartitionError):
        next(reader.iter_batches(0))


def test_write_lines_identical_to_write_text(tmp_path):
    lines = [f"row {i}" for i in range(100)]
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    with BufferedTextWriter(a, chunk_size=64) as w:
        for line in lines:
            w.write_text(line + "\n")
    with BufferedTextWriter(b, chunk_size=64) as w:
        w.write_lines(lines[:33])
        w.write_lines(lines[33:34])
        w.write_lines(lines[34:])
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


# ---------------------------------------------------------------------------
# seq.py satellite: single error paths


def test_validate_seq_superset_check():
    from repro.formats.seq import validate_seq
    validate_seq("ACGTN")
    validate_seq("")
    with pytest.raises(FormatError, match="invalid nucleotide 'x'"):
        validate_seq("ACxGT")


def test_encode_qualities_single_error_path():
    from repro.formats.seq import encode_qualities
    assert encode_qualities([0, 41, 93]) == "!J~"
    with pytest.raises(FormatError):
        encode_qualities([10, 94])
    with pytest.raises(FormatError):
        encode_qualities([-1])
