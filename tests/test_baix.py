"""Unit tests for the BAIX index: sorted (ref, start, end) -> record
indices, answering start and overlap queries."""

import os
import struct

import numpy as np
import pytest

from repro.errors import ConversionError, IndexError_
from repro.formats.baix import MAGIC, MAGIC_V1, BaixIndex, \
    default_index_path
from repro.formats.bamx import BamxReader, write_bamx
from repro.formats.header import SamHeader
from repro.formats.record import AlignmentRecord

HDR = SamHeader.from_references([("chr1", 100_000), ("chr2", 50_000)])


def rec(pos, span, chrom="chr1"):
    return AlignmentRecord("r", 0, chrom, pos, 60, [(span, "M")], "*",
                           -1, 0, "A" * span, "I" * span)


def write_v1(path, idx):
    """*idx* in the v1 layout: the current columns without the ends."""
    with open(path, "wb") as fh:
        fh.write(MAGIC_V1 + struct.pack("<Q", len(idx)))
        fh.write(idx.ref_ids.astype("<i4").tobytes())
        fh.write(idx.positions.astype("<i4").tobytes())
        fh.write(idx.indices.astype("<i8").tobytes())


def brute_force(records, chrom, start, end):
    return sorted(
        i for i, r in enumerate(records)
        if r.rname == chrom and r.is_mapped and r.pos < end
        and r.end > start)


@pytest.fixture(scope="module")
def index(workload):
    _, header, records = workload
    return BaixIndex.build(enumerate(records), header), header, records


def test_excludes_unplaced_records(index):
    idx, header, records = index
    placed = sum(1 for r in records if r.rname != "*" and r.pos >= 0)
    assert len(idx) == placed


def test_entries_sorted_by_coordinate(index):
    idx, _, _ = index
    keys = list(zip(idx.ref_ids.tolist(), idx.positions.tolist()))
    assert keys == sorted(keys)


def test_locate_matches_linear_scan(index):
    idx, header, records = index
    for chrom, beg, end in [("chr1", 0, 60_000), ("chr1", 5_000, 9_000),
                            ("chr2", 100, 200), ("chr2", 0, 50_000)]:
        ref_id = header.ref_id(chrom)
        lo, hi = idx.locate(ref_id, beg, end)
        got = sorted(idx.record_indices(lo, hi).tolist())
        expected = sorted(
            i for i, r in enumerate(records)
            if r.rname == chrom and beg <= r.pos < end)
        assert got == expected, (chrom, beg, end)


def test_locate_empty_region(index):
    idx, _, _ = index
    lo, hi = idx.locate(0, 0, 0)
    assert lo == hi


def test_locate_rejects_invalid(index):
    idx, _, _ = index
    with pytest.raises(IndexError_):
        idx.locate(0, -1, 10)
    with pytest.raises(IndexError_):
        idx.locate(0, 10, 5)


def test_record_indices_bounds(index):
    idx, _, _ = index
    with pytest.raises(IndexError_):
        idx.record_indices(0, len(idx) + 1)


def test_ref_span(index):
    idx, header, records = index
    lo, hi = idx.ref_span(header.ref_id("chr1"))
    chr1_count = sum(1 for r in records if r.rname == "chr1" and r.pos >= 0)
    assert hi - lo == chr1_count


def test_save_load_roundtrip(index, tmp_path):
    idx, _, _ = index
    path = tmp_path / "t.baix"
    idx.save(path)
    assert path.read_bytes().startswith(MAGIC)
    loaded = BaixIndex.load(path)
    assert np.array_equal(loaded.ref_ids, idx.ref_ids)
    assert np.array_equal(loaded.positions, idx.positions)
    assert np.array_equal(loaded.ends, idx.ends)
    assert np.array_equal(loaded.indices, idx.indices)
    got = loaded.locate_overlaps(0, 1_000, 2_000)
    assert np.array_equal(got, idx.locate_overlaps(0, 1_000, 2_000))


def test_v1_file_answers_start_queries_only(index, tmp_path):
    idx, header, _ = index
    v1_path, v2_path = tmp_path / "t1.baix", tmp_path / "t2.baix"
    write_v1(v1_path, idx)
    idx.save(v2_path)
    v1, v2 = BaixIndex.load(v1_path), BaixIndex.load(v2_path)
    assert v1.ends is None
    for chrom, beg, end in [("chr1", 0, 60_000), ("chr1", 5_000, 9_000),
                            ("chr2", 100, 200)]:
        ref_id = header.ref_id(chrom)
        assert v1.locate(ref_id, beg, end) == v2.locate(ref_id, beg, end)
        assert np.array_equal(v1.select(ref_id, beg, end),
                              v2.select(ref_id, beg, end))
    with pytest.raises(IndexError_, match="t1.baix"):
        v1.locate_overlaps(0, 1_000, 2_000)
    with pytest.raises(IndexError_):
        v1.save(tmp_path / "again.baix")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.baix"
    path.write_bytes(b"garbage")
    with pytest.raises(IndexError_):
        BaixIndex.load(path)


@pytest.mark.parametrize("version", ["v1", "v2"])
@pytest.mark.parametrize("cut", [1, 16, 1_000])
def test_load_rejects_truncated_file(index, tmp_path, version, cut):
    idx, _, _ = index
    path = tmp_path / "t.baix"
    if version == "v1":
        write_v1(path, idx)
    else:
        idx.save(path)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(IndexError_, match="truncated"):
        BaixIndex.load(path)


def test_invalid_construction():
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0]), np.array([10]), np.array([0]),
                  ends=np.array([5]))  # end < start
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0]), np.array([10]), np.array([0]),
                  ends=np.array([20, 30]))  # ends length mismatch


def test_unsorted_construction_rejected():
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0, 0]), np.array([10, 5]), np.array([0, 1]))


def test_column_length_mismatch_rejected():
    with pytest.raises(IndexError_):
        BaixIndex(np.array([0]), np.array([1, 2]), np.array([0, 1]))


def test_from_bamx(tmp_path, workload):
    _, header, records = workload
    path = tmp_path / "t.bamx"
    write_bamx(path, header, records)
    with BamxReader(path) as reader:
        idx = BaixIndex.from_bamx(reader)
        lo, hi = idx.locate(header.ref_id("chr1"), 1_000, 2_000)
        for record_index in idx.record_indices(lo, hi):
            rec = reader[int(record_index)]
            assert rec.rname == "chr1" and 1_000 <= rec.pos < 2_000


def test_default_index_path():
    assert default_index_path("/a/b.bamx") == "/a/b.bamx.baix"


def test_index_order_mirrors_fig4():
    """Fig. 4: positions ascending while record indices may be permuted."""
    from repro.formats.record import AlignmentRecord
    records = [
        AlignmentRecord("r0", 0, "chr1", 500, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
        AlignmentRecord("r1", 0, "chr1", 100, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
        AlignmentRecord("r2", 0, "chr1", 300, 60, [(4, "M")], "*", -1, 0,
                        "ACGT", "IIII"),
    ]
    idx = BaixIndex.build(enumerate(records), HDR)
    assert idx.positions.tolist() == [100, 300, 500]
    assert idx.indices.tolist() == [1, 2, 0]


# -- overlap queries ---------------------------------------------------


def test_overlap_matches_brute_force(index):
    idx, header, records = index
    for chrom, start, end in [("chr1", 0, 60_000), ("chr1", 5_000, 5_050),
                              ("chr1", 10_000, 20_000),
                              ("chr2", 0, 40_000), ("chr2", 100, 101)]:
        got = sorted(idx.locate_overlaps(header.ref_id(chrom), start,
                                         end).tolist())
        assert got == brute_force(records, chrom, start, end), \
            (chrom, start, end)


def test_overlap_superset_of_start_query(index):
    idx, header, _ = index
    ref_id = header.ref_id("chr1")
    start_hits = set(idx.select(ref_id, 10_000, 20_000).tolist())
    overlap_hits = set(idx.select(ref_id, 10_000, 20_000,
                                  "overlap").tolist())
    assert start_hits <= overlap_hits


def test_spanning_record_found():
    """A long record starting before the query region is still found."""
    records = [rec(100, 500), rec(2_000, 50)]
    idx = BaixIndex.build(enumerate(records), HDR)
    assert idx.locate_overlaps(0, 300, 350).tolist() == [0]
    # And a start-within query misses it, by design.
    lo, hi = idx.locate(0, 300, 350)
    assert hi - lo == 0


def test_empty_region_and_empty_reference():
    idx = BaixIndex.build(enumerate([rec(10, 5)]), HDR)
    assert idx.locate_overlaps(0, 50, 50).tolist() == []
    assert idx.locate_overlaps(1, 0, 50_000).tolist() == []  # chr2 empty


def test_adjacent_intervals_do_not_overlap():
    idx = BaixIndex.build(enumerate([rec(10, 5)]), HDR)  # covers [10, 15)
    assert idx.locate_overlaps(0, 15, 20).tolist() == []
    assert idx.locate_overlaps(0, 5, 10).tolist() == []
    assert idx.locate_overlaps(0, 14, 15).tolist() == [0]


def test_invalid_region(index):
    idx, _, _ = index
    with pytest.raises(IndexError_):
        idx.locate_overlaps(0, -1, 10)
    with pytest.raises(IndexError_):
        idx.locate_overlaps(0, 10, 5)
    with pytest.raises(IndexError_):
        idx.select(0, 0, 10, "nearest")


# -- the index preprocessing writes --------------------------------------


def test_preprocessing_writes_one_index(bam_file, tmp_path):
    from repro.core import BamConverter
    bamx, baix, _ = BamConverter().preprocess(bam_file, tmp_path / "w")
    assert baix == default_index_path(bamx)
    assert sorted(os.listdir(tmp_path / "w")) == sorted(
        os.path.basename(p) for p in (bamx, baix))
    assert open(baix, "rb").read(len(MAGIC)) == MAGIC


def test_overlap_mode_partial_conversion(bam_file, workload, tmp_path):
    from repro.core import BamConverter
    _, _, records = workload
    converter = BamConverter()
    bamx, _, _ = converter.preprocess(bam_file, tmp_path / "w")
    result = converter.convert_region(bamx, None, "chr1:5001-5100",
                                      "sam", tmp_path / "o", nprocs=2,
                                      mode="overlap")
    assert result.records == len(brute_force(records, "chr1", 5_000,
                                             5_100))


def test_unknown_mode_rejected(bam_file, tmp_path):
    from repro.core import BamConverter
    converter = BamConverter()
    bamx, baix, _ = converter.preprocess(bam_file, tmp_path / "w")
    with pytest.raises(ConversionError):
        converter.convert_region(bamx, baix, "chr1:1-100", "sam",
                                 tmp_path / "o", mode="nearest")


def test_legacy_baix2_path_answers_both_modes(bam_file, tmp_path):
    """A work dir from before the one-index change holds a v1 ``.baix``
    beside a ``.baix2``: start mode converts with the default index,
    both modes convert when the ``.baix2`` is named, and overlap on the
    v1 index fails with a structured error and a nonzero CLI exit."""
    from repro.cli import main
    from repro.core import BamConverter
    converter = BamConverter()
    bamx, baix, _ = converter.preprocess(bam_file, tmp_path / "new")
    legacy = str(tmp_path / "legacy" / os.path.basename(bamx))
    os.makedirs(os.path.dirname(legacy))
    os.link(bamx, legacy)
    os.link(baix, legacy + ".baix2")
    write_v1(legacy + ".baix", BaixIndex.load(baix))

    def parts(store, index, mode, name):
        result = converter.convert_region(store, index, "chr1:1-30000",
                                          "bed", tmp_path / name, nprocs=2,
                                          mode=mode)
        return [open(p, "rb").read() for p in result.outputs]

    for mode in ("start", "overlap"):
        expected = parts(bamx, None, mode, f"new-{mode}")
        assert parts(legacy, legacy + ".baix2", mode,
                     f"legacy-{mode}") == expected
    assert parts(legacy, None, "start", "v1-start") == \
        parts(bamx, None, "start", "new-start")
    with pytest.raises(IndexError_, match="v1"):
        parts(legacy, None, "overlap", "v1-overlap")
    assert main(["region", legacy, "--region", "chr1:1-30000",
                 "--target", "bed", "--out-dir", str(tmp_path / "cli"),
                 "--mode", "overlap"]) != 0
