"""Byte-identity and error-parity tests for BAM preprocessing.

``preprocess_bam`` transposes raw BAM records into columns without
decoding them.  The reference is the record path: ``read_bam`` records
written through the record writers and ``BaixIndex.build``.  Every
store, index and ``.bzi`` file must
match the reference byte for byte, and every input the reference
rejects must raise the reference's exception class and leave no
artifact behind.
"""

import os
import struct

import pytest

from repro.core.bam_converter import preprocess_bam
from repro.formats.baix import BaixIndex
from repro.formats.bam import read_bam, write_bam
from repro.formats.bamc import BamcWriter
from repro.formats.bamx import plan_layout, write_bamx
from repro.formats.bamz import BamzWriter
from repro.formats.bgzf import compress_bytes, decompress_bytes
from repro.formats.header import SamHeader

STORES = ("bamx", "bamz", "bamc")
HDR = SamHeader.from_references([("chr1", 100_000), ("chr2", 50_000)])


def _outputs(store_path: str, kind: str) -> list[str]:
    extra = [store_path + ".bzi"] if kind == "bamz" else []
    return [store_path, store_path + ".baix"] + extra


def reference(bam_path: str, store_path: str, kind: str,
              slab_records: int) -> list[str]:
    """The record path: decode every record, write it with the record
    writers, build the index from the records."""
    header, records = read_bam(bam_path)
    if kind == "bamx":
        write_bamx(store_path, header, records)
    elif kind == "bamz":
        with BamzWriter(store_path, header, plan_layout(records)) as w:
            w.write_all(records)
    else:
        with BamcWriter(store_path, header, plan_layout(records),
                        slab_records=slab_records) as w:
            w.write_all(records)
    BaixIndex.build(enumerate(records), header).save(store_path + ".baix")
    return _outputs(store_path, kind)


def transposed(bam_path: str, store_path: str, kind: str,
               slab_records: int) -> list[str]:
    """``preprocess_bam`` into *store_path*."""
    preprocess_bam(bam_path, store_path, compress=kind == "bamz",
                   batch_size=slab_records,
                   store_format="bamc" if kind == "bamc" else "bamx")
    return _outputs(store_path, kind)


def assert_identical(bam_path: str, tmp_path, kind: str,
                     slab_records: int) -> None:
    ref_dir, new_dir = tmp_path / f"ref-{kind}", tmp_path / f"new-{kind}"
    ref_dir.mkdir()
    new_dir.mkdir()
    ref = reference(bam_path, str(ref_dir / f"s.{kind}"), kind,
                    slab_records)
    new = transposed(bam_path, str(new_dir / f"s.{kind}"), kind,
                     slab_records)
    for a, b in zip(ref, new):
        assert open(a, "rb").read() == open(b, "rb").read(), \
            os.path.basename(b)
    assert sorted(os.listdir(new_dir)) == sorted(
        os.path.basename(p) for p in new)


# -- hand-built BAMs -----------------------------------------------------

def raw_record(name=b"r", ref_id=0, pos=100, mapq=30, cigar=(), flag=0,
               l_seq=None, seq=b"", qual=b"", next_ref=-1, next_pos=-1,
               tlen=0, tags=b"", l_read_name=None, block_size=None):
    """One BAM record, block_size included, from raw field values."""
    if l_seq is None:
        l_seq = len(qual)
    if l_read_name is None:
        l_read_name = len(name) + 1
        name += b"\x00"
    body = struct.pack("<iiBBHHHiiii", ref_id, pos, l_read_name, mapq,
                       4680, len(cigar), flag, l_seq, next_ref, next_pos,
                       tlen)
    body += name + struct.pack(f"<{len(cigar)}I", *cigar) + seq + qual \
        + tags
    size = len(body) if block_size is None else block_size
    return struct.pack("<i", size) + body


def M(n):
    return n << 4


def op(n, code):
    return (n << 4) | code


def bam_bytes(tmp_path, raws: list[bytes], header=HDR) -> bytes:
    """Uncompressed BAM stream: *header* then the raw records."""
    empty = tmp_path / "empty.bam"
    write_bam(empty, header, [])
    return decompress_bytes(empty.read_bytes()) + b"".join(raws)


def write_raw_bam(tmp_path, raws: list[bytes], name="hand.bam") -> str:
    path = tmp_path / name
    path.write_bytes(compress_bytes(bam_bytes(tmp_path, raws)))
    return str(path)


def tag(name: bytes, code: bytes, payload: bytes) -> bytes:
    return name + code + payload


#: Records that hit every normalization the record path applies.
NORMALIZING = [
    # Odd SEQ with a nonzero pad nybble.
    raw_record(b"odd", cigar=(M(3),), seq=b"\x12\x4f",
               qual=bytes([30, 31, 32])),
    # QUAL above 222, mixed with 0xFF; all-0xFF QUAL; all-high QUAL.
    raw_record(b"hiq", cigar=(M(4),), seq=b"\x12\x48",
               qual=bytes([10, 230, 255, 222])),
    raw_record(b"ffq", cigar=(M(2),), seq=b"\x12", qual=b"\xff\xff"),
    raw_record(b"sat", cigar=(M(2),), seq=b"\x18", qual=b"\xfe\xdf"),
    # l_seq 0 and n_cigar 0 on a placed record.
    raw_record(b"noseq", pos=77),
    # Negative positions and reference ids below -1.
    raw_record(b"neg", ref_id=-3, pos=-7, next_ref=-5, next_pos=-9,
               flag=4),
    # Unmapped records, with and without a placed mate.
    raw_record(b"unm", ref_id=-1, pos=-1, flag=4, seq=b"\x44",
               qual=b"\x14\x15"),
    raw_record(b"unm2", ref_id=0, pos=500, flag=4 | 1, next_ref=0,
               next_pos=500, seq=b"\x81", qual=b"\x14\x15"),
    # Integers in non-narrowest codes, one per record so each one alone
    # must be caught, and in their narrowest codes.
    *(raw_record(b"int" + code, cigar=(M(1),), seq=b"\x10", qual=b"\x05",
                 tags=tag(b"NM", b"c", b"\x01") + tag(b"XI", code, payload))
      for code, payload in (
          (b"C", b"\x03"), (b"s", struct.pack("<h", 100)),
          (b"s", struct.pack("<h", -128)), (b"S", struct.pack("<H", 7)),
          (b"i", struct.pack("<i", 5)), (b"i", struct.pack("<i", -40000)),
          (b"i", struct.pack("<i", 65535)), (b"I", struct.pack("<I", 9)))),
    raw_record(b"narrow", cigar=(M(1),), seq=b"\x10", qual=b"\x05",
               tags=tag(b"Xc", b"c", b"\xfb")
               + tag(b"XC", b"C", b"\xc8")
               + tag(b"Xs", b"s", struct.pack("<h", -200))
               + tag(b"XS", b"S", struct.pack("<H", 40000))
               + tag(b"XI", b"I", struct.pack("<I", 3_000_000_000))),
    # Lowercase H, B arrays, text, characters and floats.
    raw_record(b"hex", cigar=(M(1),), seq=b"\x20", qual=b"\x06",
               tags=tag(b"XH", b"H", b"1a2b\x00")),
    raw_record(b"arr", cigar=(M(1),), seq=b"\x40", qual=b"\x07",
               tags=tag(b"XB", b"B", b"c" + struct.pack("<i", 3)
                        + b"\x01\x02\xff")
               + tag(b"XF", b"B", b"f" + struct.pack("<if", 1, 0.5))),
    raw_record(b"text", cigar=(M(1),), seq=b"\x80", qual=b"\x08",
               tags=tag(b"RG", b"Z", b"grp1\x00") + tag(b"XA", b"A", b"q")
               + tag(b"XE", b"Z", b"\x00")
               + tag(b"XF", b"f", struct.pack("<f", 1.25))),
    # A signalling NaN loses its payload in the record path.
    raw_record(b"nan", cigar=(M(1),), seq=b"\x80", qual=b"\x08",
               tags=tag(b"XN", b"f", bytes.fromhex("0100807f"))),
    # Empty tag block; spans of D/N/S/H ops; mate on the same and the
    # other reference.
    raw_record(b"span", ref_id=1, pos=40, cigar=(
        op(2, 5), op(3, 4), M(5), op(4, 2), M(2), op(100, 3), M(1)),
               seq=b"\x11\x22\x44\x88\x11\x20", qual=bytes(range(11)),
               next_ref=1, next_pos=90, tlen=-60),
    raw_record(b"mate", ref_id=0, pos=40, cigar=(M(2),), seq=b"\x12",
               qual=b"\x01\x02", next_ref=1, next_pos=10, tlen=5),
    # A zero l_read_name reads as an empty name when the byte before it
    # (the top byte of tlen) is NUL.
    raw_record(b"", l_read_name=0, cigar=(M(1),), seq=b"\x10",
               qual=b"\x05"),
    # Duplicate start positions keep record-index order in the indexes.
    raw_record(b"dup1", pos=100, cigar=(M(2),), seq=b"\x12",
               qual=b"\x01\x02"),
    raw_record(b"dup2", pos=100, cigar=(M(2),), seq=b"\x12",
               qual=b"\x01\x02"),
]


@pytest.fixture(scope="module")
def simdata_bam(workload, tmp_path_factory):
    _, header, records = workload
    path = tmp_path_factory.mktemp("sim") / "sim.bam"
    write_bam(path, header, records)
    return str(path)


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("slab_records", [4096, 97])
def test_simdata_matches_record_path(simdata_bam, tmp_path, kind,
                                     slab_records):
    assert_identical(simdata_bam, tmp_path, kind, slab_records)


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("slab_records", [64, 5, 1])
def test_normalizing_records_match_record_path(tmp_path, kind,
                                               slab_records):
    bam = write_raw_bam(tmp_path, NORMALIZING)
    assert_identical(bam, tmp_path, kind, slab_records)


@pytest.mark.parametrize("kind", STORES)
def test_empty_bam_matches_record_path(tmp_path, kind):
    bam = write_raw_bam(tmp_path, [])
    assert_identical(bam, tmp_path, kind, 16)


def test_slab_boundary_mid_dataset(tmp_path):
    """Many records across BGZF blocks, a slab size that divides
    neither the records nor the blocks."""
    raws = [raw_record(b"r%05d" % i, ref_id=i % 2, pos=(i * 37) % 5000,
                       cigar=(M(30),), seq=bytes(range(15)),
                       qual=bytes([i % 90] * 30),
                       tags=tag(b"NM", b"C", bytes([i % 256]))
                       if i % 3 else b"")
            for i in range(3000)]
    bam = write_raw_bam(tmp_path, raws)
    for kind in STORES:
        assert_identical(bam, tmp_path, kind, 333)


# -- error parity --------------------------------------------------------

GOOD = [raw_record(b"g%d" % i, pos=10 * i, cigar=(M(2),), seq=b"\x12",
                   qual=b"\x01\x02") for i in range(20)]

#: Single bad records, placed mid-stream after GOOD[:10].
BAD_RECORDS = {
    "cigar_op_9": raw_record(b"c9", cigar=(op(3, 9),)),
    "cigar_op_len_0": raw_record(b"c0", cigar=(op(0, 0),)),
    "ref_id_out_of_range": raw_record(b"ref", ref_id=2),
    "next_ref_out_of_range": raw_record(b"nref", next_ref=7),
    "name_not_nul_terminated": raw_record(
        b"abc", l_read_name=3),
    "name_not_ascii": raw_record(b"\xe9t\xe9"),
    "empty_name_field": raw_record(b"", l_read_name=0, tlen=-1),
    "block_size_below_fixed": raw_record(b"x", block_size=20),
    "unknown_tag_code": raw_record(b"t", tags=b"XQq\x01"),
    "truncated_tag_value": raw_record(b"t", tags=b"XIi\x01\x00"),
    "unterminated_z_tag": raw_record(b"t", tags=b"XZZabc"),
    "non_ascii_z_tag": raw_record(b"t", tags=b"XZZ\xe9\x00"),
    "non_ascii_a_tag": raw_record(b"t", tags=b"XAA\xe9"),
    "bad_b_subtype": raw_record(b"t", tags=b"XBBq" + struct.pack("<i", 0)),
    "truncated_qual": raw_record(b"q", cigar=(M(4),), seq=b"\x12\x48",
                                 qual=b"\x01\x02", l_seq=4),
    "negative_l_seq": raw_record(b"n", l_seq=-3),
    "end_past_int32": raw_record(b"e", pos=(1 << 31) - 50,
                                 cigar=(M(100),)),
}


def _reference_error(bam: str, tmp_path, kind: str) -> type:
    out = tmp_path / "ref"
    out.mkdir(exist_ok=True)
    with pytest.raises(Exception) as exc:
        reference(bam, str(out / f"s.{kind}"), kind, 4)
    return exc.type


def _assert_same_error(bam: str, tmp_path, kind: str,
                       slab_records: int = 4) -> None:
    expected = _reference_error(bam, tmp_path, kind)
    work = tmp_path / "work"
    work.mkdir()
    with pytest.raises(Exception) as exc:
        transposed(bam, str(work / f"s.{kind}"), kind, slab_records)
    assert exc.type is expected, exc.value
    assert os.listdir(work) == []


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_record_raises_reference_error(tmp_path, kind, case):
    bam = write_raw_bam(tmp_path,
                        GOOD[:10] + [BAD_RECORDS[case]] + GOOD[10:])
    _assert_same_error(bam, tmp_path, kind)


@pytest.mark.parametrize("kind", STORES)
@pytest.mark.parametrize("cut", [1, 3, 9, 40])
def test_bam_truncated_mid_record(tmp_path, kind, cut):
    """The stream ends *cut* bytes into the last record (inside its
    block_size field for cut < 4)."""
    raw = bam_bytes(tmp_path, GOOD)
    stream = raw[:len(raw) - len(GOOD[-1]) + cut]
    bam = tmp_path / "cut.bam"
    bam.write_bytes(compress_bytes(stream))
    _assert_same_error(str(bam), tmp_path, kind)


@pytest.mark.parametrize("kind", STORES)
def test_bam_truncated_mid_bgzf_block(tmp_path, kind):
    raws = [raw_record(b"r%05d" % i, pos=i, cigar=(M(40),),
                       seq=bytes(range(20)), qual=bytes([30] * 40))
            for i in range(1500)]
    bam = tmp_path / "whole.bam"
    bam.write_bytes(compress_bytes(bam_bytes(tmp_path, raws)))
    data = bam.read_bytes()
    cut = tmp_path / "cut.bam"
    cut.write_bytes(data[:len(data) // 2])
    _assert_same_error(str(cut), tmp_path, kind, slab_records=256)


@pytest.mark.parametrize("kind", STORES)
def test_negative_block_size(tmp_path, kind):
    bam = write_raw_bam(tmp_path,
                        GOOD[:3] + [struct.pack("<i", -8)] + GOOD[3:])
    _assert_same_error(bam, tmp_path, kind)


@pytest.mark.parametrize("kind", STORES)
def test_tag_block_over_64k(tmp_path, kind):
    """BAMX rows hold the tag length in 16 bits; BAMC does not."""
    big = raw_record(b"big", tags=tag(b"XZ", b"Z", b"a" * 70_000 + b"\x00"))
    bam = write_raw_bam(tmp_path, GOOD + [big])
    if kind == "bamc":
        assert_identical(bam, tmp_path, kind, 8)
    else:
        _assert_same_error(bam, tmp_path, kind)


def test_bad_record_before_truncation_wins(tmp_path):
    """Errors surface in stream order: a bad record before a truncated
    tail raises the record's error, as the record path does."""
    raw = bam_bytes(tmp_path, GOOD[:5] + [BAD_RECORDS["cigar_op_9"]]
                    + GOOD[5:])
    bam = tmp_path / "both.bam"
    bam.write_bytes(compress_bytes(raw[:-7]))
    _assert_same_error(str(bam), tmp_path, "bamx", slab_records=4096)


def test_failed_run_keeps_earlier_artifacts_intact(tmp_path, simdata_bam):
    """A failing run leaves the previous run's complete set alone."""
    store = str(tmp_path / "s.bamx")
    preprocess_bam(simdata_bam, store)
    before = {p: open(p, "rb").read() for p in _outputs(store, "bamx")}
    bad = write_raw_bam(tmp_path, GOOD + [BAD_RECORDS["cigar_op_9"]])
    with pytest.raises(Exception):
        preprocess_bam(bad, store)
    assert {p: open(p, "rb").read() for p in before} == before
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["empty.bam", "hand.bam"] + [os.path.basename(p) for p in before])
