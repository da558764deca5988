"""Tests for ``.baix2`` files: the overlap index files written before
the one-index change, whose layout the current ``.baix`` v2 shares."""

import struct

import numpy as np

from repro.formats.baix import MAGIC, BaixIndex


def write_baix2(path, idx):
    """*idx* in the ``.baix2`` layout: magic, count, then the ref id,
    start, end and record index columns."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<Q", len(idx)))
        fh.write(idx.ref_ids.astype("<i4").tobytes())
        fh.write(idx.positions.astype("<i4").tobytes())
        fh.write(idx.ends.astype("<i4").tobytes())
        fh.write(idx.indices.astype("<i8").tobytes())


def test_save_load_roundtrip(workload, tmp_path):
    _, header, records = workload
    idx = BaixIndex.build(enumerate(records), header)
    legacy, current = tmp_path / "t.baix2", tmp_path / "t.baix"
    write_baix2(legacy, idx)
    loaded = BaixIndex.load(legacy)
    assert np.array_equal(loaded.ref_ids, idx.ref_ids)
    assert np.array_equal(loaded.positions, idx.positions)
    assert np.array_equal(loaded.ends, idx.ends)
    assert np.array_equal(loaded.indices, idx.indices)
    got = loaded.locate_overlaps(0, 1_000, 2_000)
    assert np.array_equal(got, idx.locate_overlaps(0, 1_000, 2_000))
    loaded.save(current)
    assert current.read_bytes() == legacy.read_bytes()
