"""Record-store opener: BAMX, BAMZ and BAMC behind one interface.

All readers expose ``len``, ``[i]``, ``read_range``, iteration,
``.header``, ``.layout`` and the columnar ``read_column_batches`` /
``read_column_picks`` the vectorized kernels run on; converters call
:func:`open_record_store` and never care which physical format backs
the store.
"""

from __future__ import annotations

import os
from typing import Union

from ..errors import BamxFormatError
from . import bamc as _bamc
from . import bamx as _bamx
from .bamc import BamcReader
from .bamx import BamxReader
from .bamz import BamzReader

RecordStore = Union[BamxReader, BamzReader, BamcReader]

#: Record-store formats a converter can write.
STORE_FORMATS = ("bamx", "bamc")

#: File extensions of the record stores (BAMX, BAMZ, BAMC).
STORE_EXTENSIONS = (".bamx", ".bamz", ".bamc")


def open_record_store(path: str | os.PathLike[str]) -> RecordStore:
    """Open a BAMX, BAMC or BAMZ file, dispatching on its magic bytes."""
    with open(path, "rb") as fh:
        head = fh.read(len(_bamx.MAGIC))
    if head == _bamx.MAGIC:
        return BamxReader(path)
    if head == _bamc.MAGIC:
        return BamcReader(path)
    # BAMZ files are BGZF streams; their magic is inside the first
    # block, so sniff by extension/BGZF framing instead.
    from .bgzf import is_bgzf
    if is_bgzf(path):
        return BamzReader(path)
    raise BamxFormatError(
        "not a BAMX, BAMC or BAMZ file", source=os.fspath(path))


def check_store_format(store_format: str, compress: bool = False,
                       error: type[Exception] = BamxFormatError) -> None:
    """Raise *error* unless *store_format* is writable with *compress*."""
    if store_format not in STORE_FORMATS:
        raise error(
            f"unknown store format {store_format!r}; choose one of "
            f"{STORE_FORMATS}")
    if store_format == "bamc" and compress:
        raise error(
            "BAMC does not support BGZF compression; use "
            "store_format='bamx' with compress=True for BAMZ")


def store_extension(compress: bool,
                    store_format: str = "bamx") -> str:
    """Canonical extension for a record store."""
    check_store_format(store_format, compress)
    if store_format == "bamc":
        return ".bamc"
    return ".bamz" if compress else ".bamx"
