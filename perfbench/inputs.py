"""Seeded benchmark inputs and their reference outputs.

``prepare(seed)`` returns a description of one dataset: a SAM file, the
BAM written from the same records, and SHA-256 digests of the
sequential reference conversions (``convert_bam_direct``, which never
touches a record store) to BED and FASTQ.  Generation runs in a child
process so its memory never shows in the benchmark's own peak RSS, and
the result is cached on disk by seed: generating inputs is not program
work and is excluded from every metric.

Run directly (``python3 perfbench/inputs.py --seed N --out DIR``) it
builds one dataset into DIR; that is the child-process entry point.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import common

META = "meta.json"
GENERATE_TIMEOUT_S = 150


def _build(seed: int, out_dir: str) -> None:
    from repro.core.bam_converter import convert_bam_direct
    from repro.formats.bam import write_bam
    from repro.simdata import build_sam_dataset

    sam = os.path.join(out_dir, "input.sam")
    bam = os.path.join(out_dir, "input.bam")
    workload = build_sam_dataset(sam, common.TEMPLATES,
                                 chromosomes=list(common.CHROMOSOMES),
                                 seed=seed)
    write_bam(bam, workload.header, workload.records)
    references = {}
    for target in ("bed", "fastq"):
        ref_path = os.path.join(out_dir, f"reference.{target}")
        convert_bam_direct(bam, target, ref_path)
        references[target] = common.digest_files([ref_path])
        os.unlink(ref_path)
    meta = {
        "seed": seed,
        "templates": common.TEMPLATES,
        "records": len(workload.records),
        "sam_bytes": os.path.getsize(sam),
        "bam_bytes": os.path.getsize(bam),
        "references": references,
    }
    with open(os.path.join(out_dir, META), "w") as fh:
        json.dump(meta, fh, indent=1)


def prepare(seed: int) -> dict:
    """Dataset for *seed* (built in a child process on first use)."""
    final = os.path.join(common.INPUT_CACHE, f"seed-{seed}")
    if not os.path.isfile(os.path.join(final, META)):
        tmp = common.fresh_dir(final + f".tmp-{os.getpid()}")
        try:
            subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--seed", str(seed), "--out", tmp],
                check=True, timeout=GENERATE_TIMEOUT_S,
                stdout=subprocess.DEVNULL)
            shutil.rmtree(final, ignore_errors=True)
            os.replace(tmp, final)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(final, META)) as fh:
        meta = json.load(fh)
    meta["sam"] = os.path.join(final, "input.sam")
    meta["bam"] = os.path.join(final, "input.bam")
    return meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    _build(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
