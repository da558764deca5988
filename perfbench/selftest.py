"""Self-test of the benchmark's correctness checks.

``python3 perfbench/run.py --self-test`` runs real jobs, then corrupts
or deletes part files (and fakes a cache miss and a failed job) before
the checks run, and exits non-zero unless every tampered operation is
counted as failed and every untouched one passes.
"""

from __future__ import annotations

import copy
import os
import shutil

import common

SEED = 1


def _flip_first_byte(path: str) -> None:
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(bytes([first[0] ^ 0xFF]))


def _inproc(inp: dict, run_dir: str, expect) -> None:
    import inproc
    try:
        clean = inproc.run_phase("bam_cold", inp, 1e-9, run_dir, "clean")
        expect("untouched bam_cold job passes",
               len(clean) == 1 and clean[0].ok)
        corrupt = inproc.run_phase(
            "bam_cold", inp, 1e-9, run_dir, "corrupt",
            tamper=lambda parts: _flip_first_byte(parts[0]))
        expect("corrupted part file is counted",
               len(corrupt) == 1 and not corrupt[0].ok)
        missing = inproc.run_phase(
            "sam_ingest", inp, 1e-9, run_dir, "missing",
            tamper=lambda parts: os.unlink(parts[-1]))
        expect("missing part file is counted",
               len(missing) == 1 and not missing[0].ok)
    finally:
        inproc.shutdown()


def _service(inp: dict, run_dir: str, expect) -> None:
    import service_warm as sw
    daemon, stores, _ = sw.setup(inp, run_dir, repeats=1)
    try:
        ops, _ = sw.load(daemon, inp, 1.0, run_dir, "st", SEED,
                         min_samples=3)
    finally:
        clean_stop = daemon.stop()
    expect("daemon stops through the shutdown op", clean_stop)
    region = next(op for op in ops if op.kind == "region")
    convert = next(op for op in ops if op.kind == "convert")
    _flip_first_byte(region.snapshot["result"]["outputs"][0])
    os.unlink(convert.snapshot["result"]["outputs"][-1])
    # Copies of good jobs whose snapshots report a cache miss or a
    # failed state: only the state checks can reject them.
    good_region = next(op for op in ops
                       if op.kind == "region" and op is not region)
    good_convert = next(op for op in ops
                        if op.kind == "convert" and op is not convert)
    miss = copy.deepcopy(good_region)
    miss.snapshot["result"]["cache"] = "miss"
    failed = copy.deepcopy(good_convert)
    failed.snapshot["state"] = "failed"
    for fake in (miss, failed):
        fake.params = {}
    sw.check([miss, failed] + ops, inp, stores, run_dir, {})
    expect("corrupted region output is counted", not region.ok)
    expect("missing convert part file is counted", not convert.ok)
    expect("post-priming cache miss is counted", not miss.ok)
    expect("non-done job is counted", not failed.ok)
    others = [op for op in ops if op is not region and op is not convert]
    expect("untouched service jobs pass",
           bool(others) and all(op.ok for op in others))


def main() -> int:
    import inputs
    inp = inputs.prepare(SEED)
    run_dir = common.fresh_dir(os.path.join(common.WORK_ROOT,
                                            f"selftest-{os.getpid()}"))
    problems: list[str] = []

    def expect(what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    try:
        _inproc(inp, run_dir, expect)
        _service(inp, run_dir, expect)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0
