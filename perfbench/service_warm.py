"""The ``service_warm`` workload: a closed loop against ``repro serve``.

One daemon subprocess (``repro serve --listen 127.0.0.1:0 --workers 2``,
default flags otherwise) serves two client threads of this process.
Each client alternates a ``region`` job (BED from the BAMX artifact over
a seeded 50 kb window of chr1, ``nprocs=1``) and a ``convert`` job
(FASTQ from the BAMC artifact, ``nprocs=2``, ``process`` executor) and
waits for each job to finish before sending the next, so the loop is
closed with two clients.

Set-up is daemon start to first ping plus cache priming (both
artifacts, and one convert job so the daemon's worker pool is warm).
It is repeated on fresh daemons and reported as a median; the last
daemon serves the load.  Every daemon is stopped through the
``shutdown`` op and killed if it has not exited by a deadline, so a
hung daemon can neither hang the benchmark nor outlive the run.
"""

from __future__ import annotations

import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

import common

SETUP_REPEATS = 3
WORKERS = 2
CLIENTS = common.NPROCS
WINDOW = 50_000
WINDOW_POOL = 32
#: Each kind needs this many samples for p90 to have ten beyond it.
MIN_KIND_SAMPLES = 100
BANNER_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 20.0
STOP_TIMEOUT_S = 20.0


class DaemonError(RuntimeError):
    """The daemon failed to start or to answer."""


class Daemon:
    """One ``repro serve`` subprocess and a control connection to it."""

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.client = None
        self._lines: queue.Queue = queue.Queue()
        self._drain: threading.Thread | None = None

    def start(self) -> None:
        """Spawn the daemon, wait for its banner, connect and ping."""
        from repro.service import ServiceClient, protocol
        env = dict(os.environ, PYTHONPATH=common.SRC_DIR,
                   TMPDIR=self.work_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--listen", "127.0.0.1:0",
             "--work-dir", os.path.join(self.work_dir, "svc"),
             "--workers", str(WORKERS)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=self.work_dir, start_new_session=True)
        # A reader thread keeps the pipe drained for the daemon's life.
        self._drain = threading.Thread(target=self._read_output,
                                       daemon=True)
        self._drain.start()
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DaemonError("no listening banner within "
                                  f"{BANNER_TIMEOUT_S:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise DaemonError(
                    f"daemon exited early (rc={self.proc.wait()})")
            if "tcp://" in line:
                break
        hostport = line.split("tcp://", 1)[1].split()[0]
        self.address = protocol.parse_address(hostport)
        self.client = ServiceClient(self.address, timeout=JOB_TIMEOUT_S,
                                    connect_retries=5)
        if not self.client.ping():
            raise DaemonError("daemon did not answer ping")

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def run(self, kind: str, params: dict) -> dict:
        """Submit one job on the control connection and wait for it."""
        job = self.client.submit(kind, params)
        return self.client.wait(job["job_id"], timeout=JOB_TIMEOUT_S)

    def stop(self) -> bool:
        """Shut down through the protocol; kill on the deadline.

        Returns ``True`` for a clean exit with status 0.  The daemon runs
        in its own process group, which is killed afterwards so that no
        worker process outlives a daemon that had to be killed.
        """
        if self.proc is None:
            return True
        clean = False
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(STOP_TIMEOUT_S)
            clean = self.proc.returncode == 0
        except Exception:  # a hung or dead daemon: killed below
            traceback.print_exc()
        finally:
            if self.client is not None:
                self.client.close()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            _kill_group(self.proc.pid)
            self.proc.stdout.close()
            if self._drain is not None:
                self._drain.join(STOP_TIMEOUT_S)
        return clean


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


@dataclass
class Op:
    """One job as the client saw it."""

    client: int
    kind: str
    latency: float
    submit_s: float
    t_start: float
    t_end: float
    snapshot: dict | None
    params: dict
    window: str | None = None
    error: str | None = None
    ok: bool = False


def _prime(daemon: Daemon, inp: dict, run_dir: str) -> tuple[dict, bool]:
    """Build both artifacts and warm the daemon's worker pool.

    Returns the store paths by format and whether every priming job
    finished and produced the reference output.
    """
    stores = {}
    ok = True
    for fmt in ("bamx", "bamc"):
        snap = daemon.run("preprocess",
                          {"input": inp["bam"], "store_format": fmt})
        ok &= snap["state"] == "done"
        for path in (snap.get("result") or {}).get("artifacts", []):
            if path.endswith("." + fmt):
                stores[fmt] = path
    out = common.fresh_dir(os.path.join(run_dir, "prime"))
    snap = daemon.run("convert", _convert_params(inp, out))
    ok &= snap["state"] == "done" and _parts_ok(
        snap, inp["references"]["fastq"])
    ok &= set(stores) == {"bamx", "bamc"}
    return stores, ok


def _convert_params(inp: dict, out_dir: str) -> dict:
    return {"input": inp["bam"], "target": "fastq",
            "store_format": "bamc", "out_dir": out_dir,
            "nprocs": common.NPROCS, "executor": "process"}


def _parts_ok(snap: dict, digest: str) -> bool:
    outputs = (snap.get("result") or {}).get("outputs")
    return common.parts_digest(outputs) == digest


def windows(seed: int, chrom_len: int) -> list[str]:
    """The seeded pool of 50 kb chr1 windows region jobs draw from."""
    rng = random.Random(seed)
    starts = [rng.randrange(0, chrom_len - WINDOW)
              for _ in range(WINDOW_POOL)]
    return [f"chr1:{s + 1}-{s + WINDOW}" for s in starts]


def setup(inp: dict, run_dir: str, repeats: int = SETUP_REPEATS,
          ) -> tuple[Daemon, dict, list[float]]:
    """Start and prime *repeats* daemons; return the last one, its
    stores and the set-up times.  Earlier daemons are stopped."""
    times = []
    for i in range(repeats):
        daemon = Daemon(common.fresh_dir(os.path.join(run_dir,
                                                      f"daemon{i}")))
        try:
            t0 = time.perf_counter()
            daemon.start()
            stores, ok = _prime(daemon, inp, run_dir)
            times.append(time.perf_counter() - t0)
            if not ok:
                raise DaemonError("cache priming failed")
        except BaseException:
            daemon.stop()
            raise
        if i < repeats - 1:
            if not daemon.stop():
                raise DaemonError("daemon did not stop cleanly")
            shutil.rmtree(daemon.work_dir, ignore_errors=True)
    return daemon, stores, times


def load(daemon: Daemon, inp: dict, seconds: float, run_dir: str,
         tag: str, seed: int, min_samples: int = MIN_KIND_SAMPLES,
         ) -> tuple[list[Op], float]:
    """Closed loop of two clients for *seconds* (longer, up to a cap,
    until each job kind has *min_samples* samples).

    Returns the operations and the phase's wall time.
    """
    from repro.service import ServiceClient
    pool = windows(seed, dict(common.CHROMOSOMES)["chr1"])
    ops: list[list[Op]] = [[] for _ in range(CLIENTS)]
    counts = {"region": 0, "convert": 0}
    lock = threading.Lock()
    t_begin = time.monotonic()
    soft_end = t_begin + seconds
    hard_end = t_begin + 2.5 * seconds

    def keep_going() -> bool:
        now = time.monotonic()
        if now >= hard_end:
            return False
        if now < soft_end:
            return True
        with lock:
            return min(counts.values()) < min_samples

    def one_client(c: int) -> None:
        rng = random.Random(seed * 1000 + c)
        try:
            client = ServiceClient(daemon.address, timeout=JOB_TIMEOUT_S,
                                   connect_retries=5)
        except Exception as exc:
            ops[c].append(Op(c, "connect", 0.0, 0.0, 0.0, 0.0, None, {},
                             error=repr(exc)))
            return
        with client:
            k = 0
            while keep_going():
                kind = "region" if k % 2 == 0 else "convert"
                out = os.path.join(run_dir, f"{tag}c{c}_{k:05d}")
                window = None
                if kind == "region":
                    window = rng.choice(pool)
                    params = {"input": inp["bam"], "region": window,
                              "target": "bed", "out_dir": out,
                              "nprocs": 1}
                else:
                    params = _convert_params(inp, out)
                ops[c].append(_submit_and_wait(client, c, kind, params,
                                               window))
                with lock:
                    counts[kind] += 1
                k += 1

    threads = [threading.Thread(target=one_client, args=(c,))
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        # Every job wait is bounded, so the clients end by the cap.
        t.join(2.5 * seconds + 2 * JOB_TIMEOUT_S)
    wall = time.monotonic() - t_begin
    if any(t.is_alive() for t in threads):
        raise DaemonError("client threads hung past their deadline")
    return [op for per_client in ops for op in per_client], wall


def _submit_and_wait(client, c: int, kind: str, params: dict,
                     window: str | None) -> Op:
    t0 = time.perf_counter()
    snapshot = None
    submit_s = 0.0
    error = None
    try:
        job = client.submit(kind, params)
        submit_s = time.perf_counter() - t0
        snapshot = client.wait(job["job_id"], timeout=JOB_TIMEOUT_S)
    except Exception as exc:  # refused, dropped or timed out
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    return Op(c, kind, t1 - t0, submit_s, t0, t1, snapshot, params,
              window, error)


def check(ops: list[Op], inp: dict, stores: dict, run_dir: str,
          region_refs: dict) -> None:
    """Mark each op ok/failed: done, cache hit, byte-identical output.

    Region references come from the strict ``pipeline="record"`` path
    on the daemon's own BAMX artifact, one per window, memoised in
    *region_refs*.  Output directories are removed once checked.
    """
    for op in ops:
        try:
            _check_one(op, inp, stores, run_dir, region_refs)
        finally:
            if "out_dir" in op.params:
                shutil.rmtree(op.params["out_dir"], ignore_errors=True)


def _check_one(op: Op, inp: dict, stores: dict, run_dir: str,
               region_refs: dict) -> None:
    from repro.core import BamConverter
    snap = op.snapshot
    if op.error is not None or snap is None:
        return
    result = snap.get("result") or {}
    if snap["state"] != "done" or result.get("cache") != "hit":
        op.error = f"state={snap['state']} cache={result.get('cache')}"
        return
    if op.kind == "region":
        if op.window not in region_refs:
            ref_dir = common.fresh_dir(os.path.join(run_dir, "ref"))
            ref = BamConverter(pipeline="record").convert_region(
                stores["bamx"], None, op.window, "bed", ref_dir, nprocs=1)
            region_refs[op.window] = common.parts_digest(ref.outputs)
            shutil.rmtree(ref_dir, ignore_errors=True)
        expected = region_refs[op.window]
    else:
        expected = inp["references"]["fastq"]
    op.ok = _parts_ok(snap, expected)
    if not op.ok:
        op.error = "output mismatch or missing part file"


def rounds(ops: list[Op]) -> list[float]:
    """Closed-loop round latencies: one client's region job and the
    convert job after it, from the first submit to the second done."""
    by_client: dict[int, list[Op]] = {}
    for op in ops:
        by_client.setdefault(op.client, []).append(op)
    out = []
    for seq in by_client.values():
        for first, second in zip(seq[0::2], seq[1::2]):
            if first.kind == "region" and second.kind == "convert":
                out.append(second.t_end - first.t_start)
    return out


def end_to_end(ops: list[Op], wall: float, inp: dict) -> dict:
    """Load-phase metrics: name -> list of samples or a scalar."""
    ok = [op for op in ops if op.ok]
    records = sum(op.snapshot["result"]["records"] for op in ok)
    bytes_per_record = inp["bam_bytes"] / inp["records"]
    return {
        "job_s": rounds(ops),
        "region_s": [op.latency for op in ops if op.kind == "region"],
        "convert_s": [op.latency for op in ops if op.kind == "convert"],
        "records_per_s": records / wall,
        "input_mb_per_s": records * bytes_per_record / common.MB / wall,
        "jobs_per_s": len(ok) / wall,
    }


def _span_tree(spans: list[dict]):
    children: dict = {}
    roots = []
    for span in spans:
        if span.get("parent_id") is None:
            roots.append(span)
        else:
            children.setdefault(span["parent_id"], []).append(span)
    return roots, children


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(ops: list[Op], before: dict, after: dict,
                  traces: dict) -> dict:
    """Service-side layer quantities for the jobs in *ops*.

    *before*/*after* are the daemon's ``metrics`` snapshots around the
    phase and *traces* maps job id -> the ``trace`` op's spans.
    """
    jobs = [op for op in ops if op.snapshot is not None]
    n = len(jobs) or 1

    def counter(name: str) -> float:
        return after["counters"].get(name, 0) \
            - before["counters"].get(name, 0)

    def gauge(name: str) -> float:
        return after["gauges"].get(name, 0) - before["gauges"].get(name, 0)

    locate, convert, fetch, busy, rank_max, imbalance = \
        [], [], [], [], [], []
    for spans in traces.values():
        roots, children = _span_tree(spans)
        for span in spans:
            if span["name"] == "locate":
                locate.append(_dur(span))
        ranks = [_dur(s) for s in spans if s["name"] == "rank"]
        if ranks:
            busy.append(sum(ranks))
            rank_max.append(max(ranks))
        if len(ranks) > 1:
            imbalance.append(max(ranks) / (sum(ranks) / len(ranks)))
        for root in roots:
            if not root["name"].startswith("job."):
                continue
            inner = sum(_dur(c) for c in children.get(root["span_id"], [])
                        if c["name"].startswith("convert"))
            convert.append(inner)
            fetch.append(_dur(root) - inner)

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    timed = [op for op in jobs if op.snapshot.get("started_at")
             and op.snapshot.get("finished_at")]
    waits = [op.snapshot["started_at"] - op.snapshot["submitted_at"]
             for op in timed]
    runs = [op.snapshot["finished_at"] - op.snapshot["started_at"]
            for op in timed]
    lags = [op.latency - (op.snapshot["finished_at"]
                          - op.snapshot["submitted_at"]) for op in timed]
    hits, misses = counter("cache_hits"), counter("cache_misses")
    return {
        "index.locate_s_p50": med(locate),
        "convert.s": sum(convert) / n,
        "convert.rank_busy_s": sum(busy) / n,
        "convert.rank_max_s": sum(rank_max) / n,
        "convert.imbalance": med(imbalance),
        "convert.kernel_fallbacks": counter("kernel_fallbacks") / n,
        "convert.batch_fallbacks": counter("batch_fallbacks") / n,
        "executor.pool_starts": gauge("executor_process_pool_starts"),
        "executor.tasks": gauge("executor_tasks_completed") / n,
        "gateway.submit_s_p50": med([op.submit_s for op in jobs]),
        "gateway.requests": counter("gateway_requests_total") / n,
        "gateway.rejected_overloaded":
            counter("gateway_rejected_overloaded"),
        "scheduler.queue_wait_s_p50": med(waits),
        "scheduler.queue_wait_s_p90":
            common.percentile(waits, 90) if waits else 0.0,
        "scheduler.run_s_p50": med(runs),
        "client.notify_lag_s_p50": med(lags),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.verifies_per_job": (counter("cache_verify_ok")
                                   + counter("cache_verify_failed")) / n,
        "cache.fetch_s_p50": med(fetch),
    }
