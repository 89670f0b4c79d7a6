"""``service_sweep``: a closed loop of clients against ``repro serve``.

The server runs in its own process (``python -m repro.cli serve
--workers 2 --pool process``) with a fresh run cache per repetition.
Two client threads, one tenant each, submit a job and wait for its
result before submitting the next.  The cold phase sends
:data:`N_POINTS` distinct 16-rank tile-IO ParColl points; the warm
phase resends the same descriptors, so every one is a cache hit.

Every wire result is compared with direct ``ExperimentExecutor``
execution of the same descriptor; a difference, a failed job or a job
still refused after retries counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any

from workloads import PERF_COUNTERS

N_POINTS = 120
CLIENTS = 2
WORKERS = 2
START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


def tasks_for(seed: int) -> list:
    """:data:`N_POINTS` distinct descriptors; ``parcoll_ngroups`` cycles
    1-4 and the tile width makes each point's cache key distinct."""
    from repro.harness.parallel import ExperimentTask
    from repro.harness.runner import ExperimentConfig
    from repro.workloads import TileIOConfig

    out = []
    for i in range(N_POINTS):
        cfg = ExperimentConfig(nprocs=16, seed=seed,
                               lustre={"n_osts": 8, "default_stripe_count": 8})
        wl = TileIOConfig(tile_rows=32, tile_cols=16 + i // 4,
                          element_size=64,
                          hints={"protocol": "parcoll",
                                 "parcoll_ngroups": 1 + i % 4})
        out.append(ExperimentTask(cfg, "tile_io", wl))
    return out


def _warmup_task():
    from repro.harness.parallel import ExperimentTask
    from repro.harness.runner import ExperimentConfig
    from repro.workloads import TileIOConfig

    return ExperimentTask(ExperimentConfig(nprocs=4), "tile_io",
                          TileIOConfig(tile_rows=8, tile_cols=8))


def sim_state(doc: dict) -> dict:
    """The deterministic part of a wire result (host timings dropped)."""
    return {k: v for k, v in doc.items() if k != "perf"}


def direct_states(tasks: list) -> list[dict]:
    """Wire-form results of direct, uncached in-process execution."""
    from repro.harness.parallel import ExperimentExecutor
    from repro.service import result_to_dict

    results = ExperimentExecutor(jobs=1, cache=False).run_many(tasks)
    return [sim_state(json.loads(json.dumps(result_to_dict(r))))
            for r in results]


def states_digest(states: list[dict]) -> str:
    blob = json.dumps(states, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Server:
    """``repro serve`` in a child process, with its own run cache."""

    def __init__(self, src_root: str, work_dir: str):
        self.url = ""
        self.cache_dir = tempfile.mkdtemp(prefix="runcache-", dir=work_dir)
        env = dict(os.environ, PYTHONPATH=src_root,
                   REPRO_RUNCACHE=self.cache_dir)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--workers", str(WORKERS), "--pool", "process",
             "--max-queue", "256"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env,
            text=True)
        self.url = self._read_url()

    def _read_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if not line:
                break
            if "listening on " in line:
                # keep draining stderr so the server never blocks on it
                threading.Thread(target=self.proc.stderr.read,
                                 daemon=True).start()
                return line.split("listening on ", 1)[1].split()[0]
        self.close()
        raise RuntimeError("server did not start")

    def descendants(self) -> list[int]:
        pids, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            pids.append(pid)
            try:
                with open(f"/proc/{pid}/task/{pid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
        return pids

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the server and its pool."""
        total_kb = 0
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def close(self) -> None:
        """Ask for a graceful shutdown; kill the process tree if it hangs."""
        if self.proc.poll() is None:
            pids = self.descendants()
            try:
                from repro.service import ServiceClient

                ServiceClient(self.url, timeout=10).shutdown()
            except Exception:  # noqa: BLE001 -- fall through to kill
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                for pid in pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
                self.proc.wait(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def _closed_loop(client, tenant: str, tasks: list, idx: list[int],
                 out: dict, tracer=None) -> None:
    """One client: submit, wait, record, next."""
    from repro.service.client import BackpressureError, ServiceError

    def work():
        for i in idx:
            rec: dict[str, Any] = {}
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.run_id = f"{tenant}:{i}"
                job = client.submit(tasks[i], tenant=tenant, retries=5)
                rec["submit_s"] = time.perf_counter() - t0
                if tracer is not None:
                    tracer.run_id = job["id"]
                res = client.wait(job["id"], timeout=JOB_TIMEOUT)
            except (BackpressureError, ServiceError, TimeoutError,
                    OSError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
                out[i] = rec
                continue
            rec["latency_s"] = time.perf_counter() - t0
            rec["t_receipt"] = time.time()
            rec["state"] = res.get("state")
            rec["job"] = res.get("job") or client.job(job["id"])
            rec["result"] = res.get("result")
            out[i] = rec

    if tracer is None:
        work()
    else:
        tracer.run(work)


def _phase(client, tasks: list, tracer=None) -> tuple[float, list[dict]]:
    out: dict[int, dict] = {}
    threads = [threading.Thread(
        target=_closed_loop,
        args=(client, f"tenant{c}", tasks,
              list(range(c, len(tasks), CLIENTS)), out, tracer))
        for c in range(CLIENTS)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=JOB_TIMEOUT * len(tasks))
    wall = time.perf_counter() - t0
    if any(th.is_alive() for th in threads):
        raise RuntimeError("client threads did not finish")
    return wall, [out[i] for i in range(len(tasks))]


def run_rep(src_root: str, work_dir: str, tasks: list,
            expected: list[dict], tracer=None) -> dict[str, Any]:
    """One repetition: start a server, warm its pool, run the cold and
    warm phases, check every result, shut the server down."""
    from repro.service import ServiceClient

    t0 = time.perf_counter()
    server = Server(src_root, work_dir)
    try:
        client = ServiceClient(server.url, timeout=JOB_TIMEOUT)
        client.healthz()
        warm = client.submit(_warmup_task(), tenant="warmup")
        if client.wait(warm["id"], timeout=JOB_TIMEOUT)["state"] != "done":
            raise RuntimeError("warm-up job failed")
        setup_s = time.perf_counter() - t0
        cold_s, cold = _phase(client, tasks, tracer)
        warm_s, warm_recs = _phase(client, tasks, tracer)
        metrics = client.metrics()
        peak_rss_mb = server.peak_rss_mb()
    finally:
        server.close()

    problems = []
    failed = 0
    for phase, recs in (("cold", cold), ("warm", warm_recs)):
        for i, rec in enumerate(recs):
            bad = None
            if "error" in rec:
                bad = rec["error"]
            elif rec["state"] != "done":
                bad = f"state {rec['state']}"
            elif sim_state(rec["result"]) != expected[i]:
                bad = "wire result differs from direct execution"
            if bad is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{phase} job {i}: {bad}")
    cold_ok = [r["result"] for r in cold if r.get("result")]
    perf: dict[str, int] = dict.fromkeys(PERF_COUNTERS, 0)
    for res in cold_ok:
        for key in PERF_COUNTERS:
            perf[key] += (res.get("perf") or {}).get(key, 0)
    return {
        "setup_s": setup_s,
        "wall_s": cold_s + warm_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "messages": sum(r["messages"] for r in cold_ok),
        "perf": perf,
        "lustre": {"bytes_written": sum(r["bytes_written"] for r in cold_ok),
                   "bytes_read": sum(r["bytes_read"] for r in cold_ok)},
        "peak_rss_mb": peak_rss_mb,
        "attempted": 2 * len(tasks),
        "failed": failed,
        "problems": problems,
        "cold": [_job_times(r) for r in cold],
        "warm": [_job_times(r) for r in warm_recs],
        "counters": metrics.get("counters", {}),
    }


def _job_times(rec: dict) -> dict:
    """Client- and server-side timings of one job (None when missing)."""
    job = rec.get("job") or {}
    created, started, finished = (job.get("created"), job.get("started"),
                                  job.get("finished"))
    out = {"latency_s": rec.get("latency_s"), "submit_s": rec.get("submit_s"),
           "source": job.get("source"), "id": job.get("id"),
           "created": created, "started": started, "finished": finished}
    out["queue_wait_s"] = (started - created
                           if started is not None and created is not None
                           else None)
    out["execute_s"] = (finished - started
                        if finished is not None and started is not None
                        else None)
    out["notify_s"] = (rec["t_receipt"] - finished
                       if finished is not None and "t_receipt" in rec
                       else None)
    return out


def fingerprint(states: list[dict]) -> dict:
    return {"jobs": len(states), "results_sha256": states_digest(states),
            "messages": sum(s["messages"] for s in states),
            "bytes_written": sum(s["bytes_written"] for s in states)}
