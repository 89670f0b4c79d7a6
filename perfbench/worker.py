"""One measured process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py sim <workload> <seed> [--trace DIR]
    python3 perfbench/worker.py service <seed> <seconds> [--trace DIR]
    python3 perfbench/worker.py fingerprint <workload>

``sim`` sets up and runs one simulation workload once, in this fresh
process, so set-up includes the import.  ``service`` runs repetitions of
``service_sweep`` for ``seconds`` (with ``--trace``: one untraced and
one traced repetition).  Each measured simulation runs between runs of
the reference kernel (:mod:`reference`), whose mean time it reports as
``ref_s``.  ``fingerprint`` prints the virtual-time
fingerprint of the default seed, for ``fingerprints.json``.  The last
line of standard output is one JSON object.  ``PYTHONPATH`` must name
the checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from layers import Tracer
import reference
import service_sweep
import workloads
from workloads import DEFAULT_SEED


def _src_root() -> str:
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _reset_peak_rss() -> None:
    """Start this process's peak resident set afresh (Linux), so the
    peak read after the workload is the workload's, not the reference
    kernel's."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _bracketed(measure):
    """``measure()`` between runs of the reference kernel, two before and
    one after; its result gets ``ref_s``, their mean.  The kernel runs
    with the measured work's garbage collected, so what that work leaves
    behind does not slow it."""
    refs = [reference.timed(), reference.timed()]
    out = measure()
    gc.collect()
    refs.append(reference.timed())
    out["ref_s"] = sum(refs) / len(refs)
    return out


def _layer_report(tracer: Tracer, trace_dir: str, stem: str) -> dict:
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{stem}.trace.json")
    tracer.write_chrome_trace(path)
    return {"self_s": dict(tracer.self_s), "traced_s": tracer.traced_s,
            "unattributed_share": tracer.unattributed_share,
            "spans_total": tracer.spans_total,
            "spans_kept": len(tracer.spans), "chrome_trace": path}


def main_sim(name: str, seed: int, trace_dir: str | None) -> dict:
    tracer = None
    if trace_dir is not None:
        # the tracer maps files under src/ to layers; it needs the path
        # before repro is imported, so find it from PYTHONPATH
        tracer = Tracer(os.environ["PYTHONPATH"].split(os.pathsep)[0])

    def run() -> dict:
        _reset_peak_rss()
        out = workloads.run_sim(name, seed, tracer)
        out["peak_rss_mb"] = _peak_rss_mb()
        return out

    out = _bracketed(run)
    if tracer is not None:
        out["layers"] = _layer_report(tracer, trace_dir,
                                      f"{name}-seed{seed}")
    return out


def main_service(seed: int, seconds: float, trace_dir: str | None) -> dict:
    t0 = time.monotonic()
    src = _src_root()
    work_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "out")
    os.makedirs(work_dir, exist_ok=True)
    tasks = service_sweep.tasks_for(seed)
    expected = service_sweep.direct_states(tasks)
    out = {"fingerprint": service_sweep.fingerprint(expected),
           "expect_bytes": [t.workload_config.total_bytes(t.config.nprocs)
                            for t in tasks],
           "direct_bytes": [s["bytes_written"] for s in expected],
           "reps": []}
    if trace_dir is None:
        # repeat until the next repetition would end past ``seconds``
        t_reps = time.monotonic()
        while True:
            out["reps"].append(service_sweep.run_rep(src, work_dir, tasks,
                                                     expected))
            now = time.monotonic()
            if now - t0 + (now - t_reps) / len(out["reps"]) > seconds:
                break
        return out
    out["reps"].append(service_sweep.run_rep(src, work_dir, tasks, expected))
    tracer = Tracer(src)
    rep = service_sweep.run_rep(src, work_dir, tasks, expected, tracer)
    # server-side job phases from the job documents, on the tracer's clock
    offset = time.perf_counter() - time.time()
    for phase_recs in (rep["cold"], rep["warm"]):
        for j in phase_recs:
            if j["started"] is not None and j["created"] is not None:
                tracer.add_span("service.queue", j["created"] + offset,
                                j["started"] + offset, j["id"], 100)
            if j["finished"] is not None and j["started"] is not None:
                tracer.add_span("service.execute", j["started"] + offset,
                                j["finished"] + offset, j["id"], 101)
    rep["layers"] = _layer_report(tracer, trace_dir, f"service_sweep-seed{seed}")
    out["reps"].append(rep)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p_sim = sub.add_parser("sim")
    p_sim.add_argument("workload", choices=workloads.SIM_WORKLOADS)
    p_sim.add_argument("seed", type=int)
    p_sim.add_argument("--trace", default=None, metavar="DIR")
    p_srv = sub.add_parser("service")
    p_srv.add_argument("seed", type=int)
    p_srv.add_argument("seconds", type=float)
    p_srv.add_argument("--trace", default=None, metavar="DIR")
    p_fp = sub.add_parser("fingerprint")
    p_fp.add_argument("workload", choices=workloads.SIM_WORKLOADS
                      + ("service_sweep",))
    args = ap.parse_args(argv)

    if args.mode == "sim":
        out = main_sim(args.workload, args.seed, args.trace)
    elif args.mode == "service":
        out = main_service(args.seed, args.seconds, args.trace)
    elif args.workload == "service_sweep":
        states = service_sweep.direct_states(
            service_sweep.tasks_for(DEFAULT_SEED))
        out = {args.workload: service_sweep.fingerprint(states)}
    else:
        out = {args.workload: workloads.run_sim(
            args.workload, DEFAULT_SEED)["fingerprint"]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
