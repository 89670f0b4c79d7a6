"""The repository's benchmark: one workload, measured and checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it repeats the
workload for about ``--seconds`` host seconds, each simulation
repetition in a fresh process, and prints the end-to-end metrics as
medians.  The simulation workloads' timings are normalized: each
repetition's host seconds (set-up and run) are scaled by the reference
kernel (:mod:`reference`) timed around it, so they follow the program
and not the shared host's speed of the moment; the raw host seconds
are printed and reported beside them.  ``service_sweep``'s timings are
raw.  With ``--trace 1`` it runs the workload once untraced and once
under the layer profile hook, and prints the per-layer metrics; the
spans go to ``perfbench/out/<workload>-seed<n>.trace.json``.  Every run
checks the simulator's outputs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A detailed report (quartiles, tails, per-repetition samples, host
block) is written next to the trace as
``<workload>-seed<n>-trace<t>.report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Optional

import reference
import stats
import workloads
from workloads import DEFAULT_SEED

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("ext2ph_macro", "parcoll_detailed", "btio_verified_rw",
             "service_sweep")
#: host seconds a run may take beyond ``--seconds`` (the repetition in
#: progress, the traced repetition, set-up); a measured process still
#: running at the deadline is killed and counted as failed
RUN_MARGIN = 90.0

END_TO_END = {  # name -> unit
    "norm_wall_s": "s", "norm_msgs_per_s": "msgs/s", "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: reported with the end-to-end metrics, but not metrics of the
#: benchmark: the shared host's speed moves them by tens of percent
RAW_TIMINGS = {"raw_wall_s": "s", "raw_msgs_per_s": "msgs/s",
               "raw_setup_s": "s", "ref_s": "s"}
#: layers whose self time is a per-layer metric
SELF_TIME_LAYERS = ("sim.engine", "simmpi.p2p", "simmpi.collectives_macro",
                    "sim.resources", "cluster.network", "simmpi.analytic",
                    "mpiio", "parcoll", "lustre", "validate", "workloads",
                    "service")
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in SELF_TIME_LAYERS},
    "sim.engine.events": "count",
    "sim.engine.heap_bypass_ratio": "ratio",
    "simmpi.messages": "count",
    "simmpi.wildcard_match_ratio": "ratio",
    "simmpi.collectives_macro.rounds": "count",
    "simmpi.collectives_macro.coalesced_ratio": "ratio",
    "mpiio.rounds_planned": "count",
    "mpiio.segments_vectorized": "count",
    "lustre.bytes_written": "B",
    "lustre.bytes_read": "B",
    "validate.checks": "count",
    "validate.violations": "count",
    "service.jobs_per_s": "1/s",
    "service.cold_job_p50_s": "s",
    "service.cold_job_p90_s": "s",
    "service.warm_job_p50_s": "s",
    "service.warm_job_p90_s": "s",
    "service.submit_s.p50": "s",
    "service.queue_wait_s.p50": "s",
    "service.queue_wait_s.p90": "s",
    "service.execute_s.p50": "s",
    "service.execute_s.p90": "s",
    "service.notify_s.p50": "s",
    "service.cache_hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.rejected": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class Failure(Exception):
    """A measured process that crashed, hung or printed no result."""


def checkout_root() -> str:
    """The checkout the benchmark runs in: the current directory, which
    must hold the simulator's sources."""
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit(f"error: no simulator sources at {root}/src/repro; "
                         "run from the root of a checkout")
    return root


def spawn(root: str, argv: list[str], deadline: float) -> dict:
    """Run ``worker.py argv`` in a fresh interpreter; its last stdout line.

    The worker runs in a session of its own, so a worker still running at
    ``deadline`` (``time.monotonic``) is killed with everything it started.
    """
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    # it would force the oracle on in every workload
    env.pop("REPRO_VALIDATE", None)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"worker {argv} still running at the run's "
                      "deadline") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-5:]
        raise Failure(f"worker {argv} exited {proc.returncode}: "
                      + " | ".join(tail))
    return json.loads(lines[-1])


def code_sha256(root: str) -> str:
    """Content hash of every simulator source file (the checkout is not
    always a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def load_fingerprints() -> dict:
    with open(os.path.join(HERE, "fingerprints.json")) as fh:
        return json.load(fh)


#: fingerprint fields that do not depend on the seed: checked on every
#: seed against the recorded default-seed fingerprint
SEED_INDEPENDENT = ("messages", "bytes_written", "bytes_read",
                    "file_sha256", "violations", "jobs")


def expected_fingerprint(workload: str, seed: int) -> dict:
    """What the run's fingerprint must equal: all of the recorded one on
    the default seed, its seed-independent fields on any other."""
    recorded = load_fingerprints()[workload]
    if seed == DEFAULT_SEED:
        return recorded
    return {k: v for k, v in recorded.items() if k in SEED_INDEPENDENT}


class Outcome:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str], count: int = 1) -> None:
        self.failed += count
        self.problems.extend(problems)


# ---------------------------------------------------------------------------
# simulation workloads: one fresh process per repetition
# ---------------------------------------------------------------------------
def sim_attempt(root: str, argv: list[str], deadline: float,
                expected: Optional[dict], first: Optional[dict],
                outcome: Outcome) -> Optional[dict]:
    """One measured process; its output is checked against the recorded
    fingerprint and against the run's first repetition (every
    repetition of one seed must repeat it exactly)."""
    outcome.attempted += 1
    try:
        rep = spawn(root, argv, deadline)
    except Failure as exc:
        outcome.fail([str(exc)])
        return None
    problems = workloads.check_sim(rep, expected)
    if first is not None and rep["fingerprint"] != first:
        problems.append("fingerprint differs between repetitions")
    if problems:
        outcome.fail(problems)
    return rep


def run_sim(root: str, workload: str, seed: int, seconds: float,
            trace: bool, deadline: float,
            outcome: Outcome) -> dict[str, Any]:
    """Repeat until the next repetition would overrun ``seconds`` (one
    untraced and one traced repetition with ``trace``)."""
    expected = expected_fingerprint(workload, seed)
    argv = ["sim", workload, str(seed)]
    reps: list[dict] = []
    t0 = time.monotonic()
    while True:
        first = reps[0]["fingerprint"] if reps else None
        rep = sim_attempt(root, argv, deadline, expected, first, outcome)
        if rep is not None:
            reps.append(rep)
        elapsed = time.monotonic() - t0
        if trace or elapsed * (1 + 1 / outcome.attempted) > seconds:
            break
    traced = None
    if trace:
        first = reps[0]["fingerprint"] if reps else None
        traced = sim_attempt(root, argv + ["--trace", OUT_DIR], deadline,
                             expected, first, outcome)
    return {"reps": reps, "traced": traced}


def timing_samples(reps: list[dict], busy_s: str,
                   normalized: bool) -> dict[str, list[float]]:
    """Per-repetition samples of the end-to-end metrics and the raw
    timings; ``busy_s`` names the seconds the messages were simulated
    in.  Without ``normalized`` the end-to-end timings are the raw
    ones."""
    def norm(key: str) -> list[float]:
        if not normalized:
            return [r[key] for r in reps]
        return [reference.normalize(r[key], r["ref_s"]) for r in reps]

    out = {
        "norm_wall_s": norm("wall_s"),
        "norm_msgs_per_s": [r["messages"] / t
                            for r, t in zip(reps, norm(busy_s))],
        "setup_s": norm("setup_s"),
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "raw_wall_s": [r["wall_s"] for r in reps],
        "raw_msgs_per_s": [r["messages"] / r[busy_s] for r in reps],
        "raw_setup_s": [r["setup_s"] for r in reps],
    }
    if normalized:
        out["ref_s"] = [r["ref_s"] for r in reps]
    return out


def layer_metrics(layers: dict, perf: dict, messages: int,
                  lustre: dict, validation: Optional[dict]) -> dict:
    """Self time per layer plus the counters each layer exposes."""
    validation = validation or {"checks": 0, "violations": 0}
    out = {f"{layer}.self_s": layers["self_s"].get(layer, 0.0)
           for layer in SELF_TIME_LAYERS}
    out.update({
        "sim.engine.events": perf["effects_dispatched"],
        "sim.engine.heap_bypass_ratio": stats.ratio(
            perf["heap_bypasses"], perf["heap_pushes"] + perf["heap_bypasses"]),
        "simmpi.messages": messages,
        "simmpi.wildcard_match_ratio": stats.ratio(
            perf["wildcard_matches"],
            perf["exact_matches"] + perf["wildcard_matches"]),
        "simmpi.collectives_macro.rounds": perf["macro_rounds"],
        "simmpi.collectives_macro.coalesced_ratio": stats.ratio(
            perf["messages_coalesced"], messages),
        "mpiio.rounds_planned": perf["rounds_planned"],
        "mpiio.segments_vectorized": perf["segments_vectorized"],
        "lustre.bytes_written": lustre["bytes_written"],
        "lustre.bytes_read": lustre["bytes_read"],
        "validate.checks": validation["checks"],
        "validate.violations": validation["violations"],
        "trace.unattributed_share": layers["unattributed_share"],
    })
    return out


def sim_per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(layer_metrics(traced["layers"], traced["perf"],
                             traced["messages"], traced["lustre"],
                             traced["validation"]))
    out["trace.overhead_ratio"] = stats.ratio(traced["wall_s"],
                                              untraced["wall_s"])
    return out


# ---------------------------------------------------------------------------
# service_sweep: one client process drives fresh servers
# ---------------------------------------------------------------------------
def run_service(root: str, seed: int, seconds: float, trace: bool,
                deadline: float, outcome: Outcome) -> dict[str, Any]:
    argv = ["service", str(seed), str(seconds)]
    if trace:
        argv += ["--trace", OUT_DIR]
    try:
        out = spawn(root, argv, deadline)
    except Failure as exc:
        outcome.attempted += 1
        outcome.fail([str(exc)])
        return {"reps": []}
    for rep in out["reps"]:
        outcome.attempted += rep["attempted"]
        if rep["failed"]:
            outcome.fail(rep["problems"], rep["failed"])
    sizes = [i for i, (got, want) in enumerate(zip(out["direct_bytes"],
                                                   out["expect_bytes"]))
             if got != want]
    if sizes:
        outcome.fail([f"job {i} wrote {out['direct_bytes'][i]} bytes, "
                      f"workload size {out['expect_bytes'][i]}"
                      for i in sizes[:5]], len(sizes))
    expected = expected_fingerprint("service_sweep", seed)
    got = {k: out["fingerprint"].get(k) for k in expected}
    if got != expected:
        outcome.fail([f"fingerprint {got} != recorded {expected}"])
    return out


def service_series(rep: dict) -> dict[str, list[float]]:
    """Per-job samples of one repetition: client-side submit-to-result
    latency per phase, and the server-side phases of executed jobs."""
    jobs = rep["cold"] + rep["warm"]
    executed = [j for j in jobs if j["source"] == "executed"]

    def col(recs: list[dict], key: str) -> list[float]:
        return [j[key] for j in recs if j.get(key) is not None]

    return {"cold_job_s": col(rep["cold"], "latency_s"),
            "warm_job_s": col(rep["warm"], "latency_s"),
            "submit_s": col(jobs, "submit_s"),
            "queue_wait_s": col(executed, "queue_wait_s"),
            "execute_s": col(executed, "execute_s"),
            "notify_s": col(jobs, "notify_s")}


def service_per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    series = service_series(untraced)
    jobs = untraced["cold"] + untraced["warm"]

    def pct(name: str, p: float) -> float:
        return stats.percentile(series[name], p) if series[name] else 0.0

    counters = untraced["counters"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(layer_metrics(traced["layers"], traced["perf"],
                             traced["messages"], traced["lustre"], None))
    out.update({
        "service.jobs_per_s": stats.ratio(untraced["attempted"],
                                          untraced["wall_s"]),
        "service.cold_job_p50_s": pct("cold_job_s", 50),
        "service.cold_job_p90_s": pct("cold_job_s", 90),
        "service.warm_job_p50_s": pct("warm_job_s", 50),
        "service.warm_job_p90_s": pct("warm_job_s", 90),
        "service.submit_s.p50": pct("submit_s", 50),
        "service.queue_wait_s.p50": pct("queue_wait_s", 50),
        "service.queue_wait_s.p90": pct("queue_wait_s", 90),
        "service.execute_s.p50": pct("execute_s", 50),
        "service.execute_s.p90": pct("execute_s", 90),
        "service.notify_s.p50": pct("notify_s", 50),
        "service.cache_hit_ratio": stats.ratio(
            sum(j["source"] == "cache" for j in jobs), len(jobs)),
        "service.coalesced": counters.get("coalesced", 0),
        "service.rejected": counters.get("rejected", 0),
        "trace.overhead_ratio": stats.ratio(traced["wall_s"],
                                            untraced["wall_s"]),
    })
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------
def host_block(root: str) -> dict:
    """Where the numbers were measured; keep wall times of different
    hosts apart.  The workers run on this interpreter and numpy."""
    import platform

    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "git_sha": git_sha(root), "code_sha256": code_sha256(root)}


def measure(root: str, workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[Outcome, dict, dict]:
    """Run the workload; returns the outcome, the metric values and the
    detail for the report."""
    outcome = Outcome()
    deadline = time.monotonic() + seconds + RUN_MARGIN
    detail: dict[str, Any] = {}
    samples: dict[str, list[float]] = {}
    values: dict[str, float] = {}
    if workload == "service_sweep":
        out = run_service(root, seed, seconds, trace, deadline, outcome)
        reps = out["reps"]
        if trace and len(reps) == 2:
            values = service_per_layer(reps[0], reps[1])
            detail["layers"] = reps[1]["layers"]
        elif not trace and reps:
            # its time is requests, wake-ups and pickling between
            # processes, which the kernel does not track: not normalized
            samples = timing_samples(reps, "cold_s", normalized=False)
        if reps:
            detail["service"] = {k: stats.summary(v) for k, v in
                                 service_series(reps[0]).items() if v}
            detail["service_counters"] = reps[0]["counters"]
        detail["fingerprint"] = out.get("fingerprint")
    else:
        out = run_sim(root, workload, seed, seconds, trace, deadline,
                      outcome)
        reps, traced = out["reps"], out["traced"]
        if trace and reps and traced is not None:
            values = sim_per_layer(reps[0], traced)
            detail["layers"] = traced["layers"]
        elif not trace and reps:
            samples = timing_samples(reps, "wall_s", normalized=True)
        detail["fingerprint"] = reps[0]["fingerprint"] if reps else None
    detail["host"] = host_block(root)
    detail["repetitions"] = len(reps)
    if samples:
        values = {k: statistics.median(samples[k]) for k in END_TO_END}
        detail["end_to_end"] = {k: stats.summary(v)
                                for k, v in samples.items()}
        detail["samples"] = samples
    return outcome, values, detail


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = checkout_root()
    os.makedirs(OUT_DIR, exist_ok=True)

    outcome, values, detail = measure(root, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    for problem in outcome.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    if set(values) != set(units):
        print("error: no metrics measured", file=sys.stderr)
        return 1
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "fail_ratio": stats.ratio(outcome.failed, outcome.attempted),
              "problems": outcome.problems, **detail}
    with open(os.path.join(OUT_DIR, f"{stem}.report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    h = detail["host"]
    print(f"host: {h['cpus']} CPUs, Python {h['python']}, numpy "
          f"{h['numpy']}, git {h['git_sha']}, code {h['code_sha256'][:12]}")
    print(f"{'fail_ratio':42s} {report['fail_ratio']:>16.6g} "
          f"({outcome.failed} failed / {outcome.attempted} attempted)")
    e2e = detail.get("end_to_end", {})
    rows = [(name, unit, values[name]) for name, unit in units.items()]
    rows += [(name, unit, e2e[name]["median"])
             for name, unit in RAW_TIMINGS.items() if name in e2e]
    for name, unit, value in rows:
        line = f"{name:42s} {value:>16.6g} {unit}"
        summ = e2e.get(name)
        if summ is not None:
            line += f"  (median of {summ['n']}"
            if "q1" in summ:
                line += f", IQR {summ['q1']:.6g}..{summ['q3']:.6g}"
            if summ["tail"] is not None:
                line += f", p{summ['tail']['p']} {summ['tail']['value']:.6g}"
            line += ")"
        print(line)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
