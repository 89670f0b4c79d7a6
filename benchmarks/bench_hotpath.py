"""Hot-path speedup benchmark with a built-in determinism gate.

Runs the three hot-path configs (:mod:`repro.harness.hotpath`) and
checks two things at once:

1. **Determinism** — every virtual-time metric (bandwidths, elapsed,
   effect and message counts, verified file hash) must equal the
   pre-optimization reference in ``benchmarks/ref_hotpath.json`` bit
   for bit.  Any mismatch is a hard failure: an optimization that
   changes simulated results is a bug, not a speedup.
2. **Wall clock** — host seconds per run, compared against the
   pre-optimization ``baseline_wall_s`` recorded in the same reference
   (captured back-to-back with the optimized timings on one machine).

Results land in ``BENCH_hotpath.json`` at the repo root.

Run directly (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py          # full scale
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke  # CI gate

``--smoke`` shrinks every config to seconds and additionally enforces
the CI regression gate: wall clock must stay within ``REGRESSION_FACTOR``
of ``benchmarks/smoke_baseline.json`` (a soft 1.5x threshold, because CI
runners are noisy and absolute speed varies by host generation; the
determinism assertions are exact everywhere), and events/sec must stay
above the committed ``_events_per_sec_floor`` in the same file.

Both modes also run the **macro equivalence gate**: every config is run
once with ``collective_mode='detailed'`` and once with ``'macro'``, and
all virtual-time metrics except the event count must match bit for bit.
Full mode additionally records the macro-fidelity headline speedup for
``tileio_detailed``, a 4096-rank scale probe
(:func:`repro.harness.hotpath.run_scale`) that only the macro engine
makes tractable, and the same probe at ``SCALE_RANKS`` (wall seconds,
messages and messages per host second under ``scale_sweep``).  Every
record carries the host's CPU count, Python version and git sha.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

from repro.harness.hotpath import CONFIGS, run_config

HERE = pathlib.Path(__file__).resolve().parent
REF = HERE / "ref_hotpath.json"
SMOKE_BASELINE = HERE / "smoke_baseline.json"
OUT = HERE.parent / "BENCH_hotpath.json"

#: smoke wall clock may grow to this multiple of the committed baseline
REGRESSION_FACTOR = 1.5

#: rank counts of the full mode's scale sweep
SCALE_RANKS = (256, 512, 1024)

#: timing repetitions (best-of), keyed by (config, smoke)
REPS_FULL = {"tileio_detailed": 3, "btio_iview": 2, "flash_verified": 2}
REPS_SMOKE = 3


def bench_config(name: str, smoke: bool, reps: int) -> dict:
    """Best-of-``reps`` wall clock plus the final run's perf counters."""
    best_wall = float("inf")
    metrics = None
    perf = None
    for _ in range(reps):
        perf_out: list = []
        t0 = time.perf_counter()
        metrics = run_config(name, smoke=smoke, perf_out=perf_out)
        wall = time.perf_counter() - t0
        perf = perf_out[0]
        best_wall = min(best_wall, wall)
    return {"wall_s": round(best_wall, 4), "metrics": metrics,
            "perf": {
                "effects_dispatched": perf.effects_dispatched,
                "events_per_sec": round(perf.events_per_sec, 1),
                "heap_pushes": perf.heap_pushes,
                "heap_bypasses": perf.heap_bypasses,
                "exact_matches": perf.exact_matches,
                "wildcard_matches": perf.wildcard_matches,
                "segments_vectorized": perf.segments_vectorized,
                "rounds_planned": perf.rounds_planned,
                "macro_rounds": perf.macro_rounds,
                "messages_coalesced": perf.messages_coalesced,
            }}


def check_determinism(key: str, got: dict, expected: dict) -> list[str]:
    """Compare a run's metrics against one reference entry."""
    errors = []
    for field, want in expected.items():
        if field == "baseline_wall_s":
            continue
        if got.get(field) != want:
            errors.append(f"{key}: {field} = {got.get(field)!r}, "
                          f"reference says {want!r}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small configs + CI wall-clock gate")
    args = parser.parse_args(argv)

    ref = json.loads(REF.read_text())["configs"]
    smoke = args.smoke
    results: dict[str, dict] = {}
    errors: list[str] = []
    for name in CONFIGS:
        key = name + ("_smoke" if smoke else "")
        reps = REPS_SMOKE if smoke else REPS_FULL[name]
        r = bench_config(name, smoke, reps)
        expected = ref[key]
        errors.extend(check_determinism(key, r["metrics"], expected))
        baseline = expected.get("baseline_wall_s")
        entry = {
            "wall_s": r["wall_s"],
            "baseline_wall_s": baseline,
            "speedup": (round(baseline / r["wall_s"], 3)
                        if baseline else None),
            "sim_write_bandwidth": r["metrics"]["write_bandwidth"],
            "events": r["metrics"]["events"],
            "messages": r["metrics"]["messages"],
            "file_sha256": r["metrics"]["file_sha256"],
            "perf": r["perf"],
        }
        results[key] = entry
        status = "ok" if not errors else "DETERMINISM MISMATCH"
        print(f"{key:>24}: wall {entry['wall_s']:.3f}s  "
              f"baseline {baseline}s  speedup {entry['speedup']}x  "
              f"[{status}]")

    # macro equivalence gate: run every config under an explicit
    # 'detailed' and 'macro' override; every virtual-time field except
    # the event count must match bit for bit (the macro engine replays
    # the same physics through far fewer scheduler events)
    equiv: dict = {}
    for name in CONFIGS:
        key = name + ("_smoke" if smoke else "")
        det = run_config(name, smoke=smoke, collective_mode="detailed")
        reps_m = 3 if (not smoke and name == "tileio_detailed") else 1
        mac = None
        mac_wall = float("inf")
        for _ in range(reps_m):
            t0 = time.perf_counter()
            mac = run_config(name, smoke=smoke, collective_mode="macro")
            mac_wall = min(mac_wall, time.perf_counter() - t0)
        diffs = [k for k in det if k != "events" and det[k] != mac[k]]
        equiv[key] = {
            "bit_identical": not diffs,
            "events_detailed": det["events"],
            "events_macro": mac["events"],
            "macro_wall_s": round(mac_wall, 4),
        }
        print(f"{key:>24}: macro {'==' if not diffs else '!='} detailed  "
              f"events {det['events']} -> {mac['events']}  "
              f"macro wall {mac_wall:.3f}s")
        if diffs:
            errors.append(f"{key}: macro/detailed metrics differ in "
                          f"{diffs} (reference says bit-identical)")

    macro_speedup = None
    if not smoke:
        baseline = ref["tileio_detailed"].get("baseline_wall_s")
        mw = equiv["tileio_detailed"]["macro_wall_s"]
        if baseline:
            macro_speedup = {
                "config": "tileio_detailed",
                "baseline_wall_s": baseline,
                "macro_wall_s": mw,
                "speedup": round(baseline / mw, 3),
            }
            print(f"macro headline: tileio_detailed "
                  f"{macro_speedup['speedup']}x vs pre-optimization "
                  "engine")

    scale = sweep = None
    if not smoke:
        from repro.harness.hotpath import run_scale

        scale = run_scale(4096)
        print(f"scale probe: {scale['nprocs']} ranks in "
              f"{scale['wall_s']:.1f}s  "
              f"({scale['events_per_sec']:.0f} events/s, "
              f"{scale['messages']} messages)")
        sweep = []
        for n in SCALE_RANKS:
            r = run_scale(n)
            sweep.append({"nprocs": n, "wall_s": r["wall_s"],
                          "messages": r["messages"],
                          "msgs_per_s": round(r["messages"] / r["wall_s"], 1),
                          "elapsed_total": r["elapsed_total"]})
            print(f"scale sweep: {n} ranks in {r['wall_s']:.2f}s  "
                  f"({sweep[-1]['msgs_per_s']:.0f} msgs/s)")

    gate: dict = {}
    if smoke:
        base = json.loads(SMOKE_BASELINE.read_text())
        eps_floor = base.get("_events_per_sec_floor")
        for key, entry in results.items():
            limit = base[key] * REGRESSION_FACTOR
            ok = entry["wall_s"] <= limit
            gate[key] = {"wall_s": entry["wall_s"],
                         "baseline_wall_s": base[key],
                         "limit_s": round(limit, 4), "ok": ok}
            if not ok:
                errors.append(
                    f"{key}: wall {entry['wall_s']:.3f}s exceeds "
                    f"{REGRESSION_FACTOR}x smoke baseline "
                    f"({base[key]}s -> limit {limit:.3f}s)")
            if eps_floor:
                eps = entry["perf"]["events_per_sec"]
                gate[key]["events_per_sec"] = eps
                gate[key]["events_per_sec_floor"] = eps_floor
                if eps < eps_floor:
                    gate[key]["ok"] = False
                    errors.append(
                        f"{key}: {eps:.0f} events/s below the committed "
                        f"floor of {eps_floor} (engine throughput "
                        "regression)")

    payload = {
        "benchmark": "hotpath",
        "mode": "smoke" if smoke else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "git_sha": subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True).stdout.strip() or None,
        "determinism_ok": not any("MISMATCH" in e or "reference says" in e
                                  for e in errors),
        "results": results,
        "macro_equivalence": equiv,
    }
    if macro_speedup:
        payload["macro_speedup"] = macro_speedup
    if scale:
        payload["scale_macro"] = scale
        payload["scale_sweep"] = sweep
    if gate:
        payload["smoke_gate"] = gate
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")

    if errors:
        for e in errors:
            print(f"FAIL: {e}", file=sys.stderr)
        return 1
    full_head = results.get("tileio_detailed")
    if full_head and full_head["speedup"] is not None:
        print(f"headline: tileio_detailed {full_head['speedup']}x "
              "vs pre-optimization engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
