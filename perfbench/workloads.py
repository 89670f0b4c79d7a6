"""The three simulation workloads: configs, one timed run, output checks.

Each workload builds its platform from ``--seed``: the seed feeds
``ExperimentConfig.seed`` (OST service-time jitter) and, on
``btio_verified_rw``, ``BTIOConfig.seed`` (per-rank compute jitter).
Nothing here imports ``repro`` at module level, so a run can time the
import as part of its set-up.  The fourth workload, ``service_sweep``,
lives in :mod:`service_sweep`.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Optional

#: the seed whose virtual-time fingerprints ``fingerprints.json`` records
DEFAULT_SEED = 0
#: ``repro.perf`` counters each run reports for the per-layer metrics
PERF_COUNTERS = ("effects_dispatched", "heap_pushes", "heap_bypasses",
                 "exact_matches", "wildcard_matches", "segments_vectorized",
                 "rounds_planned", "macro_rounds", "messages_coalesced")


def _ext2ph_macro(seed: int):
    """The O(p^2) ext2ph alltoall runs through the macro walker and the
    NIC FIFO chains; engine dispatch and per-message matching idle."""
    from repro.harness.hotpath import scale_config

    return _seeded(scale_config(256), seed)


def _parcoll_detailed(seed: int):
    """Per-message MPI and engine dispatch inside 4 ParColl FA subgroups
    of 128 ranks; the macro walker is never entered."""
    from repro.harness.hotpath import shard_scale_config

    return _seeded(shard_scale_config(512, 1), seed)


def _btio_verified_rw(seed: int):
    """Real bytes through two-phase, intermediate views, the Lustre byte
    store and the oracle, with a collective read-back."""
    from functools import partial

    from repro.harness.runner import ExperimentConfig
    from repro.workloads import BTIOConfig, btio_program

    cfg = ExperimentConfig(
        nprocs=64, collective_mode="analytic", seed=seed, validate=True,
        lustre={"store_data": True, "n_osts": 64,
                "default_stripe_count": 64,
                "default_stripe_size": 4 << 10, "max_rpc_size": 16 << 10})
    wl = BTIOConfig(grid_points=64, nsteps=3, compute_seconds=0.05,
                    compute_jitter=0.03, verify_read=True, seed=seed,
                    hints={"protocol": "parcoll", "parcoll_ngroups": 4})
    return cfg, wl, partial(btio_program, wl)


def _seeded(spec, seed: int):
    import dataclasses

    cfg, wl, program = spec
    return dataclasses.replace(cfg, seed=seed), wl, program


SPECS = {
    "ext2ph_macro": _ext2ph_macro,
    "parcoll_detailed": _parcoll_detailed,
    "btio_verified_rw": _btio_verified_rw,
}
SIM_WORKLOADS = tuple(SPECS)


def file_sha256(fs, name: str) -> str:
    """sha256 of one stored file's bytes; empty in model mode, where no
    bytes are kept."""
    if not fs.params.store_data:
        return ""
    return hashlib.sha256(fs.lookup(name).contents().tobytes()).hexdigest()


def run_sim(name: str, seed: int, tracer=None) -> dict[str, Any]:
    """Set up and run one workload once; returns timings, counters and
    the virtual-time fingerprint.  With ``tracer`` the simulation runs
    under its profile hook (set-up is never traced)."""
    t0 = time.perf_counter()
    from repro.harness.runner import RunResult
    from repro.perf import collect

    cfg, wl, program = SPECS[name](seed)
    world, fs, io = cfg.build()
    setup_s = time.perf_counter() - t0
    written = wl.total_bytes(cfg.nprocs)
    expect = {"bytes_written": written,
              "bytes_read": written if getattr(wl, "verify_read", False)
              else 0}

    def rank_main(comm):
        return (yield from program(comm, io))

    t1 = time.perf_counter()
    if tracer is None:
        per_rank = world.launch(rank_main)
    else:
        tracer.run_id = f"{name}-seed{seed}"
        per_rank = tracer.run(world.launch, rank_main)
    wall_s = time.perf_counter() - t1
    perf = collect(world, wall_seconds=wall_s)
    validation = (io.validator.report.to_dict()
                  if io.validator is not None else None)
    res = RunResult(config=cfg, per_rank=per_rank, breakdown={},
                    events=world.engine.effects_dispatched,
                    messages=world.network.messages_sent,
                    elapsed_total=world.engine.now)
    fingerprint = {
        "elapsed_total": repr(res.elapsed_total),
        "write_bandwidth": repr(res.write_bandwidth),
        "read_bandwidth": repr(res.read_bandwidth),
        "messages": res.messages,
        "bytes_written": int(sum(s.bytes_written for s in per_rank)),
        "bytes_read": int(sum(s.bytes_read for s in per_rank)),
        "file_sha256": file_sha256(fs, wl.filename),
        "violations": (len(validation["violations"])
                       if validation is not None else 0),
    }
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "messages": fingerprint["messages"],
        "expect": expect,
        "fingerprint": fingerprint,
        "perf": {k: getattr(perf, k) for k in PERF_COUNTERS},
        "lustre": {"bytes_written": fs.bytes_written,
                   "bytes_read": fs.bytes_read},
        "validation": ({"checks": sum(validation["checks"].values()),
                        "violations": len(validation["violations"])}
                       if validation is not None else None),
    }


def check_sim(result: dict[str, Any],
              expected: Optional[dict[str, Any]]) -> list[str]:
    """Output check of one run: the problems found (empty when clean).

    Bytes must equal the workload size and the oracle must be clean on
    every seed.  ``expected`` holds the fingerprint fields this seed must
    match exactly (all of them on the default seed, the seed-independent
    ones elsewhere), or None.
    """
    fp = result["fingerprint"]
    problems = []
    for key in ("bytes_written", "bytes_read"):
        if fp[key] != result["expect"][key]:
            problems.append(f"{key} {fp[key]} != workload size "
                            f"{result['expect'][key]}")
    if fp["violations"]:
        problems.append(f"oracle reported {fp['violations']} violation(s)")
    if expected is not None:
        for key, want in expected.items():
            if fp.get(key) != want:
                problems.append(f"fingerprint {key}: {fp.get(key)!r} "
                                f"!= recorded {want!r}")
    return problems
