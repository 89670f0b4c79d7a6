"""Hot-path benchmark configurations and the determinism contract.

Three workloads exercise the optimized simulation core end to end:

* ``tileio_detailed`` — fig-7-style tile-IO collective write with
  detailed collectives at 256 ranks (the wall-clock headline number);
* ``btio_iview`` — BT-IO under ParColl with intermediate file views;
* ``flash_verified`` — Flash checkpoint with real bytes stored, so the
  run can be checked down to a file-content hash.

Each entry runs on the runner's single-engine path, which also hands
back the Lustre file system — verified-mode configs hash the actual file
bytes, which is the strongest bit-identical-results check we have.
``benchmarks/ref_hotpath.json``
records the metrics of every config as produced by the unoptimized
pre-optimization engine; :func:`run_config` must keep matching it
exactly.

The ``smoke`` variants shrink the rank counts so CI can run the same
code paths in seconds; the full variants are what ``BENCH_hotpath.json``
records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from functools import partial
from typing import Any, Optional

from repro.harness.runner import (ExperimentConfig, _run_single,
                                  run_experiment)
from repro.perf import PerfStats
from repro.workloads import (BTIOConfig, FlashIOConfig, TileIOConfig,
                             btio_program, flash_io_program, tile_io_program)


def _tileio_detailed(smoke: bool) -> tuple[ExperimentConfig, Any, Any]:
    """Fig-7-style tile-IO collective write, detailed collectives."""
    nprocs = 32 if smoke else 256
    cfg = ExperimentConfig(nprocs=nprocs, collective_mode="detailed",
                           lustre={"n_osts": 16, "default_stripe_count": 16})
    wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                      hints={"protocol": "ext2ph"})
    return cfg, wl, partial(tile_io_program, wl)


def _btio_iview(smoke: bool) -> tuple[ExperimentConfig, Any, Any]:
    """BT-IO under ParColl with intermediate file views (pattern c)."""
    nprocs = 16 if smoke else 64
    ngroups = 2 if smoke else 4
    cfg = ExperimentConfig(nprocs=nprocs, collective_mode="analytic",
                           lustre={"n_osts": 16, "default_stripe_count": 16})
    wl = BTIOConfig(grid_points=144, nsteps=3, compute_seconds=0.05,
                    compute_jitter=0.03,
                    hints={"protocol": "parcoll",
                           "parcoll_ngroups": ngroups})
    return cfg, wl, partial(btio_program, wl)


def _flash_verified(smoke: bool) -> tuple[ExperimentConfig, Any, Any]:
    """Flash checkpoint in verified mode: real bytes move end to end."""
    nprocs = 8 if smoke else 16
    cfg = ExperimentConfig(nprocs=nprocs, collective_mode="analytic",
                           lustre={"store_data": True, "n_osts": 8,
                                   "default_stripe_count": 8})
    wl = FlashIOConfig(nxb=8, nyb=8, nzb=8, blocks_per_proc=4, nvars=6,
                       hints={"protocol": "ext2ph"})
    return cfg, wl, partial(flash_io_program, wl)


CONFIGS = {
    "tileio_detailed": _tileio_detailed,
    "btio_iview": _btio_iview,
    "flash_verified": _flash_verified,
}


def scale_config(nprocs: int = 4096) -> tuple[ExperimentConfig, Any, Any]:
    """Tile-IO at thousands of ranks — the macro-fidelity scale probe.

    Deliberately NOT in :data:`CONFIGS`: it has no reference entry in
    ``ref_hotpath.json`` (a per-message detailed run at this size takes
    tens of minutes, so there is nothing to gate against).  The macro
    backend makes it tractable; ``BENCH_hotpath.json`` records the wall
    time and events/sec as the scale headline.
    """
    cfg = ExperimentConfig(nprocs=nprocs, collective_mode="macro",
                           lustre={"n_osts": 32,
                                   "default_stripe_count": 32})
    wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                      hints={"protocol": "ext2ph"})
    return cfg, wl, partial(tile_io_program, wl)


def run_scale(nprocs: int = 4096,
              collective_mode: Optional[str] = None) -> dict:
    """Run the scale probe; returns metrics plus host wall seconds of
    the simulation itself (platform set-up excluded)."""
    cfg, _wl, program = scale_config(nprocs)
    if collective_mode is not None:
        cfg = dataclasses.replace(cfg, collective_mode=collective_mode)
    result = run_experiment(cfg, program)
    wall = result.perf.wall_seconds
    return {
        "nprocs": nprocs,
        "wall_s": round(wall, 4),
        "events": result.events,
        "events_per_sec": round(result.events / wall, 1) if wall else 0.0,
        "messages": result.messages,
        "elapsed_total": repr(result.elapsed_total),
        "bytes_written": int(sum(s.bytes_written for s in result.per_rank)),
    }


def shard_scale_config(nprocs: int = 4096,
                       shards: int = 1) -> tuple[ExperimentConfig, Any, Any]:
    """Parcoll tile-IO with detailed subgroup physics — the shard probe.

    The configuration is deliberately shard-friendly: parcoll with one
    FA subgroup cluster per shard, world-spanning collectives analytic
    (bridged across shards), everything inside a subgroup at detailed
    per-message fidelity.  At 4096 ranks a single engine carries the
    whole detailed event stream; sharding splits it into independent
    per-subgroup streams, which is where the parallel speedup comes
    from.  ``BENCH_sharded_scaling.json`` records the wall times.
    """
    # one FA subgroup per 128 ranks: the detailed exchange is quadratic
    # in group size, so fixed group width keeps the single-engine
    # baseline tractable while still giving shards real work to split
    ngroups = max(4, nprocs // 128) if nprocs >= 512 else 4
    cfg = ExperimentConfig(
        nprocs=nprocs, shards=shards,
        collective_mode="scoped:world=analytic,default=detailed",
        lustre={"n_osts": 32, "default_stripe_count": 32})
    wl = TileIOConfig(tile_rows=128, tile_cols=96, element_size=64,
                      hints={"protocol": "parcoll",
                             "parcoll_ngroups": ngroups})
    return cfg, wl, partial(tile_io_program, wl)


def run_shard_scale(nprocs: int = 4096, shards: int = 1,
                    collective_mode: Optional[str] = None) -> dict:
    """Run the shard probe through :func:`run_experiment`; the sharded
    dispatch (and its single-engine fallback) is part of what is being
    measured.  Returns virtual metrics plus host wall seconds and the
    run's shard observability block."""
    cfg, _wl, program = shard_scale_config(nprocs, shards)
    if collective_mode is not None:
        cfg = dataclasses.replace(cfg, collective_mode=collective_mode)
    t0 = time.perf_counter()
    result = run_experiment(cfg, program)
    wall = time.perf_counter() - t0
    return {
        "nprocs": nprocs,
        "shards": shards,
        "wall_s": round(wall, 4),
        "events": result.events,
        "events_per_sec": round(result.events / wall, 1) if wall else 0.0,
        "messages": result.messages,
        "elapsed_total": repr(result.elapsed_total),
        "write_bandwidth": repr(result.write_bandwidth),
        "shard": result.perf.shard if result.perf is not None else None,
    }


def run_config(name: str, smoke: bool = False,
               perf_out: Optional[list] = None,
               collective_mode: Optional[str] = None) -> dict:
    """Run one named config; returns exact virtual-time metrics.

    ``file_sha256`` hashes the concatenated contents of every verified
    file (sorted by name); model-mode runs report an empty string.  If
    ``perf_out`` is given, the run's :class:`PerfStats` (including host
    wall seconds) is appended to it.  ``collective_mode`` overrides the
    config's collective backend spec — the macro-equivalence gate uses
    it to run the same workload under 'detailed' and 'macro'.
    """
    cfg, _wl, program = CONFIGS[name](smoke)
    if collective_mode is not None:
        cfg = dataclasses.replace(cfg, collective_mode=collective_mode)
    res, fs = _run_single(cfg, program)
    if perf_out is not None:
        perf_out.append(res.perf)
    digest = ""
    if fs.params.store_data:
        h = hashlib.sha256()
        for fname in sorted(fs._files):
            f = fs._files[fname]
            h.update(fname.encode())
            h.update(f.store.snapshot().tobytes())
        digest = h.hexdigest()
    return {
        "write_bandwidth": repr(res.write_bandwidth),
        "read_bandwidth": repr(res.read_bandwidth),
        "elapsed_total": repr(res.elapsed_total),
        "events": res.events,
        "messages": res.messages,
        "bytes_written": int(sum(s.bytes_written for s in res.per_rank)),
        "file_sha256": digest,
    }


def profile_config(name: str, smoke: bool = False, top: int = 25,
                   sort: str = "cumulative",
                   shards: int = 1) -> tuple[str, PerfStats]:
    """Run one named config under cProfile.

    Returns the formatted top-``top`` hot-function table and the run's
    :class:`PerfStats` (wall seconds here include profiler overhead).
    With ``shards > 1`` the run goes through :func:`run_experiment` so
    the sharded dispatch applies; non-parcoll configs fall back to one
    engine and the perf block records the reason.  Profiling then only
    sees the coordinator side — the shard engines live in worker
    processes outside cProfile's reach.
    """
    from repro.perf import profile_experiment

    perf_out: list = []
    if shards > 1:
        cfg, _wl, program = CONFIGS[name](smoke)
        cfg = dataclasses.replace(cfg, shards=shards)

        def job() -> None:
            result = run_experiment(cfg, program)
            perf_out.append(result.perf)
    else:
        def job() -> None:
            run_config(name, smoke=smoke, perf_out=perf_out)
    table = profile_experiment(job, top=top, sort=sort)
    return table, perf_out[0]
