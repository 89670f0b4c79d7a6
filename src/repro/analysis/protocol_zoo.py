"""Race every registered collective-I/O protocol and pick winners.

The protocol registry (:mod:`repro.mpiio.protocols`) makes collective
strategies interchangeable; this module answers the question the seam
exists for: *which protocol should this workload use?*

:func:`protocol_zoo` runs one leaderboard — every registered protocol
against every workload pattern (dense tile, contiguous IOR, BT-IO's
nested-strided 3D dumps, Flash's many small noncontiguous datasets) on
one platform.  Protocols with a tunable partition depth (``parcoll``,
and ``nodeagg`` composed with FA partitioning) are not raced at an
arbitrary group count: the advisor tunes each with
:meth:`~repro.harness.sweep.Sweep.golden_section_max` over the
power-of-two ladder first, so the leaderboard compares every protocol
at its best.  The per-pattern winner is the advisor's pick.

All runs evaluate through the executor batch machinery, so the whole
(pattern x protocol) grid plus the golden-section probes share the run
cache and any ``REPRO_JOBS`` parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.harness.parallel import (ExperimentExecutor, ExperimentTask,
                                    default_executor)
from repro.harness.report import format_table, mb_per_s
from repro.harness.runner import ExperimentConfig, RunResult
from repro.harness.sweep import Sweep
from repro.mpiio.protocols import available_protocols
from repro.workloads import (BTIOConfig, FlashIOConfig, IORConfig,
                             TileIOConfig)

#: protocols whose performance hinges on a group count the advisor tunes
TUNED = {"parcoll": "parcoll", "nodeagg+fa": "nodeagg"}


@dataclass
class ZooEntry:
    """One (pattern, protocol) cell of the leaderboard."""

    pattern: str
    #: display label ('parcoll', 'nodeagg+fa', 'listio', ...)
    label: str
    #: the protocol spec the run used (ExperimentConfig.protocol)
    protocol: str
    #: extra MPI-IO hints the run used (tuned group count, ...)
    hints: dict = field(default_factory=dict)
    write_mb_s: float = 0.0
    #: None when the cell read no bytes (write-only patterns)
    read_mb_s: Optional[float] = None
    sync_share: float = 0.0
    elapsed: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {"pattern": self.pattern, "label": self.label,
                "protocol": self.protocol, "hints": dict(self.hints),
                "write_mb_s": round(self.write_mb_s, 3),
                "read_mb_s": (None if self.read_mb_s is None
                              else round(self.read_mb_s, 3)),
                "sync_share": round(self.sync_share, 4),
                "elapsed": round(self.elapsed, 6)}


@dataclass
class ZooLeaderboard:
    """The full race: every entry plus the advisor's per-pattern picks."""

    nprocs: int
    scale: str
    entries: list[ZooEntry] = field(default_factory=list)
    #: pattern -> winning entry (advisor pick, by write bandwidth)
    picks: dict[str, ZooEntry] = field(default_factory=dict)

    def pattern_entries(self, pattern: str) -> list[ZooEntry]:
        return [e for e in self.entries if e.pattern == pattern]

    def summary(self) -> str:
        headers = ["pattern", "protocol", "write MB/s", "read MB/s",
                   "sync %", "pick"]
        rows: list[list[Any]] = []
        for e in self.entries:
            pick = self.picks.get(e.pattern)
            rows.append([
                e.pattern, e.label, round(e.write_mb_s, 1),
                "-" if e.read_mb_s is None else round(e.read_mb_s, 1),
                round(100 * e.sync_share, 1),
                "<- best" if pick is e else "",
            ])
        out = format_table(
            headers, rows,
            title=f"protocol zoo ({self.nprocs} procs, scale={self.scale})")
        lines = [out, "", "  advisor picks:"]
        for pattern, e in self.picks.items():
            hint_s = (" " + " ".join(f"{k}={v}" for k, v in e.hints.items())
                      if e.hints else "")
            lines.append(f"    {pattern}: {e.label}{hint_s} "
                         f"({round(e.write_mb_s, 1)} MB/s write)")
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {"nprocs": self.nprocs, "scale": self.scale,
                "entries": [e.to_dict() for e in self.entries],
                "picks": {p: e.to_dict() for p, e in self.picks.items()}}


def zoo_patterns(nprocs: int, scale: str = "small") -> dict[str, tuple]:
    """The leaderboard's workload patterns: name -> (workload, config).

    BT-IO needs a square process count; its pattern is skipped when
    ``nprocs`` has no integer square root.
    """
    if scale == "paper":
        tile = TileIOConfig(tile_rows=1024, tile_cols=768, element_size=64,
                            mode="both")
        ior = IORConfig(block_size=1 << 20, transfer_size=1 << 18,
                        read_back=True)
        flash = FlashIOConfig(nxb=8, nyb=8, nzb=8, blocks_per_proc=4,
                              nvars=24)
    else:
        tile = TileIOConfig(tile_rows=128, tile_cols=96, element_size=64,
                            mode="both")
        ior = IORConfig(block_size=1 << 18, transfer_size=1 << 16,
                        read_back=True)
        flash = FlashIOConfig(nxb=4, nyb=4, nzb=4, blocks_per_proc=2,
                              nvars=4)
    patterns = {"tile": ("tile_io", tile), "ior": ("ior", ior),
                "flash": ("flash_io", flash)}
    q = int(round(nprocs ** 0.5))
    if q * q == nprocs:
        grid = 2 * q if scale != "paper" else 4 * q
        patterns["btio"] = ("btio", BTIOConfig(grid_points=grid, nsteps=2))
    return patterns


def _measure(pattern: str, label: str, protocol: str, hints: dict,
             res: RunResult) -> ZooEntry:
    return ZooEntry(
        pattern=pattern, label=label, protocol=protocol, hints=hints,
        write_mb_s=mb_per_s(res.write_bandwidth),
        read_mb_s=(mb_per_s(res.read_bandwidth)
                   if any(st.bytes_read for st in res.per_rank) else None),
        sync_share=res.category_share("sync"),
        elapsed=res.elapsed_total)


def _with_hints(wl_cfg: Any, hints: dict) -> Any:
    merged = dict(wl_cfg.hints or {})
    merged.update(hints)
    return replace(wl_cfg, hints=merged or None)


def protocol_zoo(nprocs: int = 16, scale: str = "small",
                 config: Optional[ExperimentConfig] = None,
                 max_evals: int = 6,
                 executor: Optional[ExperimentExecutor] = None
                 ) -> ZooLeaderboard:
    """Race every registered protocol across the workload patterns.

    Flat protocols run once per pattern; tunable ones (``parcoll``,
    ``nodeagg`` with FA partitioning) are golden-section tuned over the
    power-of-two group ladder (``max_evals`` fresh runs each) and enter
    the leaderboard at their optimum.  The advisor's pick per pattern is
    the entry with the best write bandwidth.
    """
    ex = executor or default_executor()
    base = config or ExperimentConfig(nprocs=nprocs)
    base = replace(base, nprocs=nprocs)
    board = ZooLeaderboard(nprocs=nprocs, scale=scale)

    for pattern, (workload, wl_cfg) in zoo_patterns(nprocs, scale).items():
        # flat protocols: one batch per pattern
        flat = [p for p in available_protocols() if p not in ("parcoll",)]
        tasks = [ExperimentTask(replace(base, protocol=spec), workload,
                                wl_cfg) for spec in flat]
        for spec, res in zip(flat, ex.run_many(tasks)):
            board.entries.append(_measure(pattern, spec, spec, {}, res))

        # tuned protocols: golden-section over the group-count ladder
        for label, spec in TUNED.items():
            def task(g: int, _spec=spec) -> ExperimentTask:
                return ExperimentTask(
                    replace(base, protocol=_spec), workload,
                    _with_hints(wl_cfg, {"parcoll_ngroups": g}))

            sweep = Sweep(name=f"{pattern}:{label}", task=task, executor=ex)
            pt = sweep.golden_section_max(2, max(2, nprocs // 2),
                                          max_evals=max_evals)
            board.entries.append(_measure(
                pattern, label, spec, {"parcoll_ngroups": pt.value},
                pt.result))

        board.picks[pattern] = max(board.pattern_entries(pattern),
                                   key=lambda e: e.write_mb_s)
    return board
