"""Shardability analysis: when can the event space be partitioned?

ParColl's structure is the unlock (paper §3, ROADMAP item 1): between
global synchronizations the FA subgroups are causally independent — a
subgroup's exchange traffic, OST writes and subgroup collectives never
touch another subgroup's ranks.  The event space therefore partitions
cleanly along subgroup boundaries: one engine shard per worker process,
each owning a contiguous block of subgroups and their ranks' NIC/CPU
resources.

:func:`analyze` decides whether a configuration satisfies the partition
contract.  Every condition is conservative — if anything could make two
shards exchange per-message traffic, the plan falls back to
``effective=1`` (run unsharded) and records why, so a ``--shards 4``
request on an unshardable config degrades gracefully instead of
erroring mid-run.

The contract:

* the workload's collective-I/O protocol is ``parcoll`` with an explicit
  ``parcoll_ngroups`` hint — the subgroup boundaries must be known
  up front, before the run, because the shard partition *is* the
  subgroup partition;
* ``parcoll_ngroups`` divides evenly over the shards and ``nprocs`` over
  the groups, with block rank mapping, so each shard owns a contiguous
  world-rank range aligned to subgroup boundaries;
* a shard's rank range covers whole nodes (``cores_per_node`` divides
  the ranks per shard), so NIC/CPU :class:`FIFOResource` state is never
  shared across shards;
* the fidelity policy gives ``analytic`` to every world-communicator
  collective (``analytic``, ``scoped`` with ``world=analytic``, or any
  other spelling whose world-reachable rules all pick it), because
  only analytic synchronization sites can be bridged across engines by
  merging (value, arrival) sets — per-message detailed traffic cannot;
* no torus topology: torus links are machine-global resources with no
  per-shard ownership.

Shared-OST reservations, the MDS, Lustre lock-manager state and fault
RPC schedules remain machine-global; the coordinator owns the one real
:class:`~repro.lustre.LustreFS` and shards reach it through timestamped
round trips (see :mod:`repro.shard.coordinator`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import MPIError
from repro.simmpi.backends import resolve_backend


@dataclass(frozen=True)
class ShardPlan:
    """The partition decision for one configuration.

    ``effective`` is the shard count actually used: equal to ``shards``
    when the config satisfies the partition contract, else 1 with
    ``reason`` naming the first violated condition.
    """

    shards: int
    effective: int
    reason: Optional[str] = None
    #: FA subgroups owned by each shard (0 when unsharded)
    groups_per_shard: int = 0
    #: world ranks owned by each shard (0 when unsharded)
    ranks_per_shard: int = 0

    @property
    def active(self) -> bool:
        return self.effective > 1

    def owned_ranks(self, shard_id: int) -> range:
        """The contiguous world-rank range shard ``shard_id`` owns."""
        lo = shard_id * self.ranks_per_shard
        return range(lo, lo + self.ranks_per_shard)

    def shard_of(self, world_rank: int) -> int:
        return world_rank // self.ranks_per_shard


def workload_hints_of(program: Any) -> Mapping[str, Any]:
    """Best-effort extraction of the workload's I/O hints.

    Registered workload programs are ``functools.partial(fn, cfg)`` with
    ``cfg`` a workload config dataclass carrying a ``hints`` mapping;
    anything else yields no hints (and thus an unsharded fallback unless
    the config names the protocol itself).
    """
    if isinstance(program, functools.partial) and program.args:
        cfg = program.args[0]
        hints = getattr(cfg, "hints", None)
        if isinstance(hints, Mapping):
            return hints
    return {}


def analyze(config: Any, workload_hints: Optional[Mapping[str, Any]] = None
            ) -> ShardPlan:
    """Decide whether ``config`` can run sharded; never raises.

    ``workload_hints`` are the hints the workload will open its files
    with (see :func:`workload_hints_of`); the platform-default protocol
    from ``config.protocol`` applies when the hints name none.
    """
    hints = dict(workload_hints or {})
    shards = int(getattr(config, "shards", 1) or 1)

    def fallback(reason: str) -> ShardPlan:
        return ShardPlan(shards=shards, effective=1, reason=reason)

    if shards <= 1:
        return ShardPlan(shards=max(1, shards), effective=1)
    protocol = hints.get("protocol") or config.protocol
    if protocol != "parcoll":
        return fallback(
            f"protocol {protocol!r} has no static subgroup partition "
            "(sharding requires 'parcoll')")
    ngroups = hints.get("parcoll_ngroups")
    if not ngroups or int(ngroups) <= 1:
        return fallback(
            "parcoll_ngroups hint missing or 1: subgroup boundaries "
            "unknown before the run")
    ngroups = int(ngroups)
    if ngroups % shards != 0:
        return fallback(
            f"{ngroups} FA subgroups do not divide over {shards} shards")
    if config.nprocs % ngroups != 0:
        return fallback(
            f"nprocs={config.nprocs} does not divide into "
            f"{ngroups} equal subgroups")
    if config.mapping != "block":
        return fallback(
            f"mapping {config.mapping!r} scatters a subgroup's ranks "
            "across nodes shared with other subgroups")
    ranks_per_shard = config.nprocs // shards
    if ranks_per_shard % config.cores_per_node != 0:
        return fallback(
            f"shard boundary splits a node ({ranks_per_shard} ranks per "
            f"shard, {config.cores_per_node} cores per node)")
    if config.use_torus:
        return fallback("torus links are machine-global resources")
    try:
        world_fids = resolve_backend(config.collective_mode).world_fidelities()
    except MPIError as exc:
        return fallback(f"collective_mode: {exc}")
    if world_fids != {"analytic"}:
        return fallback(
            f"collective_mode {config.collective_mode!r} runs "
            "world-spanning collectives per-message; bridging needs "
            "every world collective at 'analytic' (e.g. 'scoped')")
    return ShardPlan(shards=shards, effective=shards,
                     groups_per_shard=ngroups // shards,
                     ranks_per_shard=ranks_per_shard)
