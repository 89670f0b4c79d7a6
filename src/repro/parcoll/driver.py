"""The ParColl driver: plan, split, distribute, run ext2ph per subgroup.

Control flow of one partitioned collective call (all ranks of the parent
communicator participate):

1. allgather ``(lo, hi, nbytes)`` access extents ('sync' — one global
   collective, the only one ParColl keeps at full scale);
2. every rank computes the identical :class:`PartitionPlan` from the
   gathered extents (pure function — no further agreement traffic);
3. subgroup communicators come from ``comm.split`` keyed by the plan; they
   are cached on the shared file handle, so a repeated pattern (every
   checkpoint, every BT-IO step) pays the split cost once;
4. the parent's aggregator list (``cb_nodes`` / ``cb_config_ranks`` hints)
   is distributed over subgroups per Section 4.2;
5. each subgroup runs the *unmodified* extended two-phase engine over its
   own File Area — with the intermediate-view translator when the plan
   demands it.

ParColl needs no macro-coalescing code of its own: subgroup
communicators inherit the parent's fidelity policy, so under
the ``macro`` exchange fidelity the per-subgroup ext2ph shuffle rides
the same batched transfer schedules (``Communicator.isend_batch``) and
macro collective rounds as the flat protocol.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.datatypes.flatten import Segments
from repro.errors import ParCollError
from repro.mpiio.aggregation import default_aggregators
from repro.mpiio.two_phase import IOEnv, collective_read, collective_write
from repro.parcoll.aggregator_dist import distribute_aggregators
from repro.parcoll.intermediate_view import IntermediateView
from repro.parcoll.partition import PartitionPlan, plan_partition
from repro.simmpi.reduce_ops import MAX


def _stale_reason(plan: PartitionPlan, planned: tuple, lo: int, hi: int,
                  nbytes: int) -> Optional[str]:
    """Why a cached grouping no longer matches this access (None = fits).

    Intermediate-view plans require the same per-rank byte counts, and
    direct plans require either unchanged extents or per-rank
    *contiguous* accesses — a contiguous access that merely moved or
    resized regroups safely under the documented rank-monotone contract
    (Flash's successive datasets); a fragmented access whose extents
    drift would silently run every subgroup over a stale File Area
    grouping.
    """
    if plan.uses_intermediate_view:
        if nbytes != planned[2]:
            return ("access size changed under parcoll_replan='once' "
                    "with intermediate file views; set "
                    "parcoll_replan='always' (or 'auto') for "
                    "non-stationary patterns")
        return None
    if (lo, hi, nbytes) != planned:
        held_contig = planned[1] - planned[0] == planned[2]
        now_contig = hi - lo == nbytes or nbytes == 0
        if not (held_contig and now_contig):
            return ("extents of a non-contiguous access changed under "
                    f"parcoll_replan='once' (planned lo/hi/nbytes "
                    f"{planned}, now {(lo, hi, nbytes)}); the cached "
                    "grouping no longer matches the pattern — set "
                    "parcoll_replan='always' (or 'auto') for "
                    "non-stationary patterns")
    return None


def _prepare(env: IOEnv, segs: Segments, cache: dict
             ) -> Generator[Any, Any, tuple]:
    """Phases 1-4; returns (plan, subcomm, sub_hints, iview-or-None).

    With ``parcoll_replan='once'`` (default), the global extent allgather
    and grouping happen only on the first collective call on the file —
    as the paper does at file-view initiation.  Later calls reuse the
    grouping and coordinate purely within subgroups, which is what lets
    subgroups drift apart instead of re-synchronizing globally per call.
    The pattern must stay stationary (see :func:`_stale_reason`);
    fragmented accesses whose extents drift raise :class:`ParCollError`
    instead of silently reusing the stale grouping.

    ``parcoll_replan='auto'`` converts that error into a global re-plan:
    each call runs one tiny agreement allreduce (all ranks must take the
    same branch — drift on *any* rank forces everyone back through the
    extent allgather), so non-stationary patterns work while stationary
    stretches still skip the allgather and regrouping.  The agreement
    collective re-synchronizes the subgroups like 'always' does, which
    is the price of generality — 'once' remains the paper's (and the
    default) behavior.  ``'always'`` re-plans unconditionally.
    """
    comm = env.comm
    offs, lens = segs
    lo = int(offs[0]) if offs.size else -1
    hi = int(offs[-1] + lens[-1]) if offs.size else -1
    nbytes = int(lens.sum())
    replan = env.hints.parcoll_replan
    if replan in ("once", "auto"):
        held = cache.get(("plan", comm.rank))
        if held is not None:
            plan, subcomm, sub_hints, planned = held
            stale = _stale_reason(plan, planned, lo, hi, nbytes)
            reuse = stale is None
            if replan == "auto":
                any_stale = yield from comm.allreduce(
                    0 if reuse else 1, op=MAX, nbytes=4, category="sync")
                reuse = not any_stale
            elif stale is not None:
                raise ParCollError(stale)
            if reuse:
                iview = None
                if plan.uses_intermediate_view:
                    iview = IntermediateView(segs,
                                             plan.logical_prefix[comm.rank])
                return plan, subcomm, sub_hints, iview
            # 'auto' with drift somewhere: fall through to a global re-plan
    extents = yield from comm.allgather((lo, hi, nbytes), category="sync")
    # every rank computes the identical plan from the gathered extents —
    # doing so per rank is quadratic in nprocs, so the first rank through
    # stores the (immutable, shared) plan for the rest
    gkey = ("gplan", env.hints.parcoll_ngroups,
            env.hints.parcoll_intermediate_views, tuple(extents))
    plan = cache.get(gkey)
    if plan is None:
        plan = plan_partition(extents, env.hints.parcoll_ngroups,
                              allow_intermediate=env.hints.parcoll_intermediate_views)
        cache[gkey] = plan
    if env.validator is not None:
        env.validator.check_partition_plan(plan, extents)
    # the cache dict is shared by all ranks of the file, but communicator
    # handles are per-rank objects — key by rank.  Hits and misses stay
    # symmetric across ranks because the plan is a pure function of the
    # allgathered extents.
    key = (plan.cache_key(), comm.rank)
    cached = cache.get(key)
    if cached is None:
        my_group = plan.group_of[comm.rank]
        subcomm = yield from comm.split(color=my_group, category="sync")
        # aggregator distribution is deterministic: all ranks would
        # compute the identical assignment, so only the first one does —
        # the split above stays per-rank (communicator handles are)
        dist_key = ("dist", plan.cache_key())
        dist = cache.get(dist_key)
        if dist is None:
            groups: list[list[int]] = [[] for _ in range(plan.ngroups)]
            for r, g in enumerate(plan.group_of):
                groups[g].append(r)
            parent_aggs = default_aggregators(comm.desc.members, env.machine,
                                              env.hints)
            per_group = distribute_aggregators(groups, parent_aggs,
                                               comm.desc.members, env.machine)
            dist = (groups, parent_aggs, per_group)
            cache[dist_key] = dist
        groups, parent_aggs, per_group = dist
        if env.validator is not None:
            members = comm.desc.members

            def node_of(parent_rank: int) -> int:
                return env.machine.node_of_rank(members[parent_rank])

            agg_nodes = []
            for r in parent_aggs:
                n = node_of(r)
                if n not in agg_nodes:
                    agg_nodes.append(n)
            env.validator.check_aggregator_distribution(
                groups, per_group, agg_nodes, node_of)
        # translate my group's aggregators to subcommunicator ranks
        members_sorted = groups[my_group]
        sub_aggs = tuple(members_sorted.index(r) for r in per_group[my_group])
        sub_hints = env.hints.with_(cb_config_ranks=sub_aggs,
                                    protocol="ext2ph", parcoll_ngroups=1)
        cached = (subcomm, sub_hints)
        cache[key] = cached
    subcomm, sub_hints = cached
    if env.hints.parcoll_replan in ("once", "auto"):
        cache[("plan", comm.rank)] = (plan, subcomm, sub_hints,
                                      (lo, hi, nbytes))
    iview = None
    if plan.uses_intermediate_view:
        iview = IntermediateView(segs, plan.logical_prefix[comm.rank])
        if env.validator is not None:
            env.validator.check_iview_roundtrip(iview)
    return plan, subcomm, sub_hints, iview


def parcoll_write(env: IOEnv, segs: Segments, data: Optional[np.ndarray],
                  cache: dict, view=None) -> Generator[Any, Any, int]:
    """Partitioned collective write; returns bytes written by this rank.

    Under an intermediate view, the grouping came from logical space; the
    exchange itself runs either over the original physical segments
    (default — windows stay dense, writes coalesce) or in logical space
    with sender-side translation (the 'logical' ablation path).
    """
    plan, subcomm, sub_hints, iview = yield from _prepare(env, segs, cache)
    sub_env = IOEnv(comm=subcomm, machine=env.machine, fs=env.fs,
                    lfile=env.lfile, hints=sub_hints, retry=env.retry,
                    validator=env.validator)
    if iview is not None and env.hints.parcoll_data_path == "logical":
        return (yield from collective_write(sub_env, iview.logical_segments,
                                            data, translate=iview.translate))
    return (yield from collective_write(sub_env, segs, data))


def parcoll_read(env: IOEnv, segs: Segments, cache: dict, view=None
                 ) -> Generator[Any, Any, Optional[np.ndarray]]:
    """Partitioned collective read; returns this rank's dense bytes."""
    plan, subcomm, sub_hints, iview = yield from _prepare(env, segs, cache)
    sub_env = IOEnv(comm=subcomm, machine=env.machine, fs=env.fs,
                    lfile=env.lfile, hints=sub_hints, retry=env.retry,
                    validator=env.validator)
    if iview is not None and env.hints.parcoll_data_path == "logical":
        return (yield from collective_read(sub_env, iview.logical_segments,
                                           translate=iview.translate))
    return (yield from collective_read(sub_env, segs))
