"""The ``nodeagg`` protocol: intra-node request aggregation.

Two-level collective I/O in the style of Kang et al.: before any
inter-node exchange, the cores of one physical node funnel their whole
access (request list + data) to a node *leader* — intra-node traffic is a
memcpy-priced hop — and only the leaders run a collective over a derived
leaders-only communicator.  Where ``cb_node_consolidation`` consolidates
*per exchange round inside* ext2ph, this protocol aggregates *whole
requests before* the protocol runs, so the inter-node collective sees one
(merged, coalesced) request per node and its synchronization cost scales
with the node count, not the core count.

The inner collective composes with FA partitioning: with
``parcoll_ngroups > 1`` the leaders run ParColl over the leaders
communicator (grouped file areas of node-merged requests); otherwise
they run plain ext2ph.  Inner reads always use ext2ph — the read union
is re-derived per call and must not trip ParColl's stationary-pattern
replan guard.

Shared-state slots: ``("leaders", rank)`` caches this rank's
leaders-communicator handle (None on non-leaders), ``"fa_cache"`` holds
the inner ParColl grouping.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.datatypes.flatten import Segments, coalesce
from repro.mpiio.consolidation import _SEG_HEADER, node_groups
from repro.mpiio.protocols import (CollectiveProtocol, _reject_options,
                                   register_protocol)
from repro.mpiio.two_phase import (IOEnv, _prefix_of, collective_read,
                                   collective_write, extract_data,
                                   merge_pieces)
from repro.sim.effects import Sleep
from repro.simmpi.payload import Payload

#: tag bases for node-aggregation traffic (clear of two-phase and
#: consolidation tags)
NA_DATA_TAG = (1 << 20) + 30_000_000
NA_REQ_TAG = (1 << 20) + 40_000_000
NA_REP_TAG = (1 << 20) + 50_000_000

_EMPTY_SEGS = (np.empty(0, np.int64), np.empty(0, np.int64))


def _leaders_comm(comm, machine, state) -> Generator[Any, Any, Any]:
    """The leaders-only communicator (None on non-leaders), cached.

    The first collective call on the file pays one ``comm.split``; the
    result depends only on the (communicator, machine) pair, so it is
    cached per rank in the protocol's state slot.
    """
    key = ("leaders", comm.rank)
    if key in state:
        return state[key]
    leader, _members = node_groups(comm, machine)
    sub = yield from comm.split(color=0 if comm.rank == leader else None,
                                category="sync")
    state[key] = sub
    return sub


def _inner_env(env: IOEnv, sub, fa: bool) -> IOEnv:
    """The leaders-communicator environment for the inner collective.

    Parent-communicator aggregator placements (``cb_config_ranks``) do
    not translate to leader ranks, so the inner collective falls back to
    the default per-node aggregator selection; node consolidation is
    moot (one rank per node already).  The node-merged union is
    re-derived per call, so the inner FA plan must not assume a
    stationary pattern: ``parcoll_replan='once'`` is upgraded to
    ``'auto'`` (an explicit ``'always'`` is respected).
    """
    hints = env.hints.with_(cb_config_ranks=None,
                            cb_node_consolidation=False,
                            parcoll_ngroups=env.hints.parcoll_ngroups
                            if fa else 1,
                            parcoll_replan="auto"
                            if env.hints.parcoll_replan == "once"
                            else env.hints.parcoll_replan)
    return IOEnv(comm=sub, machine=env.machine, fs=env.fs, lfile=env.lfile,
                 hints=hints, retry=env.retry, validator=env.validator)


def _charge_memcpy(env: IOEnv, nbytes: int) -> Generator[Any, Any, None]:
    """Assembling/splitting the node buffer is a memcpy on the leader."""
    if nbytes <= 0:
        return
    copy_t = nbytes / env.comm.world.network.params.memcpy_bandwidth
    yield Sleep(copy_t)
    env.breakdown.add("compute", copy_t)


def nodeagg_write(env: IOEnv, segs: Segments, data: Optional[np.ndarray],
                  state: dict) -> Generator[Any, Any, int]:
    """Node-aggregated collective write; returns bytes this rank wrote."""
    comm = env.comm
    leader, members = node_groups(comm, env.machine)
    sub = yield from _leaders_comm(comm, env.machine, state)
    offs, lens = segs
    total = int(lens.sum())
    verified = env.lfile.store is not None
    if comm.rank != leader:
        nbytes = total + _SEG_HEADER * int(offs.size)
        req = comm.isend(Payload(nbytes, (offs, lens, data)), dest=leader,
                         tag=NA_DATA_TAG)
        yield from comm.waitall([req], category="exchange")
        return total

    # leader: gather the node's requests, merge, run the inner collective
    pieces = [(segs, data)] if offs.size else []
    for m in members:
        if m == comm.rank:
            continue
        payload = yield from comm.recv(source=m, tag=NA_DATA_TAG,
                                       category="exchange")
        m_offs, m_lens, m_data = payload.data
        if m_offs.size:
            pieces.append(((m_offs, m_lens), m_data))
    if not pieces:
        m_segs, m_data = _EMPTY_SEGS, (np.empty(0, np.uint8) if verified
                                       else None)
    elif len(pieces) == 1:
        m_segs, m_data = pieces[0]
    else:
        m_segs, m_data = merge_pieces(pieces, verified)
        yield from _charge_memcpy(env, int(m_segs[1].sum()))
    sub_env = _inner_env(env, sub, fa=env.hints.parcoll_ngroups > 1)
    if env.hints.parcoll_ngroups > 1:
        from repro.parcoll.driver import parcoll_write

        yield from parcoll_write(sub_env, m_segs, m_data,
                                 state.setdefault("fa_cache", {}))
    else:
        yield from collective_write(sub_env, m_segs, m_data)
    return total


def nodeagg_read(env: IOEnv, segs: Segments, state: dict
                 ) -> Generator[Any, Any, Optional[np.ndarray]]:
    """Node-aggregated collective read; returns this rank's dense bytes."""
    comm = env.comm
    leader, members = node_groups(comm, env.machine)
    sub = yield from _leaders_comm(comm, env.machine, state)
    offs, lens = segs
    total = int(lens.sum())
    verified = env.lfile.store is not None
    if comm.rank != leader:
        req = comm.isend(Payload(_SEG_HEADER * int(offs.size), (offs, lens)),
                         dest=leader, tag=NA_REQ_TAG)
        yield from comm.waitall([req], category="exchange")
        payload = yield from comm.recv(source=leader, tag=NA_REP_TAG,
                                       category="exchange")
        return payload.data

    # leader: gather request lists, read the node union, scatter replies
    requests = [(comm.rank, segs)]
    for m in members:
        if m == comm.rank:
            continue
        payload = yield from comm.recv(source=m, tag=NA_REQ_TAG,
                                       category="exchange")
        requests.append((m, payload.data))
    nonempty = [sub_segs for _, sub_segs in requests if sub_segs[0].size]
    union = (coalesce(np.concatenate([s[0] for s in nonempty]),
                      np.concatenate([s[1] for s in nonempty]))
             if nonempty else _EMPTY_SEGS)
    union_data = yield from collective_read(_inner_env(env, sub, fa=False),
                                            union)
    have_data = union_data is not None
    union_prefix = _prefix_of(union[1])
    forwarded = sum(int(s[1].sum()) for m, s in requests if m != comm.rank)
    if len(members) > 1:
        yield from _charge_memcpy(env, forwarded)
    reply_batch: list = []
    my_piece: Optional[np.ndarray] = None
    for src, sub_segs in requests:
        piece = (extract_data(union, union_prefix, union_data, sub_segs)
                 if have_data else None)
        if src == comm.rank:
            my_piece = piece
            continue
        reply_batch.append((src, Payload(int(sub_segs[1].sum()), piece)))
    reply_reqs = comm.isend_batch(reply_batch, tag=NA_REP_TAG)
    if reply_reqs:
        yield from comm.waitall(reply_reqs, category="exchange")
    if my_piece is None and verified:
        my_piece = np.empty(0, np.uint8)
    return my_piece


class NodeAggProtocol(CollectiveProtocol):
    """Intra-node request aggregation before the inter-node exchange."""

    name = "nodeagg"

    def write_all(self, env, segs, data, state, view):
        return nodeagg_write(env, segs, data, state)

    def read_all(self, env, segs, state, view):
        return nodeagg_read(env, segs, state)

    @classmethod
    def from_spec(cls, options: str) -> "NodeAggProtocol":
        _reject_options(cls.name, options)
        return cls()


register_protocol(NodeAggProtocol.name, NodeAggProtocol.from_spec)
