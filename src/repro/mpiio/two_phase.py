"""The extended two-phase (ext2ph) collective I/O engine.

Faithful to the ROMIO structure the paper dissects (Section 2.2):

1. **file range gathering** — allgather each process's (start, end)
   physical extent ('sync');
2. **file domain partitioning** — the accessed range is split into one
   contiguous file domain per I/O aggregator;
3. **round agreement** — allreduce(MAX) of the per-aggregator round count
   (domain bytes / ``cb_buffer_size``) ('sync');
4. **interleaved rounds** — each round moves one collective-buffer window
   per aggregator: an alltoall of per-aggregator byte counts ('sync'),
   point-to-point data exchange ('exchange'), and the aggregator's file
   read/write ('io').

The per-round alltoall is the global synchronization whose cost grows
with the process count — the *collective wall*.  ParColl reuses this very
engine per subgroup, which is why shrinking the group shrinks the wall.

Data moves for real in verified mode: writers slice their dense buffers,
aggregators merge by file offset and write; readers get exact bytes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.datatypes.flatten import Segments, coalesce, intersect_range
from repro.errors import MPIIOError
from repro.lustre.fs import LustreFS, LustreFile
from repro.mpiio.aggregation import default_aggregators, partition_file_domains
from repro.mpiio.hints import IOHints
from repro.perf import perf_counters
from repro.sim.effects import Join, Sleep, Spawn
from repro.simmpi.payload import Payload
from repro.simmpi.reduce_ops import MAX
from repro.simmpi.world import Communicator

#: tag base for two-phase data exchange (clear of workload tags)
TP_TAG = 1 << 20
#: tag base for read replies (distinct from request/data tags)
REPLY_TAG = TP_TAG + 10_000_000

#: modeled wire bytes per (offset, length) pair in a request list
SEG_HEADER_BYTES = 16

#: vectorized-copy heuristic: fancy-index gather/scatter pays off only in
#: the many-small-segments regime; larger segments keep the slice loop
#: (memcpy beats building an index array one entry per byte)
_VEC_MIN_SEGS = 8
_VEC_MAX_AVG_BYTES = 512


def _gather_index(starts: np.ndarray, lens: np.ndarray,
                  total: int) -> np.ndarray:
    """Flat source indices for densely packing segments ``[starts, +lens)``."""
    out_first = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=out_first[1:])
    reps = np.repeat(starts - out_first, lens)
    return np.arange(total, dtype=np.int64) + reps


@dataclass
class IOEnv:
    """Everything one collective call needs besides the access itself."""

    comm: Communicator
    machine: Machine
    fs: LustreFS
    lfile: LustreFile
    hints: IOHints
    #: effective RetryPolicy for this file's RPCs (None = the fs default)
    retry: Optional[object] = None
    #: active correctness oracle (:class:`repro.validate.Validator`);
    #: None = validation off, the hooks below cost nothing
    validator: Optional[object] = None

    @property
    def breakdown(self):
        return self.comm.proc.breakdown

    def charge_io(self, t0: float) -> None:
        """Charge time since ``t0`` to 'io', splitting out fault retries.

        Pops the retry seconds the file system accumulated for this rank
        since the last charge and books them as ``fault_retry`` (count =
        lost RPCs); the remainder stays 'io'.  Capped at the elapsed
        wall time: retries of an overlapped (pipelined) write may hide
        under exchange time already charged elsewhere.
        """
        elapsed = self.comm.now - t0
        retry_s, failures = self.fs.take_retry(self.comm.proc.rank)
        if failures:
            retry_s = min(retry_s, elapsed)
            self.breakdown.add("fault_retry", retry_s, n=failures)
            self.breakdown.add("io", elapsed - retry_s)
        else:
            self.breakdown.add("io", elapsed)


def data_positions(offs: np.ndarray, prefix: np.ndarray,
                   sub_offs: np.ndarray) -> np.ndarray:
    """Dense-buffer positions of sub-segment starts within a segment list.

    ``prefix[i]`` is the dense position of segment ``i``'s first byte;
    every ``sub_offs`` entry must fall inside some segment.
    """
    idx = np.searchsorted(offs, sub_offs, side="right") - 1
    return prefix[idx] + (sub_offs - offs[idx])


def extract_data(segs: Segments, prefix: np.ndarray, data: np.ndarray,
                 sub: Segments) -> np.ndarray:
    """Slice the dense bytes of ``sub`` (a subset of ``segs``) out of ``data``."""
    sub_offs, sub_lens = sub
    if sub_offs.size == 0:
        return np.empty(0, dtype=np.uint8)
    starts = data_positions(segs[0], prefix, sub_offs)
    n = sub_offs.size
    total = int(sub_lens.sum())
    if n >= _VEC_MIN_SEGS and total < n * _VEC_MAX_AVG_BYTES:
        perf_counters.segments_vectorized += n
        return data[_gather_index(starts, sub_lens, total)]
    return _extract_data_reference(starts, sub_lens, data)


def _extract_data_reference(starts: np.ndarray, sub_lens: np.ndarray,
                            data: np.ndarray) -> np.ndarray:
    """Slice-loop copy (retained reference; also the few/large-segments path)."""
    pieces = [data[s:s + l] for s, l in zip(starts.tolist(), sub_lens.tolist())]
    return np.concatenate(pieces)


def place_data(segs: Segments, prefix: np.ndarray, out: np.ndarray,
               sub: Segments, incoming: np.ndarray) -> None:
    """Inverse of :func:`extract_data`: write ``incoming`` into ``out``."""
    sub_offs, sub_lens = sub
    if sub_offs.size == 0:
        return
    starts = data_positions(segs[0], prefix, sub_offs)
    n = sub_offs.size
    total = int(sub_lens.sum())
    if n >= _VEC_MIN_SEGS and total < n * _VEC_MAX_AVG_BYTES:
        perf_counters.segments_vectorized += n
        out[_gather_index(starts, sub_lens, total)] = incoming[:total]
        return
    _place_data_reference(starts, sub_lens, out, incoming)


def _place_data_reference(starts: np.ndarray, sub_lens: np.ndarray,
                          out: np.ndarray, incoming: np.ndarray) -> None:
    """Slice-loop scatter (retained reference; few/large-segments path)."""
    pos = 0
    for s, l in zip(starts.tolist(), sub_lens.tolist()):
        out[s:s + l] = incoming[pos:pos + l]
        pos += l


def _prefix_of(lens: np.ndarray) -> np.ndarray:
    prefix = np.zeros(lens.size, dtype=np.int64)
    if lens.size > 1:
        np.cumsum(lens[:-1], out=prefix[1:])
    return prefix


def _setup(env: IOEnv, segs: Segments
           ) -> Generator[Any, Any, Optional[tuple]]:
    """Shared phases 1-3; returns (aggs, starts, ends, ntimes) or None."""
    comm = env.comm
    offs, lens = segs
    lo = int(offs[0]) if offs.size else -1
    hi = int(offs[-1] + lens[-1]) if offs.size else -1
    extents = yield from comm.allgather((lo, hi), category="sync")
    nonempty = [(l, h) for (l, h) in extents if l >= 0]
    if not nonempty:
        return None
    fd_min = min(l for l, _ in nonempty)
    fd_max = max(h for _, h in nonempty)
    members = comm.desc.members
    aggs = default_aggregators(members, env.machine, env.hints)
    align = env.lfile.layout if env.hints.align_file_domains else None
    starts, ends = partition_file_domains(fd_min, fd_max, len(aggs), align)
    cb = env.hints.cb_buffer_size
    my_idx = aggs.index(comm.rank) if comm.rank in aggs else -1
    my_rounds = 0
    if my_idx >= 0:
        my_rounds = int(-(-(ends[my_idx] - starts[my_idx]) // cb))
    ntimes = yield from comm.allreduce(my_rounds, op=MAX, nbytes=8,
                                       category="sync")
    return aggs, starts, ends, int(ntimes), my_idx


def _send_lists_for_round(segs: Segments, aggs: list[int],
                          starts: np.ndarray, ends: np.ndarray,
                          rnd: int, cb: int) -> dict[int, Segments]:
    """My non-empty intersections with each aggregator's round window.

    Retained as the per-round reference implementation: the hot paths use
    :func:`plan_rounds` (one vectorized pass over all rounds), and the
    property tests assert the two agree on random fragmented patterns.

    Only the domains overlapping my overall extent are inspected — with
    hundreds of aggregators a rank typically touches one or two, and
    scanning all of them per round would cost O(P^2) across ranks.
    """
    offs, lens = segs
    if offs.size == 0:
        return {}
    my_lo = int(offs[0])
    my_hi = int(offs[-1] + lens[-1])
    a_first = int(np.searchsorted(ends, my_lo, side="right"))
    a_last = int(np.searchsorted(starts, my_hi, side="left"))
    out: dict[int, Segments] = {}
    for a in range(a_first, min(a_last, len(aggs))):
        w_lo = int(starts[a]) + rnd * cb
        w_hi = min(int(ends[a]), w_lo + cb)
        sub = intersect_range(segs, w_lo, w_hi)
        if sub[0].size:
            out[a] = sub
    return out


def plan_rounds(segs: Segments, aggs: list[int], starts: np.ndarray,
                ends: np.ndarray, cb: int
                ) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Precompute every round's window intersections in one pass.

    For each overlapping aggregator domain the segments are clipped once
    and split at collective-buffer window boundaries; each resulting
    piece is labeled with its round index.  Segments are sorted and
    non-overlapping, so piece round labels are non-decreasing and one
    round's send list is a ``searchsorted`` slice — the per-round
    ``intersect_range`` scans disappear entirely.

    Returns ``[(agg_index, piece_offs, piece_lens, piece_rounds), ...]``;
    feed to :func:`_send_lists_from_plan`.
    """
    offs, lens = segs
    if offs.size == 0:
        return []
    my_lo = int(offs[0])
    my_hi = int(offs[-1] + lens[-1])
    a_first = int(np.searchsorted(ends, my_lo, side="right"))
    a_last = min(int(np.searchsorted(starts, my_hi, side="left")), len(aggs))
    plan = []
    planned = 0
    for a in range(a_first, a_last):
        base = int(starts[a])
        d_offs, d_lens = intersect_range(segs, base, int(ends[a]))
        if d_offs.size == 0:
            continue
        d_ends = d_offs + d_lens
        w_first = (d_offs - base) // cb
        w_last = (d_ends - 1 - base) // cb
        npieces = w_last - w_first + 1
        total = int(npieces.sum())
        if total == d_offs.size:
            # no segment straddles a window boundary
            p_offs, p_lens, p_w = d_offs, d_lens, w_first
        else:
            seg_idx = np.repeat(np.arange(d_offs.size), npieces)
            first = np.zeros(d_offs.size, dtype=np.int64)
            np.cumsum(npieces[:-1], out=first[1:])
            k = np.arange(total, dtype=np.int64) - first[seg_idx]
            p_w = w_first[seg_idx] + k
            win_lo = base + p_w * cb
            p_offs = np.maximum(d_offs[seg_idx], win_lo)
            p_lens = np.minimum(d_ends[seg_idx], win_lo + cb) - p_offs
        plan.append((a, p_offs, p_lens, p_w))
        planned += total
    perf_counters.rounds_planned += planned
    return plan


def _send_lists_from_plan(plan, rnd: int) -> dict[int, Segments]:
    """One round's send lists out of a :func:`plan_rounds` result."""
    out: dict[int, Segments] = {}
    for a, p_offs, p_lens, p_w in plan:
        i0 = int(np.searchsorted(p_w, rnd, side="left"))
        i1 = int(np.searchsorted(p_w, rnd + 1, side="left"))
        if i1 > i0:
            out[a] = (p_offs[i0:i1], p_lens[i0:i1])
    return out


def _counts_vector(send_lists: dict[int, Segments], aggs: list[int],
                   size: int) -> np.ndarray:
    counts = np.zeros(size, dtype=np.int64)
    for a, (so, sl) in send_lists.items():
        counts[aggs[a]] = int(sl.sum())
    return counts


def collective_write(env: IOEnv, segs: Segments,
                     data: Optional[np.ndarray],
                     translate=None) -> Generator[Any, Any, int]:
    """ext2ph collective write of my ``segs`` (+dense ``data``); returns bytes.

    ``translate(sub) -> Segments`` (optional) maps the sender's window
    intersections to a different file space before they are shipped —
    ParColl's intermediate file views run the protocol in *logical* space
    and translate to physical segments at this boundary.  The translation
    must preserve total bytes and data order.
    """
    comm = env.comm
    setup = yield from _setup(env, segs)
    if setup is None:
        return 0
    aggs, starts, ends, ntimes, my_idx = setup
    cb = env.hints.cb_buffer_size
    offs, lens = segs
    prefix = _prefix_of(lens)
    total = int(lens.sum())
    if data is not None:
        data = np.asarray(data, dtype=np.uint8).ravel()
        if data.size != total:
            raise MPIIOError(f"data has {data.size} bytes, view covers {total}")
    model = data is None and env.lfile.store is None
    if data is None and env.lfile.store is not None:
        raise MPIIOError("verified-mode collective write requires data")

    memcpy_bw = comm.world.network.params.memcpy_bandwidth
    pending: list = []
    node_info = None
    if env.hints.cb_node_consolidation:
        from repro.mpiio.consolidation import node_groups

        node_info = node_groups(comm, env.machine)
    plan = plan_rounds(segs, aggs, starts, ends, cb)
    if env.validator is not None:
        env.validator.check_exchange_plan(segs, plan, ntimes)
    for rnd in range(ntimes):
        send_lists = _send_lists_from_plan(plan, rnd)
        if node_info is not None:
            from repro.mpiio.consolidation import consolidated_write_round

            pieces_by_agg = {}
            for a, sub in send_lists.items():
                piece_data = (None if model
                              else extract_data(segs, prefix, data, sub))
                if translate is not None:
                    sub = translate(sub)
                pieces_by_agg[a] = (sub, piece_data)
            leader, members = node_info
            yield from consolidated_write_round(
                env, aggs, my_idx, rnd, pieces_by_agg, leader, members,
                memcpy_bw, _aggregate_and_write, _counts_vector)
            continue
        counts = _counts_vector(send_lists, aggs, comm.size)
        all_counts = yield from comm.alltoall(counts, nbytes_each=8,
                                              category="sync")
        # dispatch my pieces (local piece short-circuits the network)
        batch: list = []
        local_piece = None
        for a, sub in send_lists.items():
            piece_data = None if model else extract_data(segs, prefix, data, sub)
            if translate is not None:
                sub = translate(sub)
            nbytes = int(sub[1].sum()) + SEG_HEADER_BYTES * sub[0].size
            if aggs[a] == comm.rank:
                local_piece = (sub, piece_data)
                continue
            batch.append((aggs[a], Payload(nbytes,
                                           (sub[0], sub[1], piece_data))))
        reqs = comm.isend_batch(batch, tag=TP_TAG + rnd)
        if my_idx >= 0:
            yield from _aggregate_and_write(env, all_counts, local_piece,
                                            rnd, memcpy_bw, pending)
        if reqs:
            yield from comm.waitall(reqs, category="exchange")
    if pending:
        # split-phase: wait for the overlapped writes to drain
        t0 = comm.now
        for task in pending:
            yield Join(task)
        env.charge_io(t0)
    return total


def merge_pieces(pieces: list[tuple[Segments, Optional[np.ndarray]]],
                 verified: bool
                 ) -> tuple[Segments, Optional[np.ndarray]]:
    """Merge ``(segments, dense-data)`` pieces by file offset.

    Returns coalesced segments plus the correspondingly reordered dense
    bytes (None in model mode).  Raises on overlap — collective writers
    must target disjoint regions.
    """
    all_offs = np.concatenate([p[0][0] for p in pieces])
    all_lens = np.concatenate([p[0][1] for p in pieces])
    order = np.argsort(all_offs, kind="stable")
    sorted_offs = all_offs[order]
    sorted_lens = all_lens[order]
    merged_data = None
    if verified:
        # each piece's data is its segments densely packed in order, so
        # the concatenation of all piece datas holds segment k's bytes at
        # the exclusive prefix sum of all_lens — the reorder is a single
        # gather on the sorted segment permutation
        cat = np.concatenate([p[1] for p in pieces])
        src_start = _prefix_of(all_lens)[order]
        total = int(sorted_lens.sum())
        n = sorted_lens.size
        if n >= _VEC_MIN_SEGS and total < n * _VEC_MAX_AVG_BYTES:
            perf_counters.segments_vectorized += n
            merged_data = (cat[_gather_index(src_start, sorted_lens, total)]
                           if total else np.empty(0, np.uint8))
        else:
            merged_data = _merge_reorder_reference(cat, src_start,
                                                   sorted_lens)
    w_offs, w_lens = coalesce(sorted_offs, sorted_lens)
    if int(w_lens.sum()) != int(sorted_lens.sum()):
        raise MPIIOError(
            "overlapping segments reached one merge point; "
            "collective writes must target disjoint file regions"
        )
    return (w_offs, w_lens), merged_data


def _merge_reorder_reference(cat: np.ndarray, src_start: np.ndarray,
                             sorted_lens: np.ndarray) -> np.ndarray:
    """Chunk-loop reorder (retained reference; few/large-segments path)."""
    chunks = [cat[s:s + l]
              for s, l in zip(src_start.tolist(), sorted_lens.tolist())]
    return np.concatenate(chunks) if chunks else np.empty(0, np.uint8)


def _aggregate_and_write(env: IOEnv, all_counts: np.ndarray,
                         local_piece, rnd: int, memcpy_bw: float,
                         pending: Optional[list] = None
                         ) -> Generator[Any, Any, None]:
    """Aggregator side of one write round: collect, merge, write.

    With ``pipelined_io`` the file write runs as a background task
    (double-buffered split-phase I/O): the aggregator proceeds to the
    next round's exchange while the OST drains this round's window, and
    the caller joins all outstanding writes after the last round.
    """
    comm = env.comm
    sources = [s for s in range(comm.size)
               if s != comm.rank and int(all_counts[s]) > 0]
    recv_reqs = [comm.irecv(source=s, tag=TP_TAG + rnd) for s in sources]
    pieces = []
    if local_piece is not None:
        pieces.append(local_piece)
    got = yield from comm.waitall(recv_reqs, category="exchange")
    for payload, _status in got:
        sub_offs, sub_lens, piece_data = payload.data
        pieces.append(((sub_offs, sub_lens), piece_data))
    if not pieces:
        if env.validator is not None:
            env.validator.check_round_conservation(
                int(np.asarray(all_counts).sum()), 0, 0, rnd)
        return
    (w_offs, w_lens), merged_data = merge_pieces(
        pieces, verified=env.lfile.store is not None)
    # copy into the collective buffer costs a memcpy
    nbytes = int(w_lens.sum())
    if env.validator is not None:
        env.validator.check_round_conservation(
            int(np.asarray(all_counts).sum()),
            sum(int(p[0][1].sum()) for p in pieces), nbytes, rnd)
    copy_t = nbytes / memcpy_bw
    yield Sleep(copy_t)
    env.breakdown.add("compute", copy_t)
    write_gen = env.fs.write(env.lfile, client=comm.proc.rank,
                             offsets=w_offs, lengths=w_lens,
                             data=merged_data, retry=env.retry)
    if pending is not None and env.hints.pipelined_io:
        task = yield Spawn(write_gen, ("pipelined-write", rnd))
        pending.append(task)
        return
    t0 = comm.now
    yield from write_gen
    env.charge_io(t0)


def collective_read(env: IOEnv, segs: Segments,
                    translate=None) -> Generator[Any, Any, Optional[np.ndarray]]:
    """ext2ph collective read of my ``segs``; returns dense bytes (None in model).

    ``translate`` as in :func:`collective_write`: requests ship translated
    (physical) segments while placement into the caller's dense buffer
    uses the original (logical) ones.
    """
    comm = env.comm
    setup = yield from _setup(env, segs)
    if setup is None:
        return None if env.lfile.store is None else np.empty(0, np.uint8)
    aggs, starts, ends, ntimes, my_idx = setup
    cb = env.hints.cb_buffer_size
    offs, lens = segs
    prefix = _prefix_of(lens)
    total = int(lens.sum())
    verified = env.lfile.store is not None
    out = np.empty(total, dtype=np.uint8) if verified else None

    memcpy_bw = comm.world.network.params.memcpy_bandwidth
    plan = plan_rounds(segs, aggs, starts, ends, cb)
    if env.validator is not None:
        env.validator.check_exchange_plan(segs, plan, ntimes)
    for rnd in range(ntimes):
        want_lists = _send_lists_from_plan(plan, rnd)
        counts = _counts_vector(want_lists, aggs, comm.size)
        all_counts = yield from comm.alltoall(counts, nbytes_each=8,
                                              category="sync")
        # send my request lists to remote aggregators (translated if needed)
        sent_lists = (want_lists if translate is None
                      else {a: translate(sub) for a, sub in want_lists.items()})
        req_batch: list = []
        local_want = None
        for a, sub in sent_lists.items():
            if aggs[a] == comm.rank:
                local_want = sub
                continue
            nbytes = SEG_HEADER_BYTES * sub[0].size
            req_batch.append((aggs[a], Payload(nbytes, (sub[0], sub[1]))))
        req_reqs = comm.isend_batch(req_batch, tag=TP_TAG + rnd)
        local_reply = None
        reply_reqs: list = []
        if my_idx >= 0:
            local_reply, reply_reqs = yield from _read_and_reply(
                env, all_counts, local_want, rnd, memcpy_bw)
        # collect replies for my requests; my own outbound replies are
        # still in flight (isends) — waiting for them before receiving
        # would deadlock two aggregators serving each other
        for a, sub in want_lists.items():
            if aggs[a] == comm.rank:
                if verified:
                    place_data(segs, prefix, out, sub, local_reply)
                continue
            payload = yield from comm.recv(source=aggs[a],
                                           tag=REPLY_TAG + rnd,
                                           category="exchange")
            if verified:
                place_data(segs, prefix, out, sub, payload.data)
        if reply_reqs:
            yield from comm.waitall(reply_reqs, category="exchange")
        if req_reqs:
            yield from comm.waitall(req_reqs, category="exchange")
    return out


def _read_and_reply(env: IOEnv, all_counts: np.ndarray, local_want,
                    rnd: int, memcpy_bw: float
                    ) -> Generator[Any, Any,
                                   tuple[Optional[np.ndarray], list]]:
    """Aggregator side of one read round: gather requests, read, reply.

    Returns ``(local_reply, reply_requests)`` — the reply isends are NOT
    awaited here: the caller must first receive its own incoming replies
    (two aggregators serving each other would otherwise cycle).
    """
    comm = env.comm
    sources = [s for s in range(comm.size)
               if s != comm.rank and int(all_counts[s]) > 0]
    reqs = [comm.irecv(source=s, tag=TP_TAG + rnd) for s in sources]
    got = yield from comm.waitall(reqs, category="exchange")
    requests: list[tuple[int, Segments]] = []
    for (payload, status) in got:
        sub_offs, sub_lens = payload.data
        src = comm.desc.rank_of.get(status.source, status.source)
        requests.append((src, (sub_offs, sub_lens)))
    if local_want is not None:
        requests.append((comm.rank, local_want))
    if not requests:
        return None, []
    union = coalesce(np.concatenate([r[1][0] for r in requests]),
                     np.concatenate([r[1][1] for r in requests]))
    t0 = comm.now
    union_data = yield from env.fs.read(env.lfile, client=comm.proc.rank,
                                        offsets=union[0], lengths=union[1],
                                        retry=env.retry)
    env.charge_io(t0)
    nbytes = int(union[1].sum())
    copy_t = nbytes / memcpy_bw
    yield Sleep(copy_t)
    env.breakdown.add("compute", copy_t)
    union_prefix = _prefix_of(union[1])
    local_reply = None
    verified = union_data is not None
    # replies go out as isends: a blocking (rendezvous) send here could
    # deadlock against a requester still waiting on another aggregator
    reply_batch: list = []
    for src, sub in requests:
        piece = (extract_data(union, union_prefix, union_data, sub)
                 if verified else None)
        if src == comm.rank:
            local_reply = piece
            continue
        reply_batch.append((src, Payload(int(sub[1].sum()), piece)))
    return local_reply, comm.isend_batch(reply_batch, tag=REPLY_TAG + rnd)
