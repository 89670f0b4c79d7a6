"""Macro collective fidelity: coalesce a round's messages into closed form.

The ``detailed`` fidelity simulates every collective message as engine
traffic — one generator resumption, two scheduler entries, a mailbox
match, and an event fire per message.  For the synchronizing collectives
(barrier, allgather, alltoall, allreduce, reduce_scatter_block) the
message schedule is *statically known*: every send's destination, size,
and matching receive are fixed by the algorithm, and no rank can leave
before every rank has entered (each exit transitively depends on a
message from every participant).  The ``macro`` fidelity exploits
exactly that: participating ranks park on one event apiece while a
shared per-world *walker* replays the detailed algorithm's message
schedule as a timestamp-ordered walk over the send/receive dependency
graph — no per-message tasks, mailboxes, or event objects.

Four of the five schedules are *shifts*: at step ``k`` rank ``r`` sends
to ``(r + off_k) % p`` and receives from ``(r - off_k) % p``, with
``off_k = k + 1`` for pairwise alltoall and reduce_scatter_block,
``1`` for the ring allgather and ``2**k`` for the dissemination
barrier.  A shift round carries one closed-form program (:class:`_Shift`:
the offsets plus a size rule — a constant, the sender's own block for
``dst``, or the forwarded ring block's origin size) and the walker
derives each step from ``(r, k, p)``, so a p-rank round builds no
O(p²) step lists.  Only recursive-doubling allreduce, whose fold ranks
and partial-reduction sizes break the shift shape, keeps an O(log p)
per-rank step list.

The walk reproduces the engine's execution *bit-identically*:

* it is incremental — each rank pushes its first step when it arrives,
  and the walker processes work through at most one engine callback per
  distinct timestamp, so every NIC reservation is issued at its true
  chronological engine moment, interleaved with concurrent
  non-collective traffic (pipelined writes, point-to-point exchange)
  exactly as the per-message simulation would;
* every message goes through the same
  :meth:`~repro.cluster.network.NetworkModel.transfer` the per-message
  path calls, issued at the walker's replay time, so completion times
  come from the same NIC FIFO arithmetic in the same global order,
  including rendezvous header/clear-to-send/data phases and piecewise
  fault speed profiles;
* ties are broken exactly like the engine's ``(time, seq)`` heap key —
  the walker allocates its sequence numbers *from the engine's own
  counter*, in the same order the per-message schedule would have
  pushed its scheduler entries, so all macro rounds in a world and all
  unrelated engine traffic share one sequence space; the walker heap is
  keyed ``(t, phase, seq)`` (phase separates heap-stage bookkeeping
  from deque-stage continuations, see below);
* at a *contested* timestamp — engine ready-deque entries pending, or
  foreign engine heap entries due — every due walker entry is requeued
  into the *engine heap* at its own ``(t, seq)`` slot
  (:meth:`Engine._sched_at_seq`), so it executes at exactly the
  position the per-message schedule's entry would have occupied,
  interleaved with unrelated same-instant traffic by construction.
  Requeued bookkeeping entries (rendezvous headers, data phases — real
  heap callbacks in the per-message schedule) run at heap stage; a
  requeued rank resumption appends its cascade to the engine ready
  deque when its slot dispatches, mirroring the detailed fire→deque
  two-stage structure, and a rank exit reached at deque stage resumes
  the parked task inline exactly where the detailed task's continuation
  would have run.  At uncontested timestamps no other actor can observe
  the ordering and the walk advances inline at full speed.

Non-synchronizing collectives (bcast, reduce, gather, scatter, scan,
exscan) can complete on some ranks before others arrive, so a site-based
replay would be unsound; under the ``macro`` fidelity those fall back to
the detailed message schedule (see :meth:`Communicator._collective`).
The walk itself falls back when message timestamps are not strictly
ordered after their causes (``send_overhead == 0`` or ``latency == 0``
make same-time scheduling possible, which the replay cannot order), and
for single-rank communicators (whose detailed path never yields).
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from typing import Any, Generator, NamedTuple, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import MPIError, SimulationError
from repro.perf import perf_counters
from repro.sim.effects import WaitEvent
from repro.sim.engine import _K_CALL1, _K_FIRE, Event
from repro.simmpi import collectives_detailed as detailed
from repro.simmpi.p2p import RTS_BYTES
from repro.simmpi.payload import Payload, sizeof
from repro.simmpi.reduce_ops import ReduceOp

if TYPE_CHECKING:  # pragma: no cover
    from repro.simmpi.world import Communicator, World

_INF = float("inf")


#: initial site entries must order before any allocated sequence number
_BIG = 1 << 60


def _usable(comm: "Communicator") -> bool:
    """Can the walk order this world's schedules exactly?

    Strictly positive send overhead and wire latency guarantee every
    transfer completes strictly after it was issued, so no collective
    message ever lands on the engine's same-time ready deque — the
    ordering regime the walker reproduces.  Rank-symmetric: depends only
    on world-global parameters.
    """
    p = comm.world.network.params
    return p.send_overhead > 0.0 and p.latency > 0.0


class _MacroSite:
    """Synchronization site for one macro collective call."""

    __slots__ = ("arrivals", "values", "order", "events", "kind",
                 "driver", "extra")

    def __init__(self, kind: str):
        self.arrivals: dict[int, float] = {}
        self.values: dict[int, Any] = {}
        #: ranks in engine execution order of their arrival
        self.order: list[int] = []
        self.events: dict[int, Event] = {}
        self.kind = kind
        self.driver: Optional[_Driver] = None
        #: per-kind scratch (converted payloads, memoized reductions)
        self.extra: dict = {}


#: shift size rules (see :class:`_Shift`)
_CONST, _OWN, _RING = 0, 1, 2


class _Shift(NamedTuple):
    """Closed-form step program shared by every rank of a round.

    Step ``k`` of rank ``r`` sends to ``(r + offs[k]) % p`` (matched by
    that rank's own step ``k``), then waits the receive from
    ``(r - offs[k]) % p``, then waits the send: pairwise exchange has
    ``offs[k] = k + 1``, the ring ``1`` and dissemination ``2**k``.
    ``rule`` sizes the step: ``_CONST`` sends ``nbytes``, ``_OWN`` the
    ``sizeof`` of the rank's own block for ``dst`` (``site.values[r]``
    is its block list), ``_RING`` the block forwarded at step ``k``,
    which originated at rank ``r - k`` (``site.extra[r - k]`` holds that
    rank's block size, recorded at its arrival).
    """

    offs: tuple
    rule: int
    nbytes: int = 0


@lru_cache(maxsize=64)
def _offsets(shape: str, p: int) -> tuple:
    """Step offsets of a ``pairwise``, ``ring`` or ``dissemination``
    shift at size ``p``: built once per size and shared by every rank
    and round, so an arriving rank allocates nothing O(p)."""
    if shape == "pairwise":
        return tuple(range(1, p))
    if shape == "ring":
        return (1,) * (p - 1)
    return tuple(1 << k for k in range((p - 1).bit_length()))


class _Driver:
    """Per-site replay state for one collective round.

    A shift-shaped round (barrier, ring allgather, pairwise alltoall and
    reduce_scatter_block) carries one :class:`_Shift` in ``shift``; the
    walker derives every step from ``(r, k, p)``, so a round costs no
    per-rank step lists.  Otherwise (allreduce) ``progs[r]`` is rank
    r's step list, built by ``prog_for(site, r)`` at its arrival; each
    step is ``(dst, dstep, nb, src)``: send ``nb`` bytes to rank ``dst``
    (matched by the receiver's step index ``dstep``), then wait the
    receive of a message from some rank (``src >= 0``), then wait the
    send.  ``dst = -1`` is a receive-only step, ``src = -1`` send-only
    — exactly the three shapes the detailed algorithms use (``sreq =
    isend; yield irecv; yield sreq``).  ``nb`` may be a zero-argument
    callable, resolved when the step is issued — sizes that depend on
    other ranks' payloads (partial reductions) are only known once the
    data has causally propagated, which is exactly when the step runs.

    All scheduling state (heap, sequence counter, wake) lives on the
    world's shared :class:`_Walker`; the driver only holds the round's
    program and per-rank progress.
    """

    __slots__ = ("core", "members", "p", "site", "idx", "step_i",
                 "pend", "inbox", "shift", "prog_for", "progs",
                 "results", "nmsgs", "done")

    def __init__(self, comm: "Communicator", site: _MacroSite,
                 core: "_Walker", program):
        p = comm.size
        self.core = core
        self.members = comm.desc.members
        self.p = p
        self.site = site
        self.idx = 0
        self.step_i = [0] * p
        #: parked rank state: [step, sendT, sbind, recvT, rbind]; None
        #: fields are unresolved (rendezvous send, unmatched receive)
        self.pend: list[Optional[list]] = [None] * p
        #: early messages keyed ``dstep * p + dst``: ("e", arrival, seq)
        #: once the delivery is scheduled, ("h", src, nb) for an
        #: unmatched rendezvous header sitting in the unexpected queue
        self.inbox: dict[int, tuple] = {}
        if isinstance(program, _Shift):
            self.shift = program
            self.prog_for = None
            self.progs = None
        else:
            self.shift = None
            self.prog_for = program
            self.progs = [None] * p
        self.nmsgs = 0
        self.results: Optional[list] = None
        self.done = 0

    def push_initial(self, r: int) -> None:
        core = self.core
        if self.progs is None:
            # every shift step sends exactly once
            self.nmsgs += len(self.shift.offs)
        else:
            prog = self.progs[r] = self.prog_for(self.site, r)
            self.nmsgs += sum(1 for step in prog if step[0] >= 0)
        heappush(core.heap,
                 (self.site.arrivals[r], 1, core.initc - _BIG, 0, r, self))
        core.initc += 1
        self.idx += 1

    def _complete(self, r: int, pe: list) -> None:
        sendT, sbind, recvT, rbind = pe[1], pe[2], pe[3], pe[4]
        if sendT is None or recvT is None:
            return
        self.pend[r] = None
        self.step_i[r] += 1
        if recvT >= sendT:
            self.core._push(recvT, 1, rbind, 0, r, self)
        else:
            self.core._push(sendT, 1, sbind, 0, r, self)


class _Walker:
    """Shared per-world schedule walker mirroring the engine seq space.

    Work lives on a heap keyed ``(t, phase, seq)``: phase 0 entries are
    real scheduler entries (rendezvous header deliveries and data
    phases), phase 1 entries are rank resumptions whose seq is the entry
    that woke the task — the send event's fire when the send finished
    last, the delivery's when the receive did.  Sequence numbers are
    allocated *from the engine's own counter*, in engine push order: per
    eager message the send fire then the delivery, per rendezvous the
    header delivery, the clear-to-send at match time, then the data
    phase's sender-free and arrival fires.  Sharing the engine's
    sequence space across every macro site in the world keeps concurrent
    rounds — and unrelated per-message traffic — in the one global order
    the engine's own heap would impose.

    :meth:`pump` requeues every entry due at a *contested* current time
    into the engine heap at its own ``(t, seq)`` slot (see the module
    docstring), then advances inline as far as engine quiescence allows,
    and schedules one engine callback at the next entry's timestamp (at
    a seq strictly below every due entry's, so requeued entries land
    ahead of any foreign same-instant traffic they must precede), so the
    walk advances in lockstep with the rest of the simulation.
    """

    __slots__ = ("eng", "net", "eager", "cts_base", "node_of", "heap",
                 "initc", "wake_at", "wake_seq", "first_seq", "parked",
                 "unfinished")

    def __init__(self, world: "World"):
        self.eng = world.engine
        self.net = world.network
        self.eager = world._eager_threshold
        self.cts_base = self.net.params.send_overhead
        self.node_of = self.net._node_of
        self.heap: list[tuple] = []
        self.initc = 0
        self.wake_at = _INF
        self.wake_seq = _INF
        #: min engine seq among heap entries per timestamp — the wake
        #: for a timestamp must order before every entry it will requeue
        self.first_seq: dict[float, int] = {}
        #: entries requeued into the engine scheduler, not yet run
        self.parked = 0
        #: fully-arrived rounds that have not completed yet
        self.unfinished = 0

    def _push(self, t: float, phase: int, seq: int, code: int,
              arg: Any, drv: _Driver) -> None:
        """Heap push with first-seq bookkeeping (and wake demotion when
        a new entry undercuts an already-scheduled wake's seq)."""
        heappush(self.heap, (t, phase, seq, code, arg, drv))
        fs = self.first_seq
        prev = fs.get(t)
        if prev is None or seq < prev:
            fs[t] = seq
            if t == self.wake_at and seq < self.wake_seq:
                # an earlier-seq entry appeared at the wake's timestamp:
                # add an earlier wake (the stale one fires harmlessly)
                self.wake_seq = seq
                self.eng._sched_at_seq(t, seq - 0.5, _K_CALL1,
                                       self._wake, None)

    def _wake(self, _arg: Any = None) -> None:
        self.wake_at = _INF
        self.wake_seq = _INF
        self.pump()

    def _parked_heap(self, entry: tuple) -> None:
        """A bookkeeping entry requeued to its own engine heap slot."""
        self.parked -= 1
        t, _phase, seq, code, arg, drv = entry
        self._heap_entry(t, code, arg, drv)
        self.pump()

    def _parked_fire(self, arg: tuple) -> None:
        """A resumption's fire slot dispatching from the engine heap:
        the detailed fire appends the woken task to the ready deque, so
        the cascade takes exactly that deque position."""
        eng = self.eng
        eng.heap_bypasses += 1
        eng._ready.append((_K_CALL1, self._run_casc, arg))

    def _run_casc(self, arg: tuple) -> None:
        drv, r, bind = arg
        self.parked -= 1
        self._casc(drv, r, self.eng.now, bind, True)
        self.pump()

    def _heap_entry(self, t: float, code: int, arg: tuple,
                    drv: _Driver) -> None:
        """Process a code-1/code-2 entry (heap-stage bookkeeping)."""
        eng = self.eng
        net = self.net
        members = drv.members
        node_of = self.node_of
        if code == 1:
            # rendezvous header delivered at the receiver
            src, dst, dstep, nb = arg
            pe = drv.pend[dst]
            if pe is not None and pe[0] == dstep:
                # receive already posted: match, clear-to-send goes
                # back (sum the latency terms first — same float
                # association as World._rendezvous_cts)
                cts = t + (net.wire_latency(
                    node_of[members[dst]],
                    node_of[members[src]]) + self.cts_base)
                eng._seq += 1
                self._push(cts, 0, eng._seq, 2, arg, drv)
            else:
                drv.inbox[dstep * drv.p + dst] = ("h", src, nb)
            return
        # code 2: rendezvous data phase — a real heap callback in
        # the per-message schedule too
        src, dst, dstep, nb = arg
        free, arr = net.transfer(t, members[src], members[dst], nb)
        sa = eng._seq + 1
        sb = sa + 1
        eng._seq = sb
        pe = drv.pend[src]
        pe[1] = free
        pe[2] = sa
        drv._complete(src, pe)
        pe = drv.pend[dst]
        pe[3] = arr
        pe[4] = sb
        drv._complete(dst, pe)

    def _casc(self, drv: _Driver, r: int, cur_t: float, bind: int,
              deque_stage: bool = False) -> None:
        """Advance rank ``r``'s step cascade from its current position.

        ``bind`` is the engine seq of the entry that resumed the rank —
        the position the detailed task's wake would have held; a rank
        exit reached while walked ahead of the engine clock re-enters
        the scheduler at exactly that slot.  ``deque_stage`` is set when
        the cascade occupies a ready-deque position (a requeued
        resumption, or an arriving rank's own continuation): an exit
        there resumes the parked task inline, just as the detailed
        task's continuation would have run at that position.
        """
        eng = self.eng
        transfer = self.net.transfer
        members = drv.members
        pend = drv.pend
        inbox = drv.inbox
        step_i = drv.step_i
        eager = self.eager
        me = members[r]
        p = drv.p
        shift = drv.shift
        if shift is None:
            prog = drv.progs[r]
            nsteps = len(prog)
        else:
            prog = None
            offs, rule, size = shift
            ring = drv.site.extra
            blocks = drv.site.values[r]
            nsteps = len(offs)
        while True:
            k = step_i[r]
            if k >= nsteps:
                drv.done += 1
                if drv.done == drv.p:
                    perf_counters.messages_coalesced += drv.nmsgs
                    self.unfinished -= 1
                ev = drv.site.events[r]
                val = drv.results[r]
                if cur_t > eng.now:
                    # walked ahead of the engine clock: re-enter the
                    # scheduler so the rank resumes at its true exit
                    # time, at the waking entry's own seq slot
                    eng._sched_at_seq(cur_t, bind, _K_FIRE, ev, val)
                elif deque_stage and ev._waiters:
                    # the cascade holds the deque position the detailed
                    # continuation would have run at: resume inline
                    ev._value = val
                    task = ev._waiters.pop()
                    eng._step(task, val)
                else:
                    ev.fire(val)
                break
            if prog is None:
                # closed-form shift step, derived from (r, k, p)
                off = offs[k]
                dst = r + off
                if dst >= p:
                    dst -= p
                src = r - off
                if src < 0:
                    src += p
                dstep = k
                if rule == _CONST:
                    nb = size
                elif rule == _OWN:
                    nb = sizeof(blocks[dst])
                else:
                    nb = ring[r - k if r >= k else r - k + p]
            else:
                dst, dstep, nb, src = prog[k]
                if callable(nb):
                    nb = nb()
            sendT = sbind = None
            has_send = dst >= 0
            if has_send:
                if nb <= eager:
                    free, arr = transfer(cur_t, me, members[dst], nb)
                    sendT = free
                    sbind = eng._seq + 1   # send-event fire
                    dseq = sbind + 1       # delivery
                    eng._seq = dseq
                    pe = pend[dst]
                    if pe is not None and pe[0] == dstep:
                        pe[3] = arr
                        pe[4] = dseq
                        drv._complete(dst, pe)
                    else:
                        inbox[dstep * p + dst] = ("e", arr, dseq)
                else:
                    _, harr = transfer(cur_t, me, members[dst], RTS_BYTES)
                    eng._seq += 1
                    self._push(harr, 0, eng._seq, 1,
                               (r, dst, dstep, nb), drv)
            if src < 0:
                # send-only step: wait for the sender-free event
                if sendT is None:
                    pend[r] = [k, None, None, 0.0, -1]
                    break
                step_i[r] += 1
                self._push(sendT, 1, sbind, 0, r, drv)
                break
            ib = inbox.pop(k * p + r, None)
            if ib is None:
                pend[r] = [k, sendT if has_send else 0.0,
                           sbind if has_send else -1, None, None]
                break
            if ib[0] == "h":
                # unmatched rendezvous header: posting the receive
                # sends the clear-to-send immediately
                node_of = self.node_of
                cts = cur_t + (self.net.wire_latency(
                    node_of[me], node_of[members[ib[1]]]) + self.cts_base)
                eng._seq += 1
                self._push(cts, 0, eng._seq, 2, (ib[1], r, k, ib[2]), drv)
                pend[r] = [k, sendT if has_send else 0.0,
                           sbind if has_send else -1, None, None]
                break
            arrT, dseq = ib[1], ib[2]
            if not has_send:
                # receive-only step
                if arrT <= cur_t:
                    # already in the unexpected queue: continue inline,
                    # keeping this cascade's ordering token
                    step_i[r] += 1
                    continue
                step_i[r] += 1
                self._push(arrT, 1, dseq, 0, r, drv)
                break
            if sendT is None:
                # rendezvous send still pending; receive resolved
                pend[r] = [k, None, None, arrT, dseq]
                break
            step_i[r] += 1
            if arrT >= sendT:
                self._push(arrT, 1, dseq, 0, r, drv)
            else:
                self._push(sendT, 1, sbind, 0, r, drv)
            break

    def pump(self) -> None:
        """Drain due work, then advance inline as far as legality allows.

        Entries due at the engine's current time are processed in
        ``(t, phase, seq)`` order; at contested timestamps every due
        entry is requeued into the engine heap at its own ``(t, seq)``
        slot so it interleaves with unrelated same-instant traffic
        exactly as the per-message schedule's entries would (initial
        entries — seq < 0 — run in their arriving task's own
        continuation and are never requeued).  After the due work, if
        the engine has nothing else to run before our next entry (empty
        ready deque, no earlier engine heap entry), no other traffic
        can touch the NICs in between — so the walk keeps going inline
        at future timestamps instead of paying one engine callback per
        timestamp.  Rank exits reached while ahead of the engine clock
        are scheduled back at their waking entry's seq slot so they
        resume at their true time and position; everything still
        pending when the advance stops gets one wake at the next
        entry's timestamp.
        """
        eng = self.eng
        now = eng.now
        heap = self.heap
        eheap = eng._heap
        eready = eng._ready
        fs = self.first_seq
        cur = now
        while heap:
            t1 = heap[0][0]
            if t1 > cur:
                # every entry at cur is consumed, and pushes are always
                # strictly in the future: cur's first-seq key is dead
                fs.pop(cur, None)
                # nothing due now — advance inline only while the
                # engine has nothing to run first: any ready-deque
                # entry, or an engine heap entry at or before t1,
                # could issue traffic that must interleave with ours
                if eready or (eheap and eheap[0][0] <= t1):
                    break
                cur = t1
            entry = heappop(heap)
            t, _phase, seq, code, arg, drv = entry
            if (seq >= 0 and cur == now
                    and (eready or (eheap and eheap[0][0] <= now))):
                # contested current instant: route the entry through
                # the engine scheduler at its own (t, seq) slot
                self.parked += 1
                if code == 0:
                    eng._sched_at_seq(t, seq, _K_CALL1, self._parked_fire,
                                      (drv, arg, seq))
                else:
                    eng._sched_at_seq(t, seq, _K_CALL1, self._parked_heap,
                                      entry)
                continue
            if code == 0:
                # initial entries (seq < 0) and uncontested resumptions
                # run in the current continuation
                self._casc(drv, arg, t, seq, seq < 0)
                continue
            self._heap_entry(t, code, arg, drv)
        if not heap:
            fs.clear()
        if heap:
            t0 = heap[0][0]
            if t0 < self.wake_at:
                s0 = fs.get(t0, heap[0][2])
                self.wake_at = t0
                self.wake_seq = s0
                eng._sched_at_seq(t0, s0 - 0.5, _K_CALL1, self._wake, None)
        elif self.unfinished and not self.parked:
            raise SimulationError(
                f"macro replay stalled: {self.unfinished} fully-arrived "
                "round(s) never completed their schedule (walker bug)")


def _macro_site(comm: "Communicator", kind: str, value: Any, program,
                results_for, ring_nb: Optional[int] = None
                ) -> Generator[Any, Any, Any]:
    """Park on the round's site; the walker replays the schedule.

    ``program`` is a :class:`_Shift` shared by every rank, or
    ``prog_for(site, r)``, which builds rank r's step list at its
    arrival (it may only touch rank r's own payload — other ranks'
    sizes go through lazy ``nb`` callables).  ``ring_nb``, when given, is
    stored as ``site.extra[r]``: the ring's per-origin block size.
    ``results_for(site)`` runs once on the last-arriving rank, before
    any exit can fire (every exit strictly follows the last arrival),
    and returns the per-rank results the walker hands to
    :meth:`Event.fire`.
    """
    desc = comm.desc
    key = comm._op_seq
    site = desc.sites.get(key)
    if site is None:
        site = _MacroSite(kind)
        desc.sites[key] = site
    elif site.kind != kind:
        raise MPIError(
            f"collective call mismatch on communicator {desc.ctx}: "
            f"rank {comm.rank} called {kind!r} while another rank "
            f"called {site.kind!r} at the same point (op #{key}) — "
            "all ranks must issue collectives in the same order"
        )
    r = comm.rank
    eng = comm._engine
    site.values[r] = value
    if ring_nb is not None:
        site.extra[r] = ring_nb
    site.arrivals[r] = eng.now
    site.order.append(r)
    ev = Event(eng, ("macro", desc.ctx, key, r))
    site.events[r] = ev
    drv = site.driver
    if drv is None:
        world = comm.world
        core = getattr(world, "_macro_walker", None)
        if core is None:
            core = world._macro_walker = _Walker(world)
        drv = site.driver = _Driver(comm, site, core, program)
    drv.push_initial(r)
    if len(site.order) == comm.size:
        del desc.sites[key]
        drv.results = results_for(site)
        drv.core.unfinished += 1
        perf_counters.macro_rounds += 1
    drv.core.pump()
    result = yield WaitEvent(ev)
    return result


# ----------------------------------------------------------------------
# per-kind programs and results
# ----------------------------------------------------------------------
def _data_of(v: Any) -> Any:
    return v.data if isinstance(v, Payload) else v


def _block_size(v: Any, nbytes: Optional[int]) -> int:
    if isinstance(v, Payload):
        return v.nbytes
    return nbytes if nbytes is not None else sizeof(v)


def _fallback(comm: "Communicator", nbytes: Optional[int]) -> bool:
    """Run the detailed schedule instead: single-rank communicators,
    networks the walk cannot order, and negative explicit sizes (which
    the detailed path rejects with its own error)."""
    return (comm.size == 1 or not _usable(comm)
            or (nbytes is not None and nbytes < 0))


def _pairwise(p: int, nbytes: Optional[int]) -> _Shift:
    """Pairwise exchange: a fixed size, or each block's own size."""
    offs = _offsets("pairwise", p)
    if nbytes is None:
        return _Shift(offs, _OWN)
    return _Shift(offs, _CONST, nbytes)


def barrier(comm: "Communicator") -> Generator[Any, Any, None]:
    if _fallback(comm, None):
        return (yield from detailed.barrier(comm))
    p = comm.size
    return (yield from _macro_site(
        comm, "barrier", None, _Shift(_offsets("dissemination", p), _CONST),
        lambda site: [None] * p))


def allgather(comm: "Communicator", value: Any,
              nbytes: Optional[int]) -> Generator[Any, Any, list]:
    if _fallback(comm, nbytes):
        return (yield from detailed.allgather(comm, value, nbytes))
    p = comm.size

    def results_for(site: _MacroSite) -> list:
        vals = site.values
        base = [_data_of(vals[j]) for j in range(p)]
        results = []
        for r in range(p):
            out = list(base)
            out[r] = vals[r]
            results.append(out)
        return results

    # ring: every step forwards one block to the right neighbour
    return (yield from _macro_site(
        comm, "allgather", value, _Shift(_offsets("ring", p), _RING),
        results_for, ring_nb=_block_size(value, nbytes)))


def alltoall(comm: "Communicator", values: list,
             nbytes_each: Optional[int]) -> Generator[Any, Any, list]:
    if _fallback(comm, nbytes_each):
        return (yield from detailed.alltoall(comm, values, nbytes_each))
    p = comm.size
    # index plain ints, not numpy scalars, exactly like the detailed
    # pairwise loop; np.asarray below restores dtype
    blocks = (values.tolist()
              if isinstance(values, np.ndarray) and values.ndim == 1
              else values)

    def results_for(site: _MacroSite) -> list:
        vals = site.values
        return [[vals[s][r] for s in range(p)] for r in range(p)]

    result = yield from _macro_site(comm, "alltoall", blocks,
                                    _pairwise(p, nbytes_each), results_for)
    if isinstance(values, np.ndarray):
        return np.asarray(result, dtype=values.dtype)
    return result


def reduce_scatter_block(comm: "Communicator", values: list, op: ReduceOp,
                         nbytes: Optional[int]) -> Generator[Any, Any, Any]:
    if _fallback(comm, nbytes):
        return (yield from detailed.reduce_scatter_block(
            comm, values, op, nbytes))
    p = comm.size

    def results_for(site: _MacroSite) -> list:
        vals = site.values
        results = []
        for r in range(p):
            acc = vals[r][r]
            for i in range(1, p):
                acc = op(acc, vals[(r - i) % p][r])
            results.append(acc)
        return results

    return (yield from _macro_site(comm, "reduce_scatter_block", values,
                                   _pairwise(p, nbytes), results_for))


def allreduce(comm: "Communicator", value: Any, op: ReduceOp,
              nbytes: Optional[int]) -> Generator[Any, Any, Any]:
    if _fallback(comm, nbytes):
        return (yield from detailed.allreduce(comm, value, op, nbytes))
    p = comm.size
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    nrounds = pof2.bit_length() - 1

    def nb_of(v: Any) -> int:
        return _block_size(v, nbytes)

    def acc(site: _MacroSite, q: int, j: int) -> Any:
        """Core rank q's partial reduction after j doubling rounds.

        j = 0 is the post-fold value.  Memoized on the site; every
        operand has causally arrived by the time a step's size thunk
        (or the last arrival's results pass) asks for it.
        """
        memo = site.extra
        k = (q, j)
        if k in memo:
            return memo[k]
        if j == 0:
            v = site.values[q]
            if q < rem:
                v = op(v, _data_of(site.values[q + pof2]))
        else:
            mask = 1 << (j - 1)
            mine = acc(site, q, j - 1)
            theirs = acc(site, q ^ mask, j - 1)
            v = op(mine, _data_of(theirs))
        memo[k] = v
        return v

    def prog_for(site: _MacroSite, r: int) -> list:
        if r >= pof2:
            # folder: push own value into the core, wait for the result
            return [(r - pof2, 0, nb_of(site.values[r]), -1),
                    (-1, 0, 0, r - pof2)]
        steps = []
        if r < rem:
            steps.append((-1, 0, 0, r + pof2))
        for j in range(nrounds):
            partner = r ^ (1 << j)
            dstep = (1 if partner < rem else 0) + j
            steps.append((partner, dstep,
                          (lambda q=r, j=j: nb_of(acc(site, q, j))),
                          partner))
        if r < rem:
            steps.append((r + pof2, 1,
                          (lambda q=r: nb_of(acc(site, q, nrounds))), -1))
        return steps

    def results_for(site: _MacroSite) -> list:
        return [acc(site, r, nrounds) if r < pof2
                else _data_of(acc(site, r - pof2, nrounds))
                for r in range(p)]

    return (yield from _macro_site(comm, "allreduce", value, prog_for,
                                   results_for))
