"""Exchange sends go one message at a time under every fidelity.

The round walker is the only coalescing path: it replays synchronizing
collectives under ``detailed``.  Point-to-point exchange sends always
take :meth:`Communicator.isend`, so an exchange must leave the walker's
``messages_coalesced`` counter alone and reproduce a per-message
reference world (:func:`repro.simmpi.world._per_message_reference`)
exactly.  Equality assertions are ``==`` on floats on purpose: the
determinism gate requires bit-identical virtual times.
"""

from __future__ import annotations

import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError
from repro.perf import perf_counters
from repro.simmpi import World
from repro.simmpi.payload import Payload
from repro.simmpi.world import _per_message_reference

#: eager, rendezvous and zero-byte messages, two of them to one rank
SIZES = (64, 1 << 20, 64, 0)
DESTS = (1, 2, 3, 1)


def _exchange_prog(comm, recv_times=None):
    """Rank 0 isends every message; receivers recv and record."""
    if comm.rank == 0:
        reqs = [comm.isend(Payload(n, ("m", i)), dest=d, tag=7)
                for i, (d, n) in enumerate(zip(DESTS, SIZES))]
        yield from comm.waitall(reqs, category="exchange")
    for i, d in enumerate(DESTS):
        if d == comm.rank:
            payload = yield from comm.recv(source=0, tag=7,
                                           category="exchange")
            if recv_times is not None:
                recv_times[(d, i)] = (comm.now, payload.data)
    return comm.now


def _exchange(world: World):
    recv_times = {}

    def prog(comm):
        return (yield from _exchange_prog(comm, recv_times))

    exits = world.launch(prog)
    net = world.network
    return (exits, recv_times,
            [(r.busy_until, r.busy_time, r.total_bytes, r.total_requests)
             for r in net.tx + net.rx],
            world.engine.effects_dispatched)


def _world(mode: str) -> World:
    return World(MachineConfig(nprocs=4, cores_per_node=2),
                 net_params=NetworkParams(), collective_mode=mode)


@pytest.mark.parametrize("mode", [
    "analytic", "detailed", "macro", "scoped", "hybrid:exchange=macro",
    "hybrid:exchange=analytic", "scoped:world=detailed",
])
def test_exchange_sends_per_message_under_every_spelling(mode):
    before = perf_counters.messages_coalesced
    got = _exchange(_world(mode))
    assert perf_counters.messages_coalesced == before
    with _per_message_reference():
        reference = _world(mode)
    assert got == _exchange(reference)


def test_per_message_reference_world_never_coalesces():
    # an allgather the round walker coalesces in a default detailed
    # world goes one message at a time in the reference world
    def prog(comm):
        yield from _exchange_prog(comm)
        yield from comm.allgather(comm.rank)

    before = perf_counters.messages_coalesced
    _world("detailed").launch(prog)
    assert perf_counters.messages_coalesced > before
    with _per_message_reference():
        reference = _world("detailed")
    before = perf_counters.messages_coalesced
    reference.launch(prog)
    assert perf_counters.messages_coalesced == before


def test_isend_rejects_out_of_range_rank():
    def prog(comm):
        if comm.rank == 0:
            with pytest.raises(MPIError):
                comm.isend(Payload(8, None), dest=5)
        yield from comm.barrier()

    _world("analytic").launch(prog)
