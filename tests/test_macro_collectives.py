"""The round walker's contract: bit-identical to per-message, far cheaper.

``detailed`` replays synchronizing collectives through the round walker
(``macro`` is an alias of it).  Every test here runs the same rank
program twice — once in a per-message reference world
(:func:`~repro.simmpi.world._per_message_reference`), once on the
default ``detailed`` path — and compares *exactly*:
per-rank results and exit times, end-of-run clock, network counters, and
the full per-NIC ``(busy_until, busy_time, total_bytes,
total_requests)`` state.  Float comparisons are ``==`` on purpose: the
macro walker must replay the identical IEEE arithmetic through the
identical FIFO reservation order, and the hot-path determinism gate
(``benchmarks/bench_hotpath.py``) depends on that holding at scale.

Coverage mirrors the acceptance grid: every coalescible collective kind
x eager/rendezvous sizes x arrival skew x node shapes, concurrent and
back-to-back rounds, subcommunicators, hybrid composition, per-handle
``with_backend`` overrides, NIC fault profiles, torus hop latency,
ragged per-destination sizes across the eager threshold, the declared
fallbacks (size-1 comms, zero-latency networks), and the
mismatched-collective ledger error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.cluster.topology import Torus3D
from repro.errors import MPIError
from repro.perf import perf_counters
from repro.sim.effects import Sleep
from repro.sim.resources import ServiceProfile
from repro.simmpi import World
from repro.simmpi.reduce_ops import SUM
from repro.simmpi.world import _per_message_reference


def net_snapshot(world: World) -> dict:
    net = world.network
    return {
        "now": world.engine.now,
        "msgs": net.messages_sent,
        "bytes": net.bytes_sent,
        "xmsgs": net.cross_node_messages,
        "xbytes": net.cross_node_bytes,
        "tx": [(r.busy_until, r.busy_time, r.total_bytes,
                r.total_requests) for r in net.tx],
        "rx": [(r.busy_until, r.busy_time, r.total_bytes,
                r.total_requests) for r in net.rx],
    }


def norm(x):
    if isinstance(x, np.ndarray):
        return ("nd", x.dtype.str, x.tolist())
    if isinstance(x, (list, tuple)):
        return [norm(y) for y in x]
    return x


def make_world(mode: str, p: int, cpn: int, reference: bool = False,
               **kw) -> World:
    """A world on the default path, or a per-message reference one."""
    if reference:
        with _per_message_reference():
            return make_world(mode, p, cpn, **kw)
    return World(MachineConfig(nprocs=p, cores_per_node=cpn),
                 collective_mode=mode, **kw)


def run_world(mode: str, p: int, cpn: int, program, profile_nodes=(),
              topology=None, reference: bool = False, **net_kw):
    world = make_world(mode, p, cpn, reference,
                       net_params=NetworkParams(**net_kw), topology=topology)
    for node in profile_nodes:
        world.network.tx[node].profile = ServiceProfile(
            [(0.0, 1e-4, 0.25), (2e-4, 4e-4, 0.0)])
        world.network.rx[node].profile = ServiceProfile(
            [(1e-5, 3e-4, 0.5)])
    results = world.launch(program)
    return norm(results), net_snapshot(world)


def assert_walker_matches_reference(p, cpn, program, profile_nodes=(),
                                    topology=None, **net_kw):
    ref = run_world("detailed", p, cpn, program,
                    profile_nodes=profile_nodes, topology=topology,
                    reference=True, **net_kw)
    got = run_world("detailed", p, cpn, program,
                    profile_nodes=profile_nodes, topology=topology,
                    **net_kw)
    assert ref[0] == got[0], "per-rank results diverge"
    assert ref[1] == got[1], "virtual-time / NIC state diverges"


def grid_program(kind: str, p: int, nb, skew: float):
    def program(comm):
        r = comm.rank
        yield Sleep(skew * ((r * 7) % 5))
        if kind == "barrier":
            res = yield from comm.barrier()
        elif kind == "allgather":
            res = yield from comm.allgather(("v", r), nbytes=nb)
        elif kind == "allgather_none":
            res = yield from comm.allgather([r] * 3)
        elif kind == "alltoall":
            res = yield from comm.alltoall(list(range(p)), nbytes_each=nb)
        elif kind == "alltoall_np":
            res = yield from comm.alltoall(np.arange(p) * r)
        elif kind == "allreduce":
            res = yield from comm.allreduce(float(r + 1), op=SUM,
                                            nbytes=nb)
        elif kind == "rsb":
            res = yield from comm.reduce_scatter_block(
                [r * 100 + d for d in range(p)], op=SUM, nbytes=nb)
        else:
            raise AssertionError(kind)
        # trailing round: laggards of the round above are still walking
        # while early ranks enter here, so cross-round ordering matters
        res2 = yield from comm.allreduce(r * 2 + 1, op=SUM, nbytes=8)
        return comm.now, res, res2

    return program


KINDS = ["barrier", "allgather", "allgather_none", "alltoall",
         "alltoall_np", "allreduce", "rsb"]


@pytest.mark.parametrize("p,cpn", [(2, 1), (5, 2), (8, 4), (13, 4)])
@pytest.mark.parametrize("kind", KINDS)
def test_grid_eager_with_skew(p, cpn, kind):
    assert_walker_matches_reference(p, cpn, grid_program(kind, p, 8, 3e-4))


@pytest.mark.parametrize("kind", ["allgather", "alltoall", "allreduce",
                                  "rsb"])
@pytest.mark.parametrize("nb", [4096, 200000])
def test_grid_rendezvous_sizes(kind, nb):
    # 200000 bytes is far past the eager threshold: the walker must
    # replay the header/CTS/data rendezvous protocol, not just eager
    assert_walker_matches_reference(7, 3, grid_program(kind, 7, nb, 0.0))
    assert_walker_matches_reference(8, 4, grid_program(kind, 8, nb, 3e-4))


@pytest.mark.parametrize("p", [6, 13])
@pytest.mark.parametrize("kind,nb", [("barrier", 0), ("allgather", 8),
                                     ("allgather", 200000),
                                     ("alltoall", 8), ("alltoall", 200000),
                                     ("rsb", 8), ("rsb", 200000)])
def test_torus_hop_latency(p, kind, nb):
    # hop_latency > 0 on a torus takes the per-pair wire_latency branch
    # of NetworkModel.transfer and of the rendezvous clear-to-send
    assert_walker_matches_reference(
        p, 2, grid_program(kind, p, nb, 3e-4),
        topology=Torus3D((2, 2, 2)), hop_latency=2.5e-7)


def ragged_program(kind: str, p: int):
    """Per-destination sizes from 0 to 120000 bytes, straddling the
    64 KiB eager threshold, so one round mixes eager and rendezvous
    steps sized from each rank's own blocks."""
    def program(comm):
        r = comm.rank
        yield Sleep(3e-4 * ((r * 7) % 5))
        if kind == "alltoall":
            res = yield from comm.alltoall(
                [bytes((r * 7 + d * 13) % 5 * 30000) for d in range(p)])
        else:
            # a slot's arrays share one length across sources (SUM
            # reduces them elementwise); lengths vary per slot
            res = yield from comm.reduce_scatter_block(
                [np.full((d * 5) % 4 * 5000, r, dtype=np.int64)
                 for d in range(p)], op=SUM)
        return comm.now, res

    return program


@pytest.mark.parametrize("profile_nodes", [(), (0, 1)])
@pytest.mark.parametrize("kind", ["alltoall", "rsb"])
def test_ragged_sizes_straddle_eager_threshold(kind, profile_nodes):
    assert_walker_matches_reference(7, 2, ragged_program(kind, 7),
                                  profile_nodes=profile_nodes)


def test_back_to_back_mixed_rounds():
    def program(comm):
        r = comm.rank
        yield from comm.barrier()
        a = yield from comm.allgather(r, nbytes=4096)
        b = yield from comm.alltoall(list(range(comm.size)),
                                     nbytes_each=64)
        yield Sleep(1e-6 * r)
        c = yield from comm.allreduce(r, op=SUM)
        return comm.now, a, b, c

    assert_walker_matches_reference(8, 4, program)


def test_disjoint_subcommunicators_overlap():
    def program(comm):
        r = comm.rank
        sub = yield from comm.split(color=r % 2, key=r)
        yield Sleep(2e-4 * (r % 3))
        a = yield from sub.allgather(r, nbytes=512)
        b = yield from comm.allreduce(r, op=SUM, nbytes=8)
        return comm.now, a, b

    assert_walker_matches_reference(8, 2, program)


def test_nic_fault_profiles_replay_bit_identically():
    # piecewise-degraded and stalled NICs exercise the profiled
    # reserve_span path of NetworkModel.transfer under the walker
    assert_walker_matches_reference(
        6, 2, grid_program("alltoall", 6, 256, 3e-4),
        profile_nodes=(0, 1))


def test_hybrid_sync_macro_matches_detailed():
    prog = grid_program("allreduce", 6, 8, 3e-4)
    ref = run_world("detailed", 6, 2, prog, reference=True)
    hyb = run_world("hybrid:sync=macro,default=detailed", 6, 2, prog)
    assert ref == hyb


def test_sizethreshold_composes_with_macro_world():
    # the walker must agree with the per-message reference even when
    # the workload straddles the eager threshold in both directions
    def program(comm):
        a = yield from comm.allgather(comm.rank, nbytes=64)
        b = yield from comm.allgather(comm.rank, nbytes=1 << 16)
        return comm.now, a, b

    assert_walker_matches_reference(6, 3, program)


def test_with_backend_per_handle_override():
    def make(mode):
        def program(comm):
            fast = comm.with_backend(mode)
            a = yield from fast.allreduce(comm.rank, op=SUM, nbytes=8)
            b = yield from comm.allgather(comm.rank, nbytes=8)
            return comm.now, a, b

        return program

    ref = run_world("detailed", 6, 2, make("detailed"), reference=True)
    mac = run_world("detailed", 6, 2, make("macro"))
    assert ref == mac


def test_size_one_comm_falls_back():
    def program(comm):
        sub = yield from comm.split(color=comm.rank, key=0)
        a = yield from sub.allreduce(comm.rank, op=SUM)
        b = yield from comm.barrier()
        return comm.now, a, b

    assert_walker_matches_reference(4, 2, program)


def test_zero_latency_network_falls_back():
    # latency == 0 breaks the walker's usability precondition; the
    # walker must detect it and run the per-message schedule
    assert_walker_matches_reference(5, 2,
                                  grid_program("allgather", 5, 8, 0.0),
                                  latency=0.0)


@pytest.mark.parametrize("mode", ["detailed", "macro"])
@pytest.mark.parametrize("kind", ["allgather", "alltoall", "allreduce",
                                  "rsb"])
def test_negative_size_rejected(mode, kind):
    for reference in (False, True):
        world = make_world(mode, 4, 2, reference, net_params=NetworkParams())
        with pytest.raises(MPIError, match="payload size"):
            world.launch(grid_program(kind, 4, -1, 0.0))


def test_mismatched_collectives_raise():
    def program(comm):
        if comm.rank == 0:
            yield from comm.barrier()
        else:
            yield from comm.allgather(comm.rank)

    world = World(MachineConfig(nprocs=2, cores_per_node=2),
                  collective_mode="macro",
                  net_params=NetworkParams())
    with pytest.raises(MPIError):
        world.launch(program)


def test_macro_counters_increment():
    before_rounds = perf_counters.macro_rounds
    before_msgs = perf_counters.messages_coalesced
    run_world("macro", 8, 4, grid_program("alltoall", 8, 64, 0.0))
    assert perf_counters.macro_rounds > before_rounds
    assert perf_counters.messages_coalesced > before_msgs


def test_macro_dispatches_fewer_events():
    def count_events(reference):
        world = make_world("detailed", 16, 4, reference,
                           net_params=NetworkParams())

        def program(comm):
            for _ in range(3):
                yield from comm.alltoall(list(range(comm.size)),
                                         nbytes_each=64)
            return comm.now

        det = world.launch(program)
        return det, world.engine.effects_dispatched

    ref_res, ref_events = count_events(True)
    mac_res, mac_events = count_events(False)
    assert ref_res == mac_res
    assert mac_events < ref_events / 4
