"""Property tests for the vectorized batch scheduling kernels.

The macro engine's whole correctness story rests on three kernels being
*bit-identical* to the scalar paths they replace:

* :meth:`FIFOResource.reserve_batch` vs a loop of
  :meth:`FIFOResource.reserve_span` calls — with and without piecewise
  :class:`ServiceProfile` fault windows;
* :meth:`NetworkModel.transfer_batch` vs a loop of
  :meth:`NetworkModel.transfer` calls — mixed intra-/cross-node
  destinations, with and without NIC profiles;
* :meth:`Engine.schedule_batch` and :meth:`World.send_batch` /
  :meth:`Communicator.isend_batch` vs their per-entry equivalents.

Hypothesis drives the first two (seeded, shrinkable); the engine- and
world-level checks are deterministic unit tests.  Equality assertions
are ``==`` on floats on purpose: the determinism gate requires the
batched paths to reproduce the exact IEEE left-folds of the scalar
loops, not approximations of them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import SimulationError
from repro.perf import perf_counters
from repro.sim import Engine, FIFOResource
from repro.sim.resources import ServiceProfile
from repro.simmpi import World
from repro.simmpi.payload import Payload

# -- strategies -------------------------------------------------------

sizes_st = st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=40)

# arrival gaps relative to the previous request, occasionally negative
# is impossible (arrivals are issue-ordered reservation times) but
# clustering at 0 is the common regime the macro engine produces
gaps_st = st.lists(st.floats(min_value=0.0, max_value=2.0,
                             allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=40)


def profile_st():
    """Fault windows: (start, duration, factor) incl. full stalls."""
    window = st.tuples(
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=1e-3, max_value=5.0, allow_nan=False),
        st.sampled_from([0.0, 0.1, 0.5, 2.0]))
    return st.lists(window, min_size=1, max_size=4)


def make_profile(windows) -> ServiceProfile:
    # a 0-speed window must close, or work inside it never finishes
    return ServiceProfile([(s, s + d, f) for s, d, f in windows])


def resource_state(r: FIFOResource) -> tuple:
    return (r.busy_until, r.busy_time, r.total_bytes, r.total_requests)


# -- reserve_batch vs reserve_span ------------------------------------

@settings(deadline=None)
@given(sizes=sizes_st, gaps=gaps_st,
       overhead=st.sampled_from([0.0, 1e-6, 0.01]),
       rate=st.sampled_from([1.0, 1e6, 3.7e9]))
def test_reserve_batch_matches_scalar_loop(sizes, gaps, overhead, rate):
    n = min(len(sizes), len(gaps))
    sizes, gaps = sizes[:n], gaps[:n]
    ts = np.cumsum(gaps)
    a = FIFOResource(Engine(), "a", rate=rate, overhead=overhead)
    b = FIFOResource(Engine(), "b", rate=rate, overhead=overhead)
    starts, dones = a.reserve_batch(ts, sizes)
    ref = [b.reserve_span(float(t), s) for t, s in zip(ts, sizes)]
    assert starts.tolist() == [r[0] for r in ref]
    assert dones.tolist() == [r[1] for r in ref]
    assert resource_state(a) == resource_state(b)


@settings(deadline=None)
@given(sizes=sizes_st, gaps=gaps_st, windows=profile_st())
def test_reserve_batch_matches_scalar_loop_with_profile(sizes, gaps,
                                                        windows):
    n = min(len(sizes), len(gaps))
    sizes, gaps = sizes[:n], gaps[:n]
    ts = np.cumsum(gaps)
    a = FIFOResource(Engine(), "a", rate=1e6, overhead=1e-5)
    b = FIFOResource(Engine(), "b", rate=1e6, overhead=1e-5)
    a.profile = make_profile(windows)
    b.profile = make_profile(windows)
    starts, dones = a.reserve_batch(ts, sizes)
    ref = [b.reserve_span(float(t), s) for t, s in zip(ts, sizes)]
    assert starts.tolist() == [r[0] for r in ref]
    assert dones.tolist() == [r[1] for r in ref]
    assert resource_state(a) == resource_state(b)


def test_reserve_batch_empty_and_negative():
    r = FIFOResource(Engine(), "r", rate=10.0)
    starts, dones = r.reserve_batch([], [])
    assert starts.size == 0 and dones.size == 0
    assert resource_state(r) == (0.0, 0.0, 0, 0)
    with pytest.raises(SimulationError):
        r.reserve_batch([0.0, 0.0], [4, -1])


# -- transfer_batch vs transfer ---------------------------------------

def _two_networks(nprocs=12, cores_per_node=3, profiled=()):
    nets = []
    for _ in range(2):
        w = World(MachineConfig(nprocs=nprocs,
                                cores_per_node=cores_per_node),
                  net_params=NetworkParams())
        net = w.network
        for node in profiled:
            prof = ServiceProfile([(0.0, 1e-4, 0.25), (2e-4, 3e-4, 0.0)])
            net.tx[node].profile = prof
            net.rx[node].profile = ServiceProfile([(0.0, 2e-4, 0.5)])
        nets.append(net)
    return nets


@settings(deadline=None)
@given(dsts=st.lists(st.integers(min_value=0, max_value=11),
                     min_size=1, max_size=30),
       sizes=st.lists(st.integers(min_value=0, max_value=1 << 18),
                      min_size=1, max_size=30),
       profiled=st.sampled_from([(), (0,), (0, 2)]))
def test_transfer_batch_matches_scalar_loop(dsts, sizes, profiled):
    n = min(len(dsts), len(sizes))
    dsts, sizes = dsts[:n], sizes[:n]
    net_a, net_b = _two_networks(profiled=profiled)
    frees, arrivals = net_a.transfer_batch(0, dsts, sizes)
    ref = [net_b.transfer(0.0, 0, d, s) for d, s in zip(dsts, sizes)]
    assert frees.tolist() == [r[0] for r in ref]
    assert arrivals.tolist() == [r[1] for r in ref]
    assert net_a.messages_sent == net_b.messages_sent
    assert net_a.bytes_sent == net_b.bytes_sent
    assert net_a.cross_node_messages == net_b.cross_node_messages
    assert net_a.cross_node_bytes == net_b.cross_node_bytes
    for ra, rb in zip(net_a.tx + net_a.rx, net_b.tx + net_b.rx):
        assert resource_state(ra) == resource_state(rb)


# -- Engine.schedule_batch and lazy names -----------------------------

def test_schedule_batch_preserves_relative_order():
    eng = Engine()
    fired = []

    def cb(tag):
        fired.append((eng.now, tag))

    def prog():
        eng.schedule_batch([(0.5, cb, "a"), (0.5, cb, "b"),
                            (1.0, cb, "c")])
        eng.schedule_batch([(0.5, cb, "d")])
        yield from ()

    eng.run_tasks([prog()])
    eng.run()
    assert fired == [(0.5, "a"), (0.5, "b"), (0.5, "d"), (1.0, "c")]


def test_lazy_tuple_task_and_event_names():
    from repro.sim import Event, Spawn
    from repro.sim.engine import _label

    eng = Engine()
    seen = {}

    def child():
        yield from ()
        return "ok"

    def prog():
        task = yield Spawn(child(), ("pipelined-write", 3))
        seen["name"] = task.name
        ev = Event(eng, ("send-free", 1, 0))
        ev.fire("v")
        seen["event"] = _label(ev.name)
        return None

    eng.run_tasks([prog()])
    assert seen["name"] == "pipelined-write:3"
    assert seen["event"] == "send-free:1:0"


# -- send_batch / isend_batch vs per-message isend --------------------

def _exchange(world: World, use_batch: bool, items, nbytes_fn):
    """Rank 0 sends ``items`` to each dst; receivers recv and record."""
    recv_times = {}

    def prog(comm):
        if comm.rank == 0:
            payloads = [(dst, Payload(nbytes_fn(i), ("m", i)))
                        for i, dst in enumerate(items)]
            if use_batch:
                reqs = comm.isend_batch(payloads, tag=7)
            else:
                reqs = [comm.isend(p, dest=dst, tag=7)
                        for dst, p in payloads]
            yield from comm.waitall(reqs, category="exchange")
        if comm.rank in items:
            for i, dst in enumerate(items):
                if dst != comm.rank:
                    continue
                payload = yield from comm.recv(source=0, tag=7,
                                               category="exchange")
                recv_times[(comm.rank, i)] = (comm.now, payload.data)
        return comm.now

    exits = world.launch(prog)
    net = world.network
    return (exits, recv_times,
            [resource_state(r) for r in net.tx + net.rx])


@pytest.mark.parametrize("sizes", [
    [64, 64, 64],                 # all eager
    [64, 1 << 20, 64],            # rendezvous splits the run
    [1 << 20, 1 << 20],           # all rendezvous
    [0, 64, 0, 64],               # zero-byte eager messages
])
def test_send_batch_virtual_times_match_per_message(sizes):
    items = [1 + (i % 3) for i in range(len(sizes))]
    out = []
    for use_batch in (False, True):
        # isend_batch coalesces only under a macro exchange fidelity
        w = World(MachineConfig(nprocs=4, cores_per_node=2),
                  net_params=NetworkParams(), collective_mode="macro")
        before = perf_counters.messages_coalesced
        out.append(_exchange(w, use_batch, items,
                             lambda i: sizes[i]))
    assert out[0] == out[1]
    eager = sum(s <= NetworkParams().eager_threshold for s in sizes)
    assert perf_counters.messages_coalesced - before == eager


@pytest.mark.parametrize("mode,coalesced", [
    ("analytic", 0), ("detailed", 0), ("scoped", 0),
    ("macro", 3), ("hybrid:exchange=macro", 3),
])
def test_isend_batch_coalesces_only_under_macro_exchange(mode, coalesced):
    w = World(MachineConfig(nprocs=4, cores_per_node=2),
              net_params=NetworkParams(), collective_mode=mode)
    before = perf_counters.messages_coalesced
    _exchange(w, True, [1, 2, 3], lambda i: 64)
    assert perf_counters.messages_coalesced - before == coalesced


def test_isend_batch_rejects_out_of_range_rank():
    w = World(MachineConfig(nprocs=2, cores_per_node=2),
              net_params=NetworkParams())
    from repro.errors import MPIError

    def prog(comm):
        if comm.rank == 0:
            with pytest.raises(MPIError):
                comm.world.send_batch(0, [(5, 0, 0, Payload(8, None))])
        yield from comm.barrier()

    w.launch(prog)
