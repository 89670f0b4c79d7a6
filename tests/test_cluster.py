"""Unit tests for the machine model, mappings, topology and network."""

import numpy as np
import pytest

from repro.cluster import Machine, MachineConfig, NetworkModel, NetworkParams, Torus3D
from repro.cluster.machine import compute_mapping
from repro.errors import ConfigError
from repro.sim import Engine


class TestMapping:
    def test_block_mapping_matches_figure5(self):
        # Figure 5: 8 processes, 2 cores/node, block: N0(P0,P1) N1(P2,P3)...
        node_of = compute_mapping(8, 2, "block")
        np.testing.assert_array_equal(node_of, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_cyclic_mapping_matches_figure5(self):
        # Figure 5: cyclic: N0(P0,P4) N1(P1,P5) N2(P2,P6) N3(P3,P7)
        node_of = compute_mapping(8, 2, "cyclic")
        np.testing.assert_array_equal(node_of, [0, 1, 2, 3, 0, 1, 2, 3])

    def test_uneven_last_node(self):
        node_of = compute_mapping(5, 2, "block")
        np.testing.assert_array_equal(node_of, [0, 0, 1, 1, 2])

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ConfigError):
            compute_mapping(4, 2, "scatter")


class TestMachine:
    def test_nnodes_rounds_up(self):
        assert MachineConfig(nprocs=5, cores_per_node=2).nnodes == 3
        assert MachineConfig(nprocs=4, cores_per_node=2).nnodes == 2

    def test_ranks_on_node_inverse_of_node_of(self):
        m = Machine(MachineConfig(nprocs=8, cores_per_node=2, mapping="cyclic"))
        assert m.ranks_on_node(0) == [0, 4]
        assert m.ranks_on_node(3) == [3, 7]
        for node in range(m.nnodes):
            for r in m.ranks_on_node(node):
                assert m.node_of_rank(r) == node

    def test_colocated(self):
        m = Machine(MachineConfig(nprocs=8, cores_per_node=2, mapping="block"))
        assert m.colocated(0, 1)
        assert not m.colocated(1, 2)

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            MachineConfig(nprocs=0)
        with pytest.raises(ConfigError):
            MachineConfig(nprocs=4, cores_per_node=0)

    def test_rank_bounds_checked(self):
        m = Machine(MachineConfig(nprocs=4, cores_per_node=2))
        with pytest.raises(ConfigError):
            m.node_of_rank(4)
        with pytest.raises(ConfigError):
            m.ranks_on_node(9)


class TestTorus:
    def test_fit_covers_requested_nodes(self):
        for n in (1, 2, 7, 8, 27, 100, 1000):
            t = Torus3D.fit(n)
            assert t.nnodes >= n

    def test_hops_symmetric_and_zero_on_diagonal(self):
        t = Torus3D((4, 4, 4))
        for a in range(0, 64, 7):
            assert t.hops(a, a) == 0
            for b in range(0, 64, 11):
                assert t.hops(a, b) == t.hops(b, a)

    def test_wraparound_distance(self):
        t = Torus3D((4, 1, 1))
        # nodes 0 and 3 are adjacent through the wrap link
        assert t.hops(0, 3) == 1
        assert t.hops(0, 2) == 2

    def test_diameter(self):
        assert Torus3D((4, 4, 4)).diameter() == 6

    def test_hops_match_networkx_shortest_paths(self):
        t = Torus3D((3, 3, 2))
        import networkx as nx

        g = t.to_networkx()
        spl = dict(nx.all_pairs_shortest_path_length(g))
        for a in range(t.nnodes):
            for b in range(t.nnodes):
                expected = 0 if a == b else spl[a][b]
                assert t.hops(a, b) == expected, (a, b)

    def test_invalid_dims(self):
        with pytest.raises(ConfigError):
            Torus3D((0, 1, 1))


class TestNetworkModel:
    def make(self, nprocs=4, cores=2, **kw):
        eng = Engine()
        machine = Machine(MachineConfig(nprocs=nprocs, cores_per_node=cores))
        params = NetworkParams(**kw)
        return eng, NetworkModel(eng, machine, params)

    def test_isolated_message_cost(self):
        eng, net = self.make(latency=1e-6, bandwidth=1e9, send_overhead=1e-7,
                             recv_overhead=1e-7)
        free, arrival = net.transfer(0.0, 0, 2, 1000)  # cross node
        assert free == pytest.approx(1e-7 + 1000 / 1e9)
        # arrival = tx_start + latency + rx service
        assert arrival == pytest.approx(1e-6 + 1e-7 + 1000 / 1e9, rel=1e-9)

    def test_intra_node_uses_memcpy(self):
        eng, net = self.make(memcpy_bandwidth=2e9, send_overhead=1e-7)
        free, arrival = net.transfer(0.0, 0, 1, 2000)  # same node (block mapping)
        assert free == arrival == pytest.approx(1e-7 + 2000 / 2e9)
        assert net.tx[0].total_requests == 0

    def test_outcast_serializes_on_sender_tx(self):
        eng, net = self.make(latency=0.0, bandwidth=1e6, send_overhead=0.0,
                             recv_overhead=0.0)
        _, a1 = net.transfer(0.0, 0, 2, 1_000_000)  # 1 s on the wire
        _, a2 = net.transfer(0.0, 0, 3, 1_000_000)
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_incast_serializes_on_receiver_rx(self):
        eng, net = self.make(nprocs=6, latency=0.0, bandwidth=1e6,
                             send_overhead=0.0, recv_overhead=0.0)
        _, a1 = net.transfer(0.0, 0, 4, 1_000_000)  # nodes 0 -> 2
        _, a2 = net.transfer(0.0, 2, 4, 1_000_000)  # nodes 1 -> 2
        assert a1 == pytest.approx(1.0)
        assert a2 == pytest.approx(2.0)

    def test_hop_latency_with_topology(self):
        eng = Engine()
        machine = Machine(MachineConfig(nprocs=8, cores_per_node=1))
        topo = Torus3D((8, 1, 1))
        params = NetworkParams(latency=1e-6, hop_latency=1e-6, bandwidth=1e12,
                               send_overhead=0.0, recv_overhead=0.0)
        net = NetworkModel(eng, machine, params, topology=topo)
        assert net.wire_latency(0, 1) == pytest.approx(2e-6)
        assert net.wire_latency(0, 4) == pytest.approx(5e-6)  # 4 hops max on ring of 8

    def test_topology_too_small_rejected(self):
        eng = Engine()
        machine = Machine(MachineConfig(nprocs=64, cores_per_node=1))
        with pytest.raises(ConfigError):
            NetworkModel(eng, machine, topology=Torus3D((2, 2, 2)))

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            NetworkParams(latency=-1.0)
        with pytest.raises(ConfigError):
            NetworkParams(bandwidth=0.0)
        with pytest.raises(ConfigError):
            NetworkParams(eager_threshold=-1)

    def test_traffic_counters(self):
        eng, net = self.make()
        net.transfer(0.0, 0, 2, 100)
        net.transfer(0.0, 0, 2, 200)
        assert net.messages_sent == 2
        assert net.bytes_sent == 300
