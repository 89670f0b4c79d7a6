"""LogGP-style interconnect model with per-NIC serialization.

Each node owns a full-duplex NIC modeled as two FIFO resources (transmit
and receive).  A message charges its byte volume on the sender's TX
resource and, pipelined behind the wire latency, on the receiver's RX
resource — so an isolated message costs ``o + L + n/BW`` while fan-in to
one node (the incast an I/O aggregator experiences during the exchange
phase) and fan-out from one node both serialize on the shared link.

Intra-node transfers (Catamount delivers user-space to user-space without
kernel buffering) bypass the NIC and cost a memcpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.machine import Machine
from repro.cluster.topology import Torus3D
from repro.errors import ConfigError
from repro.sim.engine import Engine
from repro.sim.resources import FIFOResource


@dataclass(frozen=True)
class NetworkParams:
    """Interconnect cost parameters (defaults approximate SeaStar)."""

    #: one-way wire latency, seconds
    latency: float = 6.0e-6
    #: NIC link bandwidth, bytes/second (~2 GB/s SeaStar injection)
    bandwidth: float = 2.0e9
    #: per-message send-side CPU/NIC overhead, seconds
    send_overhead: float = 1.0e-6
    #: per-message receive-side overhead, seconds
    recv_overhead: float = 1.0e-6
    #: intra-node copy bandwidth, bytes/second
    memcpy_bandwidth: float = 3.0e9
    #: messages at or below this size use the eager protocol
    eager_threshold: int = 65536
    #: extra latency per torus hop (0 disables topology sensitivity)
    hop_latency: float = 0.0

    def __post_init__(self) -> None:
        if min(self.latency, self.send_overhead, self.recv_overhead,
               self.hop_latency) < 0:
            raise ConfigError("network latencies/overheads must be >= 0")
        if self.bandwidth <= 0 or self.memcpy_bandwidth <= 0:
            raise ConfigError("network bandwidths must be > 0")
        if self.eager_threshold < 0:
            raise ConfigError("eager_threshold must be >= 0")

    def memcpy_time(self, nbytes: int) -> float:
        return nbytes / self.memcpy_bandwidth


class NetworkModel:
    """Owns the per-node NIC resources and computes message timings."""

    def __init__(self, engine: Engine, machine: Machine,
                 params: Optional[NetworkParams] = None,
                 topology: Optional[Torus3D] = None,
                 node_slots=None):
        self.engine = engine
        self.machine = machine
        self.params = params or NetworkParams()
        self.topology = topology
        #: optional node -> torus-slot mapping (allocation policy)
        self.node_slots = node_slots
        if topology is not None and topology.nnodes < machine.nnodes:
            raise ConfigError(
                f"torus has {topology.nnodes} slots for {machine.nnodes} nodes"
            )
        if node_slots is not None and len(node_slots) < machine.nnodes:
            raise ConfigError("node_slots must cover every node")
        p = self.params
        self.tx = [
            FIFOResource(engine, f"nic-tx-{n}", rate=p.bandwidth,
                         overhead=p.send_overhead)
            for n in range(machine.nnodes)
        ]
        self.rx = [
            FIFOResource(engine, f"nic-rx-{n}", rate=p.bandwidth,
                         overhead=p.recv_overhead)
            for n in range(machine.nnodes)
        ]
        self.messages_sent = 0
        self.bytes_sent = 0
        #: messages that actually crossed the interconnect (not memcpy)
        self.cross_node_messages = 0
        self.cross_node_bytes = 0
        # hot-path caches: plain-python rank->node table (numpy scalar
        # extraction is ~10x a list index) and the flat-latency flag
        self._node_of = [int(n) for n in machine.node_of]
        self._flat_wire = topology is None or p.hop_latency <= 0

    def wire_latency(self, src_node: int, dst_node: int) -> float:
        lat = self.params.latency
        if self.topology is not None and self.params.hop_latency > 0:
            a, b = src_node, dst_node
            if self.node_slots is not None:
                a, b = int(self.node_slots[a]), int(self.node_slots[b])
            lat += self.params.hop_latency * self.topology.hops(a, b)
        return lat

    def transfer(self, t: float, src_rank: int, dst_rank: int,
                 nbytes: int) -> tuple[float, float]:
        """Reserve resources for a message issued at virtual time ``t``;
        returns ``(sender_free, arrival)``.

        ``sender_free`` is when the sending CPU may proceed (data handed to
        the NIC / copied locally); ``arrival`` is when the payload is fully
        available at the receiver.  Non-blocking: callers sleep as their
        protocol requires.  Calls must come in global chronological order
        of ``t`` (the engine's clock, or the macro walker's replay
        clock), so the NIC FIFO chains see the per-message order.
        """
        self.messages_sent += 1
        self.bytes_sent += nbytes
        node_of = self._node_of
        src_node = node_of[src_rank]
        dst_node = node_of[dst_rank]
        p = self.params
        if src_node == dst_node:
            done = t + p.send_overhead + nbytes / p.memcpy_bandwidth
            return done, done
        self.cross_node_messages += 1
        self.cross_node_bytes += nbytes
        tx = self.tx[src_node]
        rx = self.rx[dst_node]
        if tx.profile is None and rx.profile is None:
            # inlined FIFOResource.reserve_span (nominal-speed path);
            # the arithmetic matches it bit for bit, including reporting
            # the span start as done - stime
            busy = tx.busy_until
            start = t if t > busy else busy
            stime = tx.overhead + nbytes / tx.rate
            tx_done = start + stime
            tx.busy_time += stime
            tx.busy_until = tx_done
            tx.total_bytes += nbytes
            tx.total_requests += 1
            tx_start = tx_done - stime
            if self._flat_wire:
                first_byte = tx_start + p.latency
            else:
                first_byte = tx_start + self.wire_latency(src_node, dst_node)
            busy = rx.busy_until
            start = first_byte if first_byte > busy else busy
            stime = rx.overhead + nbytes / rx.rate
            arrival = start + stime
            rx.busy_time += stime
            rx.busy_until = arrival
            rx.total_bytes += nbytes
            rx.total_requests += 1
            return tx_done, arrival
        tx_start, tx_done = tx.reserve_span(t, nbytes)
        if self._flat_wire:
            first_byte = tx_start + p.latency
        else:
            first_byte = tx_start + self.wire_latency(src_node, dst_node)
        arrival = rx.reserve_span(first_byte, nbytes)[1]
        return tx_done, arrival

    def transfer_batch(self, src_rank: int, dst_ranks, sizes
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Reserve resources for N messages from one sender, in issue order.

        Batched counterpart of :meth:`transfer` for a round whose message
        set is known up-front: returns ``(sender_frees, arrivals)``
        float64 arrays, bit-identical to N scalar :meth:`transfer` calls
        in the same order.  The sender's TX NIC serializes the whole
        batch as one :meth:`~repro.sim.resources.FIFOResource.reserve_batch`
        chain; receiver RX NICs are reserved per destination node in
        issue order (distinct resources, so regrouping cannot reorder any
        FIFO chain).  Intra-node messages stay pure memcpy formulas.
        """
        node_of = self._node_of
        src_node = node_of[src_rank]
        dst_nodes = np.array([node_of[d] for d in dst_ranks], dtype=np.int64)
        n = int(dst_nodes.size)
        sizes_arr = np.asarray(sizes, dtype=np.int64)
        self.messages_sent += n
        self.bytes_sent += int(sizes_arr.sum())
        now = self.engine.now
        p = self.params
        frees = np.empty(n, np.float64)
        arrivals = np.empty(n, np.float64)
        local = dst_nodes == src_node
        if local.any():
            done = now + p.send_overhead + sizes_arr[local] / p.memcpy_bandwidth
            frees[local] = done
            arrivals[local] = done
        if not local.all():
            idx = np.flatnonzero(~local)
            rsizes = sizes_arr[idx]
            self.cross_node_messages += int(idx.size)
            self.cross_node_bytes += int(rsizes.sum())
            tx = self.tx[src_node]
            tx_starts, tx_dones = tx.reserve_batch(
                np.full(idx.size, now), rsizes)
            if self._flat_wire:
                first_bytes = tx_starts + p.latency
            else:
                first_bytes = tx_starts + np.array(
                    [self.wire_latency(src_node, int(dn))
                     for dn in dst_nodes[idx]])
            frees[idx] = tx_dones
            rnodes = dst_nodes[idx]
            for dn in np.unique(rnodes):
                sel = np.flatnonzero(rnodes == dn)
                _, arr = self.rx[int(dn)].reserve_batch(
                    first_bytes[sel], rsizes[sel])
                arrivals[idx[sel]] = arr
        return frees, arrivals

    def point_to_point_time(self, nbytes: int) -> float:
        """Uncontended one-way message time (used by analytic collectives)."""
        p = self.params
        return p.send_overhead + p.latency + p.recv_overhead + nbytes / p.bandwidth
