"""Simulated MPI over the discrete-event engine.

Provides communicators with MPI matching semantics (source/tag/context,
wildcards, FIFO per peer), eager and rendezvous point-to-point protocols
timed through the :mod:`repro.cluster` network model, and the collective
operations collective I/O depends on (barrier, bcast, reduce, allreduce,
gather(v), allgather(v), alltoall(v), scan) behind a collective-fidelity
policy (:mod:`repro.simmpi.backends`) that picks, per call:

* ``detailed`` — collectives run their real message schedules
  (dissemination barrier, binomial trees, recursive doubling, ring,
  pairwise exchange) as simulated point-to-point traffic;
* ``macro`` — the same schedules replayed in closed form, bit-identical
  to ``detailed``;
* ``analytic`` — a collective is a synchronization site whose exit time is
  ``max(entry times) + LogP-style cost``; used for large-scale sweeps and
  validated against ``detailed`` in tests and an ablation benchmark.

Composite spellings (``hybrid``, ``sizethreshold``, ``scoped``) choose
among them by category, declared size or communicator scope, so the
collective wall can be modeled analytically while everything else keeps
full message fidelity.

Rank programs are generators; every blocking call is ``yield from``.
"""

from repro.simmpi.backends import (FidelityPolicy, available_backends,
                                   resolve_backend)
from repro.simmpi.payload import Payload, sizeof
from repro.simmpi.reduce_ops import MAX, MIN, PROD, SUM, ReduceOp
from repro.simmpi.timers import TimeBreakdown
from repro.simmpi.world import ANY_SOURCE, ANY_TAG, Communicator, Proc, World

__all__ = [
    "World",
    "Communicator",
    "Proc",
    "FidelityPolicy",
    "available_backends",
    "resolve_backend",
    "Payload",
    "sizeof",
    "TimeBreakdown",
    "ANY_SOURCE",
    "ANY_TAG",
    "ReduceOp",
    "SUM",
    "MAX",
    "MIN",
    "PROD",
]
