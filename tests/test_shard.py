"""Sharded parallel DES: bit-identity gates and the partition contract.

The acceptance bar for :mod:`repro.shard` is exact: a sharded run must
reproduce every virtual-time metric of the unsharded run bit for bit —
per-rank access times, breakdown sums, elapsed total, validation
reports.  These tests run the same configuration at 1/2/4 shards across
backends, protocols and a boundary-straddling fault plan and compare
full fingerprints.
"""

import functools
from dataclasses import fields

import pytest

from repro.errors import ShardError
from repro.faults import FaultPlan
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.shard import analyze, workload_hints_of
from repro.workloads import TileIOConfig, tile_io_program

LUSTRE = {"n_osts": 4, "default_stripe_count": 4,
          "default_stripe_size": 4096}


def parcoll_workload(**extra):
    hints = {"protocol": "parcoll", "parcoll_ngroups": 4, **extra}
    wl = TileIOConfig(tile_rows=16, tile_cols=12, element_size=64,
                      mode="both", hints=hints)
    return functools.partial(tile_io_program, wl)


def config(shards=1, **kw):
    base = dict(nprocs=16, cores_per_node=2,
                collective_mode="scoped:world=analytic,default=macro",
                lustre=LUSTRE, shards=shards)
    base.update(kw)
    return ExperimentConfig(**base)


def fingerprint(result):
    """Exact-identity fingerprint: every virtual-time metric, bit for bit."""
    per_rank = []
    for st in result.per_rank:
        row = {}
        for f in fields(st):
            v = getattr(st, f.name)
            row[f.name] = (v.start.hex(), v.end.hex()) \
                if hasattr(v, "start") else v
        per_rank.append(row)
    # Validation *check counts* are excluded on purpose: a shard sees
    # only its own write completions, so the mid-run quiescence
    # heuristic fires less often there — violations must match exactly.
    return (per_rank,
            {c: {k: (v.hex() if isinstance(v, float) else v)
                 for k, v in d.items()}
             for c, d in result.breakdown.items()},
            result.elapsed_total.hex(),
            result.validation["violations"] if result.validation else None)


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("backend", [
        "scoped:world=analytic,default=macro",
        "scoped:world=analytic,default=detailed",
        "scoped:default=detailed",
        "analytic",
    ])
    def test_sharded_equals_unsharded(self, shards, backend):
        program = parcoll_workload()
        base = run_experiment(config(1, collective_mode=backend), program)
        test = run_experiment(
            config(shards, collective_mode=backend), program)
        assert fingerprint(test) == fingerprint(base)
        sh = test.perf.shard
        assert sh["effective"] == shards
        assert sh["fallback_reason"] is None
        assert sh["sync_rounds"] > 0
        assert len(sh["per_shard_events"]) == shards
        assert sh["load_imbalance"] >= 1.0

    def test_fault_straddling_shard_boundary(self):
        # OST 1 serves file areas of subgroups owned by different
        # shards (4 OSTs, stripe_count 4: every area touches every
        # OST), so the straggler's FIFO backlog couples the shards
        # through the coordinator-owned file system.
        faults = FaultPlan.straggler_ost(ost=1, factor=4.0)
        program = parcoll_workload()
        base = run_experiment(config(1, faults=faults, seed=7), program)
        test = run_experiment(config(2, faults=faults, seed=7), program)
        assert fingerprint(test) == fingerprint(base)

    def test_validated_sharded_run_oracle_green(self):
        # PR 5 correctness oracle on a sharded run: shard-local shadow
        # state must match the replica files, and the result must still
        # be bit-identical to the unsharded validated run.
        lustre = {**LUSTRE, "store_data": True}
        program = parcoll_workload()
        base = run_experiment(
            config(1, lustre=lustre, validate=True), program)
        test = run_experiment(
            config(2, lustre=lustre, validate=True), program)
        assert fingerprint(test) == fingerprint(base)
        assert test.validation is not None
        assert not test.validation["violations"]
        # the byte-level file oracle ran on the sampled shard (rank 0's
        # close hook lives in shard 0) and the read-back oracle on both
        assert test.validation["checks"]["file_oracle_bytes"] >= 1
        assert test.validation["checks"]["read_oracle"] == 16


class TestFallbacks:
    @pytest.mark.parametrize("protocol", ["ext2ph", "nodeagg"])
    def test_unshardable_protocols_fall_back(self, protocol):
        wl = TileIOConfig(tile_rows=16, tile_cols=12, element_size=64,
                          hints={"protocol": protocol})
        program = functools.partial(tile_io_program, wl)
        result = run_experiment(config(4, lustre=LUSTRE), program)
        sh = result.perf.shard
        assert sh["shards"] == 4
        assert sh["effective"] == 1
        assert "parcoll" in sh["fallback_reason"]

    def test_analyze_conditions(self):
        hints = {"protocol": "parcoll", "parcoll_ngroups": 4}

        def plan(cfg_kw=None, hint_kw=None):
            return analyze(config(4, **(cfg_kw or {})),
                           {**hints, **(hint_kw or {})})

        assert plan().active
        assert plan().ranks_per_shard == 4
        assert plan().groups_per_shard == 1
        for kw, needle in [
            (dict(cfg_kw={"mapping": "roundrobin"}), "mapping"),
            (dict(cfg_kw={"use_torus": True}), "torus"),
            (dict(cfg_kw={"collective_mode": "detailed"}), "analytic"),
            (dict(cfg_kw={"cores_per_node": 8}), "node"),
            (dict(hint_kw={"parcoll_ngroups": 6}), "divide"),
            (dict(hint_kw={"parcoll_ngroups": None}), "parcoll_ngroups"),
        ]:
            p = plan(**kw)
            assert not p.active
            assert needle in p.reason
        # every spelling whose world collectives all resolve to
        # 'analytic' is shardable, however it is written
        for mode in ("scoped", "scoped:default=detailed",
                     "hybrid:default=analytic"):
            assert plan({"collective_mode": mode}).active, mode
        for mode in ("detailed", "scoped:world=detailed"):
            p = plan({"collective_mode": mode})
            assert not p.active
            assert "per-message" in p.reason

    def test_shards_1_is_trivial(self):
        p = analyze(config(1), {"protocol": "parcoll",
                                "parcoll_ngroups": 4})
        assert not p.active
        assert p.reason is None

    def test_owned_ranks_partition(self):
        p = analyze(config(4), {"protocol": "parcoll",
                                "parcoll_ngroups": 4})
        seen = []
        for sid in range(4):
            rng = p.owned_ranks(sid)
            seen.extend(rng)
            for r in rng:
                assert p.shard_of(r) == sid
        assert seen == list(range(16))

    def test_workload_hints_extraction(self):
        program = parcoll_workload()
        hints = workload_hints_of(program)
        assert hints["protocol"] == "parcoll"
        assert workload_hints_of(lambda comm, io: None) == {}


class TestGuards:
    def test_cross_shard_p2p_raises(self):
        # A workload whose hints promise a clean parcoll partition but
        # whose traffic crosses the boundary anyway: the ShardWorld
        # guard must fail loudly, not deadlock or silently diverge.
        class _Lying:
            hints = {"protocol": "parcoll", "parcoll_ngroups": 4}

        def evil(_cfg, comm, io):
            from repro.workloads.base import WorkloadIOStats
            peer = (comm.rank + comm.size // 2) % comm.size
            if comm.rank < comm.size // 2:
                yield from comm.send(b"x", peer)
            else:
                yield from comm.recv(source=peer)
            return WorkloadIOStats()

        program = functools.partial(evil, _Lying())
        with pytest.raises(ShardError, match="crosses the shard"):
            run_experiment(config(2), program)
