"""Quick bit-identity probe: sharded vs unsharded on one config.

Exits non-zero when any virtual-time metric differs or when the run
fell back to fewer shards than requested (a fallback run is trivially
identical, so it must not pass).

Usage: PYTHONPATH=src python scripts/shard_smoke.py [shards]
"""

import functools
import sys
from dataclasses import fields

from repro.harness.runner import ExperimentConfig, run_experiment
from repro.workloads import TileIOConfig, tile_io_program


def run(shards):
    cfg = ExperimentConfig(
        nprocs=16, cores_per_node=2,
        collective_mode="scoped",
        shards=shards)
    wl = TileIOConfig(tile_rows=64, tile_cols=48, element_size=64,
                      mode="both",
                      hints={"protocol": "parcoll", "parcoll_ngroups": 4})
    return run_experiment(cfg, functools.partial(tile_io_program, wl))


def main():
    shards = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    base = run(1)
    test = run(shards)
    bad = 0
    for r, (a, b) in enumerate(zip(base.per_rank, test.per_rank)):
        for f in fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if va != vb:
                bad += 1
                print(f"rank {r} {f.name}: {va!r} != {vb!r}")
    if base.breakdown != test.breakdown:
        bad += 1
        for k in sorted(set(base.breakdown) | set(test.breakdown)):
            if base.breakdown.get(k) != test.breakdown.get(k):
                print(f"breakdown[{k}]:\n  base {base.breakdown.get(k)}"
                      f"\n  test {test.breakdown.get(k)}")
    if base.elapsed_total != test.elapsed_total:
        bad += 1
        print(f"elapsed_total: {base.elapsed_total!r} != "
              f"{test.elapsed_total!r}")
    print(f"shard block: {test.perf.shard}")
    print("IDENTICAL" if not bad else f"MISMATCH ({bad})")
    effective = test.perf.shard["effective"]
    if effective != shards:
        print(f"FALLBACK: ran {effective} shard(s), requested {shards}: "
              f"{test.perf.shard['fallback_reason']}")
        return 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
