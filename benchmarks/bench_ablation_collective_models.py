"""Ablation A: detailed vs analytic vs hybrid collective timing models.

The large-scale sweeps use the analytic (LogP-style) collective model or
the per-category ``hybrid`` backend; this ablation validates both against
the detailed model (real message schedules) on a workload all three can
afford, and reports the event-count saving that justifies the cheaper
backends at scale.  ``detailed`` runs on its default path (round walker,
exchange sends per message); the ``detailed-per-message`` row is the same
message schedule in a per-message reference world
(:func:`repro.simmpi.world._per_message_reference`), one engine event
per message.

The hybrid spec defaults to the large-sweep configuration
(``sync`` analytic, everything else detailed) and can be overridden with
``REPRO_HYBRID_SPEC=hybrid:<spec>`` — the benchmark-side face of the CLI's
``--collective-mode`` axis.
"""

import contextlib
import os
from functools import partial

from _common import record, run_once

from repro.harness.figures import FigureResult
from repro.harness.runner import ExperimentConfig, run_experiment
from repro.harness.report import mb_per_s
from repro.simmpi.world import _per_message_reference
from repro.workloads import TileIOConfig, tile_io_program

LUSTRE = {"n_osts": 16, "default_stripe_count": 16}


def hybrid_spec() -> str:
    return os.environ.get("REPRO_HYBRID_SPEC",
                          "hybrid:sync=analytic,default=detailed")


def compare_models(nprocs: int = 32) -> FigureResult:
    rows = []
    series = {}
    models = [(mode.split(":", 1)[0], mode, contextlib.nullcontext)
              for mode in ("analytic", hybrid_spec(), "detailed")]
    models.append(("detailed-per-message", "detailed",
                   _per_message_reference))
    for key, mode, world_ctx in models:
        cfg = ExperimentConfig(nprocs=nprocs, collective_mode=mode,
                               lustre=LUSTRE)
        wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                          hints={"protocol": "ext2ph"})
        with world_ctx():
            res = run_experiment(cfg, partial(tile_io_program, wl))
        bw = mb_per_s(res.write_bandwidth)
        series[key] = {"bw": bw, "events": res.events,
                       "sync": res.breakdown["sync"]["max"],
                       "backend": res.backend}
        rows.append([key, round(bw, 0),
                     round(res.breakdown["sync"]["max"], 4), res.events])
    return FigureResult(
        figure="Ablation A",
        title=f"Collective model fidelity (tile-IO, {nprocs} procs)",
        headers=["model", "write MB/s", "sync max (s)", "engine events"],
        rows=rows,
        series=series,
        notes="analytic and hybrid must track detailed closely at a "
              "fraction of the cost",
    )


def test_ablation_collective_models(benchmark):
    result = run_once(benchmark, compare_models)
    record(result)
    a = result.series["analytic"]
    h = result.series["hybrid"]
    d = result.series["detailed"]
    # bandwidths agree within 2x in either direction
    assert 0.5 < a["bw"] / d["bw"] < 2.0
    assert 0.5 < h["bw"] / d["bw"] < 2.0
    # and the cheaper backends really are cheaper to simulate
    assert a["events"] < d["events"]
    assert a["events"] <= h["events"] <= d["events"]
