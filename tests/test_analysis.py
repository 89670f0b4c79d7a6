"""Analysis tools: breakdown series, coverage checker, calibration."""

from functools import partial

import numpy as np
import pytest

from repro.analysis import (BreakdownSeries, CoverageReport,
                            PlatformCalibration, calibrate, check_coverage,
                            wall_diagnosis)
from repro.cluster import NetworkParams
from repro.datatypes import BYTE, Subarray, Vector
from repro.harness import ExperimentConfig, run_experiment
from repro.workloads import TileIOConfig, tile_io_program


def tile_run(nprocs):
    wl = TileIOConfig(tile_rows=256, tile_cols=192, element_size=64,
                      hints={"protocol": "ext2ph"})
    cfg = ExperimentConfig(nprocs=nprocs,
                           lustre={"n_osts": 16, "default_stripe_count": 16})
    return run_experiment(cfg, partial(tile_io_program, wl))


class TestBreakdownSeries:
    def test_accumulates_and_reports_growth(self):
        series = BreakdownSeries()
        for p in (8, 32):
            series.add(p, tile_run(p))
        assert set(series.points) == {8, 32}
        g = series.growth("sync")
        assert g is not None and g > 1.0

    def test_scaling_exponent_positive_for_sync(self):
        series = BreakdownSeries()
        for p in (8, 16, 32):
            series.add(p, tile_run(p))
        exp = series.scaling_exponent("sync")
        assert exp is not None and exp > 0

    def test_wall_onset_none_when_never_dominant(self):
        series = BreakdownSeries()
        series.points[4] = {"sync": 1.0, "io": 9.0, "exchange": 0.0}
        series.shares[4] = 0.1
        assert series.wall_onset() is None

    def test_diagnosis_mentions_wall_when_sync_explodes(self):
        series = BreakdownSeries()
        for k, (sync, io) in {8: (1.0, 1.0), 64: (50.0, 2.0)}.items():
            series.points[k] = {"sync": sync, "io": io, "exchange": 0.1}
            series.shares[k] = sync / (sync + io + 0.1)
        text = wall_diagnosis(series)
        assert "collective wall" in text

    def test_diagnosis_io_bound(self):
        series = BreakdownSeries()
        for k, (sync, io) in {8: (0.1, 5.0), 64: (0.2, 40.0)}.items():
            series.points[k] = {"sync": sync, "io": io, "exchange": 0.1}
            series.shares[k] = sync / (sync + io + 0.1)
        assert "I/O capacity bound" in wall_diagnosis(series)


class TestCoverage:
    def test_exact_tiling(self):
        patterns = [Subarray((4, 8), (2, 8), (2 * r, 0), BYTE)
                    for r in range(2)]
        rep = check_coverage(patterns)
        assert rep.exact_tiling
        assert rep.covered_bytes == 32
        assert "exact tiling" in rep.summary()

    def test_gaps_detected(self):
        patterns = [(np.array([0]), np.array([10])),
                    (np.array([20]), np.array([10]))]
        rep = check_coverage(patterns)
        assert rep.disjoint and not rep.exact_tiling
        assert rep.gap_bytes == 10

    def test_overlap_detected_with_pairs(self):
        patterns = [(np.array([0]), np.array([10])),
                    (np.array([5]), np.array([10])),
                    (np.array([100]), np.array([5]))]
        rep = check_coverage(patterns)
        assert not rep.disjoint
        assert rep.overlap_bytes == 5
        assert (0, 1) in rep.overlapping_pairs
        assert "OVERLAPPING" in rep.summary()

    def test_interleaved_with_disps(self):
        ft = Vector(4, 8, 16, BYTE)
        rep = check_coverage([ft, ft], disps=[0, 8])
        assert rep.exact_tiling

    def test_expected_range_widens_gaps(self):
        rep = check_coverage([(np.array([10]), np.array([10]))],
                             expected_range=(0, 100))
        assert rep.gap_bytes == 90

    def test_fragmentation_reported(self):
        ft = Vector(16, 4, 8, BYTE)
        rep = check_coverage([ft])
        assert rep.extents_per_rank == [16]

    def test_empty_patterns(self):
        rep = check_coverage([(np.array([]), np.array([]))])
        assert rep.covered_bytes == 0


class TestCalibration:
    def test_measures_configured_constants(self):
        params = NetworkParams(latency=5e-6, bandwidth=2e9,
                               send_overhead=1e-6, recv_overhead=1e-6)
        cal = calibrate(net_params=params, proc_counts=(4, 16))
        # one-way zero-byte time ~ overheads + latency
        assert cal.p2p_latency == pytest.approx(7e-6, rel=0.3)
        assert cal.p2p_bandwidth == pytest.approx(2e9, rel=0.3)
        # barrier grows with log P
        assert cal.barrier_seconds[16] > cal.barrier_seconds[4]
        assert cal.ost_stream_bandwidth > 0
        assert "barrier" in cal.summary()

    def test_ost_bandwidth_close_to_config(self):
        from repro.lustre import LustreParams

        cal = calibrate(
            lustre_params=LustreParams(ost_bandwidth=300e6, jitter=0.0,
                                       store_data=False),
            proc_counts=(4,))
        assert cal.ost_stream_bandwidth == pytest.approx(300e6, rel=0.2)


class TestProtocolZooEntries:
    def test_write_only_cell_reports_no_read_bandwidth(self):
        from repro.analysis.protocol_zoo import (ZooLeaderboard,
                                                 _measure)

        wl = TileIOConfig(tile_rows=64, tile_cols=48, element_size=64,
                          mode="both")
        cfg = ExperimentConfig(nprocs=4)
        both = _measure("tile", "ext2ph", "ext2ph", {},
                        run_experiment(cfg, partial(tile_io_program, wl)))
        write_only = _measure("tile", "ext2ph", "ext2ph", {}, tile_run(4))
        assert both.read_mb_s > 0
        assert write_only.read_mb_s is None
        assert write_only.to_dict()["read_mb_s"] is None
        board = ZooLeaderboard(nprocs=4, scale="small",
                               entries=[both, write_only])
        rows = board.summary().splitlines()
        read_col = [row.split()[3] for row in rows
                    if row.strip().startswith("tile")]
        assert read_col[0] != "-" and read_col[1] == "-"
