import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import reference
import run
import workloads
from conftest import BENCH, ROOT

FP = {"elapsed_total": "0.5", "write_bandwidth": "2.0",
      "read_bandwidth": "0.0", "messages": 10, "bytes_written": 64,
      "bytes_read": 0, "file_sha256": "", "violations": 0}
PERF = {"effects_dispatched": 100, "heap_pushes": 30, "heap_bypasses": 10,
        "exact_matches": 9, "wildcard_matches": 1, "segments_vectorized": 4,
        "rounds_planned": 5, "macro_rounds": 2, "messages_coalesced": 6}


def fake_rep(fingerprint=FP, wall_s=2.0, **extra):
    rep = {"setup_s": 0.25, "wall_s": wall_s, "messages": 10,
           "ref_s": reference.NOMINAL_S,
           "peak_rss_mb": 80.0,
           "expect": {"bytes_written": 64, "bytes_read": 0, "file": "f"},
           "fingerprint": dict(fingerprint), "perf": dict(PERF),
           "lustre": {"bytes_written": 64, "bytes_read": 0},
           "validation": {"checks": 7, "violations": 0}}
    rep.update(extra)
    return rep


def test_check_sim_flags_every_fingerprint_field():
    rep = fake_rep()
    assert workloads.check_sim(rep, FP) == []
    assert workloads.check_sim(rep, None) == []
    for key, bad in (("elapsed_total", "0.50000001"), ("messages", 11),
                     ("file_sha256", "ab")):
        problems = workloads.check_sim(rep, dict(FP, **{key: bad}))
        assert len(problems) == 1 and key in problems[0]


def test_seed_independent_checks_apply_without_fingerprint():
    short = fake_rep(dict(FP, bytes_written=63))
    assert "workload size" in workloads.check_sim(short, None)[0]
    dirty = fake_rep(dict(FP, violations=2))
    assert "violation" in workloads.check_sim(dirty, None)[0]


@pytest.fixture
def bench(tmp_path, monkeypatch):
    """``run.main`` on a fake checkout whose workers are stubbed."""
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    monkeypatch.setattr(run, "load_fingerprints",
                        lambda: {"ext2ph_macro": FP})
    calls = []

    def main(reps, *args):
        it = iter(reps)

        def spawn(_root, argv, _deadline):
            calls.append(argv)
            return next(it)

        monkeypatch.setattr(run, "spawn", spawn)
        return run.main(["--workload", "ext2ph_macro", *args])
    return main, calls


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_clean_run_reports_every_end_to_end_metric(bench, capsys):
    main, calls = bench
    code = main([fake_rep(wall_s=w) for w in (2.0, 1.0, 3.0)],
                "--seed", "0", "--seconds", "0.0")
    out = last_json(capsys)
    assert code == 0 and out["correct"] and out["failed"] == 0
    assert out["attempted"] == 1 == len(calls)
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert out["metrics"]["norm_msgs_per_s"]["value"] == 5.0


def test_timings_are_normalized_by_the_reference_kernel(bench, capsys):
    # the host ran the kernel at half its nominal speed, so the raw
    # 4 s (2.5 msgs/s) and 0.5 s of set-up read as 2 s (5 msgs/s) and
    # 0.25 s at nominal speed
    main, _calls = bench
    slow = 2 * reference.NOMINAL_S
    main([fake_rep(wall_s=4.0, ref_s=slow, setup_s=0.5)], "--seed", "0",
         "--seconds", "0.0")
    out = capsys.readouterr().out
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    assert metrics["norm_wall_s"]["value"] == pytest.approx(2.0)
    assert metrics["norm_msgs_per_s"]["value"] == pytest.approx(5.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.25)
    for raw in run.RAW_TIMINGS:
        assert raw in out


def test_service_timings_are_not_normalized():
    rep = {"wall_s": 3.0, "cold_s": 2.0, "setup_s": 0.5, "messages": 10,
           "peak_rss_mb": 90.0, "ref_s": 4 * reference.NOMINAL_S}
    samples = run.timing_samples([rep], "cold_s", normalized=False)
    assert samples["norm_wall_s"] == samples["raw_wall_s"] == [3.0]
    assert samples["norm_msgs_per_s"] == [5.0]
    assert samples["setup_s"] == [0.5] and "ref_s" not in samples


def test_fingerprint_mismatch_is_a_failure(bench, capsys):
    main, _calls = bench
    code = main([fake_rep(dict(FP, elapsed_total="0.6"))],
                "--seed", "0", "--seconds", "0.0")
    out = last_json(capsys)
    assert code == 1
    assert out == {**out, "correct": False, "attempted": 1, "failed": 1}


def test_nondeterministic_repetition_is_a_failure(monkeypatch):
    # seeds without a recorded fingerprint still must repeat exactly
    monkeypatch.setattr(run, "spawn", lambda *_a: fake_rep(
        dict(FP, elapsed_total="0.7")))
    outcome = run.Outcome()
    rep = run.sim_attempt(".", ["sim"], 0.0, None, FP, outcome)
    assert rep is not None
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "between repetitions" in outcome.problems[0]


def test_crashed_worker_is_a_failure(monkeypatch):
    def crash(*_a):
        raise run.Failure("worker exited 1")

    monkeypatch.setattr(run, "spawn", crash)
    outcome = run.Outcome()
    assert run.sim_attempt(".", ["sim"], 0.0, None, None, outcome) is None
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_deadline_follows_seconds(monkeypatch):
    left = []

    def spawn(_root, _argv, deadline):
        left.append(deadline - time.monotonic())
        raise run.Failure("stop")

    monkeypatch.setattr(run, "spawn", spawn)
    outcome, _values, _detail = run.measure(ROOT, "ext2ph_macro", 0,
                                            500.0, True)
    assert outcome.attempted == 2 == len(left)
    assert min(left) > 500.0


def test_ratio_bases():
    untraced = fake_rep(wall_s=2.0)
    traced = fake_rep(wall_s=6.0, layers={
        "self_s": {"mpiio": 1.5, "sim.engine": 4.0},
        "unattributed_share": 0.01})
    m = run.sim_per_layer(untraced, traced)
    assert set(m) == set(run.PER_LAYER)
    assert m["sim.engine.heap_bypass_ratio"] == 10 / (30 + 10)
    assert m["simmpi.wildcard_match_ratio"] == 1 / (9 + 1)
    assert m["simmpi.collectives_macro.coalesced_ratio"] == 6 / 10
    assert m["trace.overhead_ratio"] == 6.0 / 2.0
    assert m["mpiio.self_s"] == 1.5 and m["parcoll.self_s"] == 0.0
    assert m["validate.checks"] == 7


def test_service_ratio_bases():
    def job(source, latency):
        return {"source": source, "latency_s": latency, "submit_s": 0.001,
                "queue_wait_s": 0.01 if source == "executed" else None,
                "execute_s": 0.02 if source == "executed" else None,
                "notify_s": 0.003}

    rep = {"cold": [job("executed", 0.05)] * 3 + [job("coalesced", 0.04)],
           "warm": [job("cache", 0.004)] * 4, "wall_s": 0.5,
           "attempted": 8, "messages": 30, "perf": dict(PERF),
           "lustre": {"bytes_written": 64, "bytes_read": 0},
           "counters": {"coalesced": 1, "rejected": 0},
           "layers": {"self_s": {"service": 0.4},
                      "unattributed_share": 0.0}}
    m = run.service_per_layer(rep, dict(rep, wall_s=0.6))
    assert m["service.cache_hit_ratio"] == 4 / 8
    assert m["service.jobs_per_s"] == 8 / 0.5
    assert m["service.queue_wait_s.p50"] == 0.01  # executed jobs only
    assert m["service.warm_job_p90_s"] == pytest.approx(0.004)
    assert m["trace.overhead_ratio"] == pytest.approx(0.6 / 0.5)
    assert m["service.coalesced"] == 1


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ext2ph_macro",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_worker_past_deadline_is_killed_with_its_children(tmp_path,
                                                          monkeypatch):
    pidfile = tmp_path / "child.pid"
    (tmp_path / "worker.py").write_text(
        "import subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c',"
        " 'import time; time.sleep(60)'])\n"
        f"open({str(pidfile)!r}, 'w').write(str(p.pid))\n"
        "time.sleep(60)\n")
    monkeypatch.setattr(run, "HERE", str(tmp_path))
    t0 = time.monotonic()
    with pytest.raises(run.Failure, match="deadline"):
        run.spawn(str(tmp_path), [], time.monotonic() + 2.0)
    assert time.monotonic() - t0 < 30
    child = int(pidfile.read_text())
    for _ in range(50):
        if not _alive(child):
            break
        time.sleep(0.1)
    assert not _alive(child)
