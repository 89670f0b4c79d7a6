"""Hot-path equivalence and determinism regression tests.

Two families:

1. Property-style checks that the vectorized two-phase helpers
   (:func:`plan_rounds` + :func:`_send_lists_from_plan`,
   :func:`extract_data` / :func:`place_data`, :func:`merge_pieces`)
   agree with the retained per-round / slice-loop reference
   implementations on seeded random fragmented access patterns —
   including empty ranks, single-byte segments and segments straddling
   collective-buffer window boundaries.

2. A determinism regression test asserting the smoke-scale hot-path
   configs still reproduce the virtual-time results recorded in
   ``benchmarks/ref_hotpath.json`` before the engine optimizations
   landed: bit-identical bandwidths, elapsed times, effect/message
   counts and verified file hashes.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.datatypes.flatten import intersect_range
from repro.harness.hotpath import CONFIGS, run_config
from repro.simmpi.world import _per_message_reference
from repro.mpiio.two_phase import (_extract_data_reference,
                                   _merge_reorder_reference,
                                   _place_data_reference, _prefix_of,
                                   _send_lists_for_round,
                                   _send_lists_from_plan, data_positions,
                                   extract_data, merge_pieces, place_data,
                                   plan_rounds)

REF = (pathlib.Path(__file__).resolve().parents[1]
       / "benchmarks" / "ref_hotpath.json")


def random_segments(rng: np.random.Generator, nsegs: int,
                    max_len: int, lo: int = 0) -> tuple:
    """Sorted, non-overlapping segments with random gaps.

    ``max_len=1`` degenerates to single-byte segments; gaps of zero make
    adjacent (coalescible) segments common.
    """
    if nsegs == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    lens = rng.integers(1, max_len + 1, size=nsegs).astype(np.int64)
    gaps = rng.integers(0, 64, size=nsegs).astype(np.int64)
    offs = lo + np.cumsum(gaps + lens) - lens
    return offs, lens


def random_domains(rng: np.random.Generator, naggs: int,
                   span_hi: int) -> tuple:
    """Contiguous aggregator file domains covering ``[0, span_hi)``.

    Some domains come out empty (``starts[a] == ends[a]``), matching
    what :func:`partition_file_domains` produces when there are more
    aggregators than aligned stripes.
    """
    cuts = np.sort(rng.integers(0, span_hi + 1, size=naggs - 1))
    bounds = np.concatenate(([0], cuts, [span_hi])).astype(np.int64)
    return bounds[:-1], bounds[1:]


PATTERNS = [
    # (seed, nsegs, max_len, naggs, cb) — cb small vs segment extents so
    # plenty of segments straddle round-window boundaries
    (0, 40, 1, 4, 128),        # single-byte segments
    (1, 200, 17, 8, 256),      # many tiny fragments
    (2, 12, 4096, 3, 512),     # large segments straddling many windows
    (3, 1, 9000, 5, 1024),     # one huge segment across all domains
    (4, 64, 300, 16, 300),     # window size commensurate with lengths
    (5, 0, 1, 4, 128),         # empty rank
]


@pytest.mark.parametrize("seed,nsegs,max_len,naggs,cb", PATTERNS)
def test_plan_rounds_matches_per_round_reference(seed, nsegs, max_len,
                                                 naggs, cb):
    rng = np.random.default_rng(seed)
    segs = random_segments(rng, nsegs, max_len)
    span_hi = int(segs[0][-1] + segs[1][-1]) + 17 if nsegs else 1024
    starts, ends = random_domains(rng, naggs, span_hi)
    aggs = list(range(naggs))

    plan = plan_rounds(segs, aggs, starts, ends, cb)
    nrounds = int(max((int(e - s) + cb - 1) // cb
                      for s, e in zip(starts, ends)))
    # one extra round past the last: both sides must agree it is empty
    for rnd in range(nrounds + 1):
        ref = _send_lists_for_round(segs, aggs, starts, ends, rnd, cb)
        fast = _send_lists_from_plan(plan, rnd)
        assert set(fast) == set(ref)
        for a in ref:
            np.testing.assert_array_equal(fast[a][0], ref[a][0])
            np.testing.assert_array_equal(fast[a][1], ref[a][1])


def test_plan_rounds_empty_rank_is_empty_plan():
    segs = (np.empty(0, np.int64), np.empty(0, np.int64))
    starts = np.array([0, 512], dtype=np.int64)
    ends = np.array([512, 1024], dtype=np.int64)
    assert plan_rounds(segs, [0, 1], starts, ends, 128) == []
    assert _send_lists_from_plan([], 0) == {}


# force each copy-path branch: many tiny segments take the fancy-index
# gather, few/large ones take the slice loop — both must match the
# reference regardless of which branch fires
COPY_PATTERNS = [
    (10, 64, 8),       # vectorized: n >= 8, avg well under 512
    (11, 500, 1),      # vectorized, single-byte
    (12, 4, 100),      # slice loop: too few segments
    (13, 16, 4096),    # slice loop: avg too large
]


@pytest.mark.parametrize("seed,nsegs,max_len", COPY_PATTERNS)
def test_extract_place_match_reference(seed, nsegs, max_len):
    rng = np.random.default_rng(seed)
    segs = random_segments(rng, nsegs, max_len)
    offs, lens = segs
    total = int(lens.sum())
    prefix = _prefix_of(lens)
    data = rng.integers(0, 256, size=total, dtype=np.uint8)

    # a window clipping roughly the middle half, so some boundary
    # segments are split sub-segments of their parents
    lo = int(offs[0] + (offs[-1] - offs[0]) // 4)
    hi = int(offs[-1] + lens[-1] - (offs[-1] - offs[0]) // 4)
    for w_lo, w_hi in [(lo, hi), (int(offs[0]), int(offs[-1] + lens[-1]))]:
        sub = intersect_range(segs, w_lo, w_hi)
        got = extract_data(segs, prefix, data, sub)
        starts = data_positions(offs, prefix, sub[0])
        want = (_extract_data_reference(starts, sub[1], data)
                if sub[0].size else np.empty(0, np.uint8))
        np.testing.assert_array_equal(got, want)

        out_fast = np.zeros(total, dtype=np.uint8)
        out_ref = np.zeros(total, dtype=np.uint8)
        place_data(segs, prefix, out_fast, sub, got)
        if sub[0].size:
            _place_data_reference(starts, sub[1], out_ref, want)
        np.testing.assert_array_equal(out_fast, out_ref)

        # round trip: place(extract(x)) restores the window's bytes
        mask = np.zeros(total, dtype=bool)
        if sub[0].size:
            for s, l in zip(starts.tolist(), sub[1].tolist()):
                mask[s:s + l] = True
        np.testing.assert_array_equal(out_fast[mask], data[mask])


@pytest.mark.parametrize("seed,npieces,nsegs,max_len", [
    (20, 5, 30, 4),       # many tiny segments -> gather path
    (21, 3, 2, 2000),     # few large segments -> slice-loop path
    (22, 4, 1, 1),        # single-byte pieces
])
def test_merge_pieces_matches_reference(seed, npieces, nsegs, max_len):
    rng = np.random.default_rng(seed)
    # carve disjoint per-piece offset bands so pieces interleave by
    # offset but never overlap
    pieces = []
    sparse: dict[int, int] = {}
    for p in range(npieces):
        offs, lens = random_segments(rng, nsegs, max_len,
                                     lo=p * 1_000_000)
        total = int(lens.sum())
        data = rng.integers(0, 256, size=total, dtype=np.uint8)
        pieces.append(((offs, lens), data))
        pos = 0
        for o, l in zip(offs.tolist(), lens.tolist()):
            for k in range(l):
                sparse[o + k] = int(data[pos + k])
            pos += l
    rng.shuffle(pieces)

    (w_offs, w_lens), merged = merge_pieces(pieces, verified=True)
    # independent oracle: replay every byte through a sparse map
    expect = []
    for o, l in zip(w_offs.tolist(), w_lens.tolist()):
        expect.extend(sparse[o + k] for k in range(l))
    np.testing.assert_array_equal(merged,
                                  np.array(expect, dtype=np.uint8))

    # and the retained reference reorder agrees with whichever branch ran
    all_offs = np.concatenate([p[0][0] for p in pieces])
    all_lens = np.concatenate([p[0][1] for p in pieces])
    order = np.argsort(all_offs, kind="stable")
    cat = np.concatenate([p[1] for p in pieces])
    ref = _merge_reorder_reference(cat, _prefix_of(all_lens)[order],
                                   all_lens[order])
    np.testing.assert_array_equal(merged, ref)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_hotpath_configs_reproduce_pre_optimization_results(name):
    """Every virtual-time metric must match the recorded pre-PR values,
    on the default path and in a per-message reference world (whose
    event count is ``events_per_message`` where the walker moved it)."""
    ref = json.loads(REF.read_text())["configs"][name + "_smoke"]
    want = {k: v for k, v in ref.items()
            if k not in ("baseline_wall_s", "events_per_message")}
    got = run_config(name, smoke=True)
    with _per_message_reference():
        per_msg = run_config(name, smoke=True)
    for run, events in ((got, ref["events"]),
                        (per_msg, ref.get("events_per_message",
                                          ref["events"]))):
        assert run == {**want, "events": events}, (
            f"{name}: diverged from the pre-optimization reference")
