"""Collective-fidelity policies: spellings, hybrid mode, overrides, and
the one-path-per-call regression guard."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import MachineConfig, NetworkParams
from repro.errors import MPIError, MPIIOError, ParCollError
from repro.datatypes import BYTE, Vector
from repro.simmpi import World, available_backends, resolve_backend
from repro.simmpi.world import Communicator
from tests.conftest import Stack, rank_pattern

ALL_MODES = ("analytic", "detailed", "hybrid:sync=analytic,default=detailed")


def make_world(nprocs=8, mode="analytic"):
    return World(MachineConfig(nprocs=nprocs, cores_per_node=2),
                 net_params=NetworkParams(), collective_mode=mode)


# ----------------------------------------------------------------------
# registry and spec parsing
# ----------------------------------------------------------------------
def test_builtin_backends_registered():
    assert {"analytic", "detailed", "hybrid"} <= set(available_backends())


def test_unknown_backend_error_lists_registered():
    with pytest.raises(MPIError) as exc:
        resolve_backend("telepathic")
    msg = str(exc.value)
    for name in available_backends():
        assert name in msg


def test_world_rejects_unknown_mode():
    with pytest.raises(MPIError):
        make_world(4, "telepathic")


def test_leaf_backends_reject_options():
    with pytest.raises(MPIError):
        resolve_backend("analytic:sync=detailed")


@pytest.mark.parametrize("spec", [
    "hybrid:sync=banana",          # unknown fidelity
    "hybrid:sync",                 # missing '='
    "hybrid:default=hybrid",       # hybrid is not a leaf fidelity
    "hybrid:=analytic",            # empty category
])
def test_hybrid_spec_parse_errors(spec):
    with pytest.raises(MPIError):
        resolve_backend(spec)


@pytest.mark.parametrize("spec", [
    "sizethreshold:12x",                   # bad integer
    "sizethreshold:0",                     # threshold must be positive
    "sizethreshold:1024,1024",             # second bare integer
    "sizethreshold:1024,middle=analytic",  # unknown key
    "sizethreshold:1024,below=hybrid",     # non-leaf fidelity
    "sizethreshold:above=banana",          # unknown fidelity
    "scoped:4096",                         # integer where a key belongs
    "scoped:nodes=analytic",               # unknown key
    "scoped:world",                        # missing '='
    "scoped:world=hybrid",                 # non-leaf fidelity
    "scoped:world=analytic,",              # empty entry
])
def test_sizethreshold_and_scoped_spec_parse_errors(spec):
    with pytest.raises(MPIError):
        resolve_backend(spec)


_WORLD_COMM = SimpleNamespace(desc=SimpleNamespace(ctx=0))
_DERIVED_COMM = SimpleNamespace(desc=SimpleNamespace(ctx=3))


# Every spelling family with its edge cases: (spec, canonical describe(),
# picked fidelity).  The fidelity string lists world-communicator calls,
# then derived-communicator calls; each three-letter group is one
# category (sync, exchange, io) and its letters are the declared sizes
# None, 8 and 1 MiB (a=analytic, d=detailed, m=macro).
@pytest.mark.parametrize("spec,canonical,picks", [
    ("analytic", "analytic", "aaa aaa aaa / aaa aaa aaa"),
    ("detailed", "detailed", "ddd ddd ddd / ddd ddd ddd"),
    ("macro", "macro", "mmm mmm mmm / mmm mmm mmm"),
    ("analytic:", "analytic", "aaa aaa aaa / aaa aaa aaa"),
    ("macro:", "macro", "mmm mmm mmm / mmm mmm mmm"),
    ("hybrid", "hybrid:sync=analytic,default=detailed",
     "aaa ddd ddd / aaa ddd ddd"),
    ("hybrid:", "hybrid:sync=analytic,default=detailed",
     "aaa ddd ddd / aaa ddd ddd"),
    ("hybrid:sync=analytic", "hybrid:sync=analytic,default=detailed",
     "aaa ddd ddd / aaa ddd ddd"),
    ("hybrid:sync=analytic,default=detailed",
     "hybrid:sync=analytic,default=detailed", "aaa ddd ddd / aaa ddd ddd"),
    ("hybrid:sync=macro,default=detailed",
     "hybrid:sync=macro,default=detailed", "mmm ddd ddd / mmm ddd ddd"),
    ("hybrid:io=detailed,sync=analytic",
     "hybrid:io=detailed,sync=analytic,default=detailed",
     "aaa ddd ddd / aaa ddd ddd"),
    ("hybrid:default=analytic", "hybrid:default=analytic",
     "aaa aaa aaa / aaa aaa aaa"),
    ("hybrid:exchange=macro", "hybrid:exchange=macro,default=detailed",
     "ddd mmm ddd / ddd mmm ddd"),
    ("hybrid: sync = analytic , default = macro",
     "hybrid:sync=analytic,default=macro", "aaa mmm mmm / aaa mmm mmm"),
    ("hybrid:sync=detailed,sync=analytic",
     "hybrid:sync=analytic,default=detailed", "aaa ddd ddd / aaa ddd ddd"),
    ("sizethreshold", "sizethreshold:65536", "dda dda dda / dda dda dda"),
    ("sizethreshold:", "sizethreshold:65536", "dda dda dda / dda dda dda"),
    ("sizethreshold:2048", "sizethreshold:2048",
     "dda dda dda / dda dda dda"),
    ("sizethreshold:65536", "sizethreshold:65536",
     "dda dda dda / dda dda dda"),
    ("sizethreshold:8,below=macro", "sizethreshold:8,below=macro",
     "maa maa maa / maa maa maa"),
    ("sizethreshold:below=analytic,above=detailed",
     "sizethreshold:65536,below=analytic,above=detailed",
     "aad aad aad / aad aad aad"),
    ("sizethreshold:,above=macro", "sizethreshold:65536,above=macro",
     "ddm ddm ddm / ddm ddm ddm"),
    ("sizethreshold:1048577", "sizethreshold:1048577",
     "ddd ddd ddd / ddd ddd ddd"),
    ("scoped", "scoped:world=analytic,default=macro",
     "aaa aaa aaa / mmm mmm mmm"),
    ("scoped:", "scoped:world=analytic,default=macro",
     "aaa aaa aaa / mmm mmm mmm"),
    ("scoped:default=detailed", "scoped:world=analytic,default=detailed",
     "aaa aaa aaa / ddd ddd ddd"),
    ("scoped:world=analytic,default=macro",
     "scoped:world=analytic,default=macro", "aaa aaa aaa / mmm mmm mmm"),
    ("scoped:world=analytic,default=detailed",
     "scoped:world=analytic,default=detailed", "aaa aaa aaa / ddd ddd ddd"),
    ("scoped:world=detailed", "scoped:world=detailed,default=macro",
     "ddd ddd ddd / mmm mmm mmm"),
    ("scoped:world=macro,default=analytic",
     "scoped:world=macro,default=analytic", "mmm mmm mmm / aaa aaa aaa"),
])
def test_spelling_table_is_pinned(spec, canonical, picks):
    policy = resolve_backend(spec)
    assert policy.describe() == canonical
    assert resolve_backend(canonical) == policy
    groups = [
        "".join(policy.fidelity(cat, nbytes, comm=comm)[0]
                for nbytes in (None, 8, 1 << 20))
        for comm in (_WORLD_COMM, _DERIVED_COMM)
        for cat in ("sync", "exchange", "io")
    ]
    assert f"{' '.join(groups[:3])} / {' '.join(groups[3:])}" == picks


def test_hybrid_describe_is_canonical_and_round_trips():
    spec = "hybrid:io=detailed,sync=analytic"
    canonical = resolve_backend(spec).describe()
    assert canonical.startswith("hybrid:")
    assert resolve_backend(canonical).describe() == canonical


def test_world_collective_mode_property():
    for mode in ("analytic", "detailed"):
        assert make_world(2, mode).collective_mode == mode
    w = make_world(2, "hybrid:sync=analytic,default=detailed")
    assert w.collective_mode.startswith("hybrid:")
    assert "sync=analytic" in w.collective_mode


def test_hybrid_policy_picks_per_category():
    b = resolve_backend("hybrid:sync=analytic,default=detailed")
    assert b.fidelity("sync") == "analytic"
    assert b.fidelity("exchange") == "detailed"
    assert b.fidelity("io") == "detailed"
    # policies are built from spec strings only
    with pytest.raises(MPIError, match="must be a string"):
        resolve_backend(b)


# ----------------------------------------------------------------------
# hybrid honors per-category fidelity (detailed p2p traffic only where
# the table says 'detailed')
# ----------------------------------------------------------------------
def _collective_storm(comm, category):
    yield from comm.barrier(category=category)
    yield from comm.allreduce(comm.rank, category=category)
    yield from comm.allgather(comm.rank, category=category)


def test_hybrid_analytic_categories_send_no_messages():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "sync"))
    assert w.network.messages_sent == 0


def test_hybrid_detailed_categories_send_messages():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "exchange"))
    assert w.network.messages_sent > 0


def test_hybrid_charges_the_callers_category():
    w = make_world(8, "hybrid:sync=analytic,default=detailed")
    w.launch(lambda comm: _collective_storm(comm, "exchange"))
    for p in w.procs:
        assert p.breakdown.get("exchange") > 0
        assert p.breakdown.get("sync") == 0


# ----------------------------------------------------------------------
# regression: exactly one execution path constructed per collective call
# ----------------------------------------------------------------------
def _count_paths(monkeypatch, mode, nprocs=4):
    from repro.simmpi import collectives_detailed as detailed

    counts = {"analytic": 0, "detailed": 0}
    real_site = Communicator._analytic_site
    real_allreduce = detailed.allreduce

    def counting_site(self, *a, **kw):
        counts["analytic"] += 1
        return real_site(self, *a, **kw)

    def counting_allreduce(*a, **kw):
        counts["detailed"] += 1
        return real_allreduce(*a, **kw)

    monkeypatch.setattr(Communicator, "_analytic_site", counting_site)
    monkeypatch.setattr(detailed, "allreduce", counting_allreduce)

    w = make_world(nprocs, mode)

    def program(comm):
        yield from comm.allreduce(comm.rank)

    w.launch(program)
    return counts


def test_analytic_mode_never_constructs_detailed_path(monkeypatch):
    counts = _count_paths(monkeypatch, "analytic")
    assert counts["analytic"] == 4   # one site entry per rank
    assert counts["detailed"] == 0


def test_detailed_mode_never_constructs_analytic_path(monkeypatch):
    counts = _count_paths(monkeypatch, "detailed")
    assert counts["detailed"] == 4
    assert counts["analytic"] == 0


def test_analytic_collectives_produce_no_network_traffic():
    w = make_world(8, "analytic")

    def program(comm):
        yield from comm.barrier()
        yield from comm.allreduce(comm.rank)
        yield from comm.allgather(comm.rank)

    w.launch(program)
    assert w.network.messages_sent == 0


# ----------------------------------------------------------------------
# backend overrides: with_backend, split inheritance, IOHints
# ----------------------------------------------------------------------
def test_with_backend_overrides_only_the_clone():
    w = make_world(4, "analytic")

    def program(comm):
        det = comm.with_backend("detailed")
        assert det.backend.describe() == "detailed"
        assert comm.backend.describe() == "analytic"
        # the clone shares group state and sequencing with the original
        assert det.desc is comm.desc
        yield from det.allreduce(comm.rank)

    w.launch(program)
    assert w.network.messages_sent > 0


def test_split_inherits_backend_override():
    w = make_world(4, "analytic")

    def program(comm):
        det = comm.with_backend("detailed")
        sub = yield from det.split(color=comm.rank % 2)
        assert sub.backend.describe() == "detailed"
        yield from sub.allreduce(comm.rank)

    w.launch(program)
    assert w.network.messages_sent > 0


def test_with_backend_shares_op_sequencing():
    """Interleaving collectives across the base handle and an override
    clone must keep op sequence numbers distinct (no site aliasing)."""
    w = make_world(4, "analytic")
    got = {}

    def program(comm):
        other = comm.with_backend("analytic")
        a = yield from comm.allreduce(comm.rank)
        b = yield from other.allreduce(comm.rank * 10)
        c = yield from comm.allreduce(1)
        got[comm.rank] = (a, b, c)

    w.launch(program)
    assert all(v == (6, 60, 4) for v in got.values())


def test_hints_collective_mode_reroutes_file_collectives():
    st = Stack(nprocs=4, collective_mode="analytic")

    def program(comm, io):
        f = yield from io.open(comm, "hinted", hints={
            "protocol": "ext2ph", "collective_mode": "detailed"})
        assert f.comm.backend.describe() == "detailed"
        assert comm.backend.describe() == "analytic"
        yield from f.write_at_all(comm.rank * 64, rank_pattern(comm.rank, 64))
        yield from f.close()

    st.run(program)
    # the file's collectives ran detailed even though the world is analytic
    assert st.world.network.messages_sent > 0


def test_hints_reject_unknown_collective_mode():
    st = Stack(nprocs=2)

    def program(comm, io):
        with pytest.raises(MPIIOError):
            yield from io.open(comm, "bad", hints={
                "collective_mode": "telepathic"})
        yield from comm.barrier()

    st.run(program)


# ----------------------------------------------------------------------
# three-way equivalence: data movement and first-order timing
# ----------------------------------------------------------------------
def _run_tileio(mode):
    st = Stack(nprocs=8, collective_mode=mode)
    block = 512

    def program(comm, io):
        f = yield from io.open(comm, "eq", hints={
            "protocol": "ext2ph", "cb_buffer_size": 1024})
        yield from f.write_at_all(comm.rank * block,
                                  rank_pattern(comm.rank, block))
        got = yield from f.read_at_all(comm.rank * block, block)
        yield from f.close()
        return got

    reads = st.run(program)
    return st.file_bytes("eq"), reads, st.world.engine.now


def test_backends_agree_on_data_movement():
    ref_bytes, ref_reads, _ = _run_tileio("analytic")
    for mode in ALL_MODES[1:]:
        got_bytes, got_reads, _ = _run_tileio(mode)
        np.testing.assert_array_equal(got_bytes, ref_bytes)
        for a, b in zip(ref_reads, got_reads):
            np.testing.assert_array_equal(a, b)


def test_backends_agree_on_first_order_time():
    """The analytic costs are calibrated to the detailed schedules, so
    end-to-end times agree within a small factor across backends."""
    times = {m: _run_tileio(m)[2] for m in ALL_MODES}
    t_det = times["detailed"]
    assert t_det > 0
    for mode, t in times.items():
        assert 0.5 < t / t_det < 2.0, (mode, t, t_det)


# ----------------------------------------------------------------------
# parcoll replan guard: stationarity contract under replan='once'
# ----------------------------------------------------------------------
def _fragmented_program(comm, io, replan, second_view):
    # rank r owns two 16-byte blocks inside its private 64-byte band:
    # fragmented per rank, rank-monotone overall -> a *direct* plan
    f = yield from io.open(comm, "frag", hints={
        "protocol": "parcoll", "parcoll_ngroups": 2,
        "parcoll_replan": replan})
    f.set_view(comm.rank * 64, BYTE, Vector(2, 16, 32, BYTE))
    yield from f.write_at_all(0, rank_pattern(comm.rank, 32))
    if second_view is not None:
        f.set_view(comm.rank * 64, BYTE, second_view)
        yield from f.write_at_all(0, rank_pattern(comm.rank, 16))
    yield from f.close()


def test_replan_once_rejects_fragmented_extent_drift():
    st = Stack(nprocs=4)
    with pytest.raises(ParCollError, match="non-contiguous access changed"):
        st.run(lambda comm, io: _fragmented_program(
            comm, io, "once", Vector(2, 8, 32, BYTE)))


def test_replan_always_allows_extent_drift():
    st = Stack(nprocs=4)
    st.run(lambda comm, io: _fragmented_program(
        comm, io, "always", Vector(2, 8, 32, BYTE)))
    got = st.file_bytes("frag")
    # second (8-byte-block) write overlays the first within each band
    for r in range(4):
        band = got[r * 64:r * 64 + 48]
        second = rank_pattern(r, 16)
        np.testing.assert_array_equal(band[0:8], second[0:8])
        np.testing.assert_array_equal(band[32:40], second[8:16])


def test_replan_once_allows_contiguous_drift():
    """Flash-style: successive contiguous datasets at moving offsets and
    sizes reuse the cached grouping (the rank-monotone contract)."""
    st = Stack(nprocs=4)

    def program(comm, io):
        f = yield from io.open(comm, "contig", hints={
            "protocol": "parcoll", "parcoll_ngroups": 2,
            "parcoll_replan": "once"})
        yield from f.write_at_all(comm.rank * 100,
                                  rank_pattern(comm.rank, 100))
        yield from f.write_at_all(400 + comm.rank * 50,
                                  rank_pattern(comm.rank + 1, 50))
        yield from f.close()

    st.run(program)
    got = st.file_bytes("contig")
    for r in range(4):
        np.testing.assert_array_equal(got[r * 100:(r + 1) * 100],
                                      rank_pattern(r, 100))
        np.testing.assert_array_equal(got[400 + r * 50:400 + (r + 1) * 50],
                                      rank_pattern(r + 1, 50))


def test_replan_auto_replans_on_fragmented_extent_drift():
    """'auto' converts the 'once' stationarity error into a global
    re-plan and produces exactly the bytes 'always' produces."""
    st_auto = Stack(nprocs=4)
    st_auto.run(lambda comm, io: _fragmented_program(
        comm, io, "auto", Vector(2, 8, 32, BYTE)))
    st_always = Stack(nprocs=4)
    st_always.run(lambda comm, io: _fragmented_program(
        comm, io, "always", Vector(2, 8, 32, BYTE)))
    np.testing.assert_array_equal(st_auto.file_bytes("frag"),
                                  st_always.file_bytes("frag"))


def test_replan_auto_reuses_plan_for_stationary_pattern():
    """While the pattern holds, 'auto' skips the extent allgather and
    regrouping — the repeated call costs less than under 'always'."""
    def program(replan):
        def run(comm, io):
            f = yield from io.open(comm, "rep", hints={
                "protocol": "parcoll", "parcoll_ngroups": 2,
                "parcoll_replan": replan})
            f.set_view(comm.rank * 64, BYTE, Vector(2, 16, 32, BYTE))
            for _ in range(6):  # same fragmented view every call
                yield from f.write_at_all(0, rank_pattern(comm.rank, 32))
            yield from f.close()
        return run

    elapsed = {}
    payload = {}
    for replan in ("auto", "always", "once"):
        st = Stack(nprocs=4)
        st.run(program(replan))
        elapsed[replan] = st.world.engine.now
        payload[replan] = st.file_bytes("rep")
    np.testing.assert_array_equal(payload["auto"], payload["always"])
    np.testing.assert_array_equal(payload["auto"], payload["once"])
    # auto pays one tiny agreement allreduce per call but skips the
    # allgather + split; it must stay cheaper than full replanning
    # (no ordering vs 'once': drifted subgroups change OST contention)
    assert elapsed["auto"] < elapsed["always"]


def test_hints_reject_unknown_replan_mode():
    from repro.mpiio.hints import IOHints

    with pytest.raises(MPIIOError, match="parcoll_replan"):
        IOHints(parcoll_replan="never")


# ----------------------------------------------------------------------
# backend symmetry: rank-divergent specs fail fast instead of hanging
# ----------------------------------------------------------------------
def test_rank_divergent_backend_override_raises():
    st = Stack(nprocs=4)

    def program(comm, io):
        c = comm.with_backend("detailed") if comm.rank == 0 else comm
        yield from c.barrier()

    with pytest.raises(ParCollError, match="backend divergence"):
        st.run(program)


def test_divergence_error_names_ranks_and_backends():
    st = Stack(nprocs=4)

    def program(comm, io):
        c = comm.with_backend("detailed") if comm.rank % 2 else comm
        yield from c.allreduce(1, nbytes=8)

    with pytest.raises(ParCollError) as excinfo:
        st.run(program)
    msg = str(excinfo.value)
    assert "detailed" in msg and "analytic" in msg
    assert "with_backend" in msg  # tells the user how to fix it


def test_symmetric_backend_override_is_not_divergent():
    st = Stack(nprocs=4)

    def program(comm, io):
        det = comm.with_backend("detailed")
        yield from det.barrier()
        yield from comm.barrier()  # back on the world backend: also fine
        return comm.rank

    assert st.run(program) == [0, 1, 2, 3]


def test_divergence_check_spans_successive_collectives():
    """The ledger keys on the op sequence: symmetric call #1 must not
    mask a divergent call #2."""
    st = Stack(nprocs=4)

    def program(comm, io):
        yield from comm.barrier()
        c = comm.with_backend("detailed") if comm.rank == 3 else comm
        yield from c.barrier()

    with pytest.raises(ParCollError, match="backend divergence"):
        st.run(program)
