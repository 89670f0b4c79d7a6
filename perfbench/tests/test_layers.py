import importlib.util
import itertools
import json
import os
import textwrap

import pytest

import layers
from conftest import ROOT


def _modules(src_root):
    for dirpath, _dirs, files in os.walk(os.path.join(src_root, "repro")):
        for fn in files:
            if fn.endswith(".py"):
                yield layers.module_of(os.path.join(dirpath, fn), src_root)


def test_every_repro_module_maps_to_exactly_one_layer():
    src = os.path.join(ROOT, "src")
    modules = sorted(_modules(src))
    assert "repro.simmpi.collectives_macro" in modules
    for module in modules:
        assert len(layers.layers_of(module)) == 1, module


def test_every_pattern_matches_some_module():
    modules = list(_modules(os.path.join(ROOT, "src")))
    for layer, patterns in layers.LAYERS.items():
        for pat in patterns:
            assert any(layers._matches(pat, m) for m in modules), (layer, pat)


def test_module_of_and_layer_of(tmp_path):
    src = str(tmp_path)
    assert layers.module_of(f"{src}/repro/sim/engine.py", src) \
        == "repro.sim.engine"
    assert layers.module_of(f"{src}/repro/mpiio/__init__.py", src) \
        == "repro.mpiio"
    assert layers.module_of("/elsewhere/numpy/core.py", src) is None
    assert layers.layer_of("repro.datatypes.flatten") == "mpiio"
    assert layers.layer_of("numpy.core") is None
    with pytest.raises(KeyError):
        layers.layer_of("repro.nonexistent_package")


FAKE = {
    "repro/sim/engine.py": """
        def loop(gen, step):
            out = []
            for _ in range(3):
                out.append(next(gen, None))
                step()
            return out

        def tick():
            return None
    """,
    "repro/mpiio/file.py": """
        def program(helper, inner):
            yield helper()
            yield inner()
    """,
}


@pytest.fixture
def fake_src(tmp_path):
    mods = {}
    for rel, body in FAKE.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
        spec = importlib.util.spec_from_file_location(
            "fake_" + rel.replace("/", "_")[:-3], path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        mods[rel.split("/")[1]] = mod
    return str(tmp_path), mods


def test_self_time_spans_and_generator_resumes(fake_src):
    src, mods = fake_src
    ticks = itertools.count()
    tracer = layers.Tracer(src)
    tracer.clock = lambda: float(next(ticks))
    engine, mpiio = mods["sim"], mods["mpiio"]

    def outside_repro():  # charged to the calling layer (mpiio)
        return 1

    def body():
        gen = mpiio.program(outside_repro, engine.tick)
        return engine.loop(gen, engine.tick)

    tracer.run_id = "run-1"
    assert tracer.run(body) == [1, None, None]
    names = [s[0] for s in tracer.spans]
    # loop; the generator resumed three times (a span per resume, the
    # last one runs it to its end); tick called from inside the second
    # resume opens a nested engine span
    assert names == ["sim.engine", "mpiio", "mpiio", "sim.engine", "mpiio"]
    assert tracer.spans_total == 5
    loop_span = tracer.spans[0]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2, 0]
    assert {s[4] for s in tracer.spans} == {"run-1"}
    for layer, start, end, *_ in tracer.spans:
        assert end > start
    # every tick of the fake clock after the first span opened is
    # charged to exactly one layer
    total = sum(tracer.self_s.values())
    assert total == pytest.approx(loop_span[2] - loop_span[1])
    assert set(tracer.self_s) == {"sim.engine", "mpiio"}
    assert 0 < tracer.unattributed_share < 1


def test_span_cap_keeps_self_time(fake_src):
    src, mods = fake_src
    tracer = layers.Tracer(src)
    tracer.MAX_SPANS = 1
    engine, mpiio = mods["sim"], mods["mpiio"]
    tracer.run(lambda: engine.loop(mpiio.program(int, engine.tick),
                                   engine.tick))
    assert len(tracer.spans) == 1 and tracer.spans_total == 5
    assert set(tracer.self_s) == {"sim.engine", "mpiio"}


def test_chrome_trace_is_plain_trace_event_json(fake_src, tmp_path):
    src, mods = fake_src
    tracer = layers.Tracer(src)
    tracer.run(mods["sim"].tick)
    tracer.add_span("service.queue", tracer.origin, tracer.origin + 0.5,
                    "j000001", 100)
    path = tmp_path / "t.json"
    tracer.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert [e["name"] for e in events] == ["sim.engine", "service.queue"]
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and "ts" in e
    assert events[1]["dur"] == pytest.approx(5e5)
    assert events[1]["args"]["run"] == "j000001"
