"""Host-time attribution of the simulator to its layers.

Every module under ``src/repro`` belongs to exactly one layer (see
:data:`LAYERS`; ``perfbench/tests/test_layers.py`` enforces the "exactly one").
:class:`Tracer` is a ``sys.setprofile`` hook that the benchmark installs
around a run: it opens a span when control enters a function of another
layer and closes it when that function returns or yields, so generator
resumes are covered by a fresh span.  Code outside ``repro`` (numpy,
the standard library, C calls) is charged to the layer that called it.
A layer's self time is its span time minus its child spans.

Spans live in memory and are written at the end as Chrome trace-event
JSON, which chrome://tracing and ui.perfetto.dev open.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Any, Optional

#: layer -> module patterns; ``pkg.*`` matches ``pkg`` and every module
#: below it, any other pattern matches one module exactly
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.engine": ("repro.sim", "repro.sim.engine", "repro.sim.effects",
                   "repro.sim.rng", "repro.sim.trace"),
    "sim.resources": ("repro.sim.resources",),
    "simmpi.p2p": ("repro.simmpi", "repro.simmpi.world", "repro.simmpi.p2p",
                   "repro.simmpi.collectives_detailed",
                   "repro.simmpi.payload", "repro.simmpi.reduce_ops",
                   "repro.simmpi.timers", "repro.simmpi.backends"),
    "simmpi.collectives_macro": ("repro.simmpi.collectives_macro",),
    "simmpi.analytic": ("repro.simmpi.analytic",),
    "cluster.network": ("repro.cluster.*",),
    "mpiio": ("repro.mpiio.*", "repro.datatypes.*"),
    "parcoll": ("repro.parcoll.*",),
    "lustre": ("repro.lustre.*",),
    "validate": ("repro.validate.*",),
    "workloads": ("repro.workloads.*",),
    "faults": ("repro.faults.*",),
    "shard": ("repro.shard.*",),
    "service": ("repro.service.*",),
    "harness": ("repro", "repro.cli", "repro.errors", "repro.perf",
                "repro.harness.*", "repro.analysis.*"),
}


def _matches(pattern: str, module: str) -> bool:
    if pattern.endswith(".*"):
        pkg = pattern[:-2]
        return module == pkg or module.startswith(pkg + ".")
    return module == pattern


def layers_of(module: str) -> list[str]:
    """Every layer whose patterns match ``module`` (one, for a sound map)."""
    return [layer for layer, pats in LAYERS.items()
            if any(_matches(p, module) for p in pats)]


def layer_of(module: str) -> Optional[str]:
    """The layer of a ``repro`` module; None outside ``repro``."""
    if module != "repro" and not module.startswith("repro."):
        return None
    found = layers_of(module)
    if len(found) != 1:
        raise KeyError(f"module {module} maps to {len(found)} layers: {found}")
    return found[0]


def module_of(path: str, src_root: str) -> Optional[str]:
    """Dotted module name of a file under ``src_root``; None elsewhere."""
    rel = os.path.relpath(path, src_root)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class Tracer:
    """Per-thread layer spans; install with :meth:`run`.

    :attr:`MAX_SPANS` bounds the spans each thread keeps for the trace
    file.  Self time is always charged in full; spans past the cap are
    only counted.
    """

    MAX_SPANS = 100_000
    clock = staticmethod(time.perf_counter)

    def __init__(self, src_root: str):
        self.src_root = os.path.realpath(src_root)
        self.origin = self.clock()
        self.self_s: dict[str, float] = {}
        self.spans_total = 0
        #: (layer, start, end, parent index, run id, thread index)
        self.spans: list[tuple] = []
        self.traced_s = 0.0
        self._local = threading.local()
        self._file_layer: dict[str, Optional[str]] = {}
        self._lock = threading.Lock()
        self._threads = 0

    @property
    def run_id(self) -> str:
        """Run id stamped on spans this thread opens (per thread)."""
        return getattr(self._local, "run_id", "")

    @run_id.setter
    def run_id(self, value: str) -> None:
        self._local.run_id = value

    def _layer_of_file(self, filename: str) -> Optional[str]:
        layer = self._file_layer.get(filename, False)
        if layer is False:
            module = module_of(os.path.realpath(filename), self.src_root)
            layer = None if module is None else layer_of(module)
            self._file_layer[filename] = layer
        return layer

    def run(self, fn, *args, **kwargs) -> Any:
        """Call ``fn`` in this thread with the hook installed.

        Each thread counts into its own table and span list; they are
        merged into the tracer when ``fn`` returns.
        """
        with self._lock:
            tid = self._threads
            self._threads += 1
        file_layer = self._file_layer
        lookup = self._layer_of_file
        clock = self.clock
        local = self._local
        cap = self.MAX_SPANS
        self_s: dict[str, float] = {}
        spans: list[list] = []
        # frame stack entries: (frame, opened span index or None,
        # layer in force before the frame); -1 marks a span past the cap
        stack: list[tuple] = []
        open_spans: list[int] = []
        cur: Optional[str] = None
        last = clock()
        count = 0

        def hook(frame, event, _arg):
            nonlocal cur, last, count
            if event == "call":
                fname = frame.f_code.co_filename
                layer = file_layer.get(fname, False)
                if layer is False:
                    layer = lookup(fname)
                if layer is None or layer == cur:
                    stack.append((frame, None, cur))
                    return
                now = clock()
                if cur is not None:
                    self_s[cur] = self_s.get(cur, 0.0) + now - last
                last = now
                stack.append((frame, len(spans) if len(spans) < cap else -1,
                              cur))
                cur = layer
                count += 1
                if len(spans) < cap:
                    open_spans.append(len(spans))
                    spans.append([layer, now, now,
                                  open_spans[-2] if len(open_spans) > 1
                                  else -1,
                                  getattr(local, "run_id", ""), tid])
            elif event == "return":
                if not stack or stack[-1][0] is not frame:
                    return
                _f, idx, prev = stack.pop()
                if idx is None:
                    return
                now = clock()
                self_s[cur] = self_s.get(cur, 0.0) + now - last
                last = now
                cur = prev
                if idx >= 0:
                    open_spans.pop()
                    spans[idx][2] = now

        t0 = clock()
        sys.setprofile(hook)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            t1 = clock()
            with self._lock:
                self.traced_s += t1 - t0
                self.spans_total += count
                for layer, secs in self_s.items():
                    self.self_s[layer] = self.self_s.get(layer, 0.0) + secs
                base = len(self.spans)
                for span in spans:
                    if span[3] >= 0:
                        span[3] += base
                    self.spans.append(span)

    @property
    def unattributed_share(self) -> float:
        """Traced thread time not covered by any layer, over traced time."""
        if self.traced_s <= 0:
            return 0.0
        attributed = sum(self.self_s.values())
        return max(0.0, self.traced_s - attributed) / self.traced_s

    def add_span(self, layer: str, start: float, end: float,
                 run_id: str, tid: int) -> None:
        """Record a span measured elsewhere (e.g. a server-side job phase,
        on the same clock).  It is not charged to self time."""
        self.spans.append([layer, start, end, -1, run_id, tid])

    def chrome_trace(self) -> dict:
        """The spans as Chrome trace-event JSON (complete 'X' events)."""
        events = []
        for i, (layer, start, end, parent, run_id, tid) in enumerate(
                self.spans):
            events.append({
                "name": layer, "cat": layer, "ph": "X", "pid": 1,
                "tid": tid,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(max(0.0, end - start) * 1e6, 3),
                "args": {"span": i, "parent": parent, "run": run_id},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_total": self.spans_total,
                              "spans_kept": len(self.spans)}}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
