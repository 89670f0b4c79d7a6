"""A fixed reference kernel: how fast the host runs the simulator's kind
of code at the moment it is measured.

The simulator is pure Python (generators, a heap of events, dicts and
small objects, some numpy) over a working set of tens to hundreds of
megabytes, and the host it runs on is shared: its speed for such code
drifts by tens of percent within minutes, mostly through the caches and
memory the other tenants contend for, and the wall time of every
workload drifts with it.  The kernel does the same kinds of work with
code of its own, so it never changes when the simulator does: an
event loop, a compile, small numpy operations, whole-array passes over
arrays larger than the L2 cache, and a chase through a list in random
order.  A workload's time divided by the kernel's time,
taken next to it in the same process, is the workload's cost in units
of the kernel: it moves when the simulator gets faster or slower, and
much less when the host does.

    python3 perfbench/reference.py      # one timing, in seconds
"""

from __future__ import annotations

import heapq
import time

import numpy as np

#: the checksum :func:`work` returns; a different value means the kernel
#: did not do the work it is meant to
CHECKSUM = 685830132
#: the kernel's time, in seconds, on the host the normalized metrics are
#: quoted for: the order of its time (0.17-0.31 s) on the 2-CPU Xeon VM
#: the benchmark's bounds were measured on
NOMINAL_S = 0.2


class _Msg:
    __slots__ = ("src", "tag", "size", "t")

    def __init__(self, src: int, tag: int, size: int, t: float) -> None:
        self.src = src
        self.tag = tag
        self.size = size
        self.t = t


def _rank(me: int, nranks: int, steps: int):
    """A rank that sends to its neighbour and waits for its own message."""
    for step in range(steps):
        dest = (me + 1 + step) % nranks
        yield ("send", dest, _Msg(me, step, 64 + (me * 7 + step) % 512,
                                  0.0))
        yield ("recv", (me - 1 - step) % nranks, step)
        yield ("sleep", 1e-6 * (1 + (me + step) % 5))


def _des(nranks: int, steps: int) -> int:
    """A small discrete-event run: a heap of wake-ups, generator ranks,
    and a dict of posted messages matched by (source, tag)."""
    procs = [_rank(r, nranks, steps) for r in range(nranks)]
    heap: list = [(0.0, r, r) for r in range(nranks)]
    seq = nranks
    mailbox: dict = {}
    waiting: dict = {}
    total = 0
    while heap:
        now, _, r = heapq.heappop(heap)
        try:
            op = next(procs[r])
        except StopIteration:
            continue
        kind = op[0]
        if kind == "send":
            msg = op[2]
            msg.t = now
            key = (op[1], msg.src, msg.tag)
            if key in waiting:
                del waiting[key]
                total += msg.size
                heapq.heappush(heap, (now + msg.size * 1e-9, seq, op[1]))
                seq += 1
            else:
                mailbox[key] = msg
            heapq.heappush(heap, (now, seq, r))
        elif kind == "recv":
            key = (r, op[1], op[2])
            msg = mailbox.pop(key, None)
            if msg is None:
                waiting[key] = now
            else:
                total += msg.size
                heapq.heappush(heap, (now + msg.size * 1e-9, seq, r))
            seq += 1
        else:
            heapq.heappush(heap, (now + op[1], seq, r))
            seq += 1
    return total + seq


def _compile(nfuncs: int) -> int:
    """Parse and compile a synthetic module, as an import does."""
    src = "\n".join(
        f"def f{i}(a, b={i}):\n"
        f"    x = [a * k + b for k in range({i % 7 + 2})]\n"
        f"    return {{'n': len(x), 's': sum(x), 'k': ({i}, a)}}\n"
        for i in range(nfuncs))
    code = compile(src, "<reference>", "exec")
    space: dict = {}
    exec(code, space)
    return sum(space[f"f{i}"](i)["s"] for i in range(nfuncs)) % 1000003


def _arrays(n: int) -> int:
    """Many small numpy operations, as the data path makes."""
    acc = 0
    base = np.arange(256, dtype=np.int64)
    for i in range(n):
        a = base[i % 64: i % 64 + 128]
        b = np.concatenate((a, a[::-1])) + i
        acc += int(b.sum()) % 9973
    return acc


#: elements of each streamed int64 array (4 MiB, twice the L2 cache
#: of the host the bounds were measured on) and entries chased
STREAM_LEN = 1 << 19
CHASE_LEN = 1 << 18


def data() -> tuple:
    """The kernel's large inputs: arrays for the streaming pass, and a
    list in which ``nxt[i]`` is the next index of one cycle through all
    :data:`CHASE_LEN` entries in random order."""
    rng = np.random.default_rng(20080101)
    a = rng.integers(0, 1 << 16, STREAM_LEN)
    b = rng.integers(0, 1 << 16, STREAM_LEN)
    order = rng.permutation(CHASE_LEN)
    nxt = np.empty_like(order)
    nxt[order] = np.roll(order, -1)
    return a, b, np.empty_like(a), nxt.tolist()


def _stream(a, b, out, passes: int) -> int:
    """Whole-array numpy passes over more memory than the L2 cache."""
    acc = 0
    for _ in range(passes):
        np.multiply(a, b, out=out)
        np.add(out, a, out=out)
        acc += int(out.sum()) % 1000003
    return acc


def _chase(nxt: list, steps: int) -> int:
    """Follow the cycle; nearly every step misses the L2 cache twice,
    for the list slot and for the int it holds."""
    i, acc = 0, 0
    for _ in range(steps):
        i = nxt[i]
        acc += i
    return acc


def work(inputs: tuple) -> int:
    """The kernel on :func:`data`'s inputs; returns a checksum of what it
    computed."""
    a, b, out, nxt = inputs
    return (_des(64, 250) + _compile(300) + _arrays(3000)
            + _stream(a, b, out, 40) + _chase(nxt, 600_000)) % 1000000007


def timed() -> float:
    """Host seconds of one run of the kernel.  Its inputs are built
    before the clock starts and dropped after it stops, so the measured
    work holds none of their memory; the garbage collector is off while
    it runs, so the time does not depend on what else the process
    holds."""
    import gc

    inputs = data()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = work(inputs)
        elapsed = time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if got != CHECKSUM:
        raise RuntimeError(f"reference kernel checksum {got} != "
                           f"{CHECKSUM}")
    return elapsed


def normalize(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the kernel took ``ref_s``, scaled to a
    host on which it takes :data:`NOMINAL_S`."""
    return seconds * (NOMINAL_S / ref_s)


if __name__ == "__main__":
    print(timed())
