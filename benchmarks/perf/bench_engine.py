"""Engine microbenchmarks: event queue, run loop, emit and listener hot paths.

Run directly (``python -m benchmarks.perf.bench_engine``) or through
``benchmarks.perf.run`` which also records the numbers to a
``BENCH_<date>.json``.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.engine import Simulator
from repro.sim.events import EventQueue

from .harness import ops_per_sec


def _noop() -> None:
    pass


def queue_push_pop(n: int) -> None:
    """Push ``n`` events at increasing times, then drain them."""
    queue = EventQueue()
    push = queue.push
    for i in range(n):
        push(i, _noop)
    pop = queue.pop
    while pop() is not None:
        pass


def queue_push_cancel_pop(n: int) -> None:
    """Push ``n`` events, cancel half, then drain (lazy deletion path)."""
    queue = EventQueue()
    events = [queue.push(i, _noop) for i in range(n)]
    for event in events[::2]:
        event.cancel()
    while queue.pop() is not None:
        pass


def run_loop(n: int) -> None:
    """Fire ``n`` pre-scheduled events through ``Simulator.run``."""
    sim = Simulator()
    for i in range(n):
        sim.schedule(i, _noop)
    sim.run()


def event_chain(n: int) -> None:
    """``n`` events each scheduling the next (schedule inside callbacks)."""
    sim = Simulator()
    remaining = [n]

    def step() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1, step)

    sim.schedule(0, step)
    sim.run()


def emit_unsubscribed(n: int) -> None:
    """``n`` emits on a topic nobody listens to (the common case)."""
    sim = Simulator()
    emit = sim.emit
    for _ in range(n):
        emit("bench.topic", value=1, other=2)


def emit_subscribed(n: int) -> None:
    """``n`` emits delivered to a single subscriber."""
    sim = Simulator()
    sink = []
    sim.on("bench.topic", lambda time, value, other: sink.append(value))
    emit = sim.emit
    for _ in range(n):
        emit("bench.topic", value=1, other=2)


def listeners_subscribed(n: int) -> None:
    """``emit_subscribed``'s payload, delivered through a
    ``sim.listeners`` list the way the scheduler's sites dispatch."""
    sim = Simulator()
    sink = []
    sim.on("bench.topic", lambda time, value, other: sink.append(value))
    listeners = sim.listeners("bench.topic", "value", "other")
    for _ in range(n):
        for callback in listeners:
            callback(time=sim.now, value=1, other=2)


#: name -> (fn, default op count, quick op count)
MICROBENCHES = {
    "queue_push_pop": (queue_push_pop, 200_000, 20_000),
    "queue_push_cancel_pop": (queue_push_cancel_pop, 200_000, 20_000),
    "run_loop": (run_loop, 200_000, 20_000),
    "event_chain": (event_chain, 100_000, 10_000),
    "emit_unsubscribed": (emit_unsubscribed, 500_000, 50_000),
    "emit_subscribed": (emit_subscribed, 200_000, 20_000),
    "listeners_subscribed": (listeners_subscribed, 200_000, 20_000),
}


def run(quick: bool = False) -> Dict[str, float]:
    """Run every microbench; return {name: ops/sec}."""
    results = {}
    for name, (fn, n, n_quick) in MICROBENCHES.items():
        count = n_quick if quick else n
        results[name] = round(ops_per_sec(fn, count, repeats=2 if quick else 5))
    return results


if __name__ == "__main__":
    for name, rate in run().items():
        print(f"{name:24s} {rate:>12,.0f} ops/s")
