"""The scheduler's direct dispatch to ``Simulator.listeners`` lists.

The scheduler fetches each topic's live subscriber list once and calls
it at every site instead of going through ``Simulator.emit``.  These
tests pin the three things that design relies on: the payload each
site passes matches what its ``listeners(...)`` call declares, the
lists survive subscribe/unsubscribe cycles, and the idle-core wakeup
fast path delivers the same events the runqueue route does.
"""

import ast
import inspect
from pathlib import Path

from repro.analysis.schema_infer import extract_schema_facts
from repro.core.session import StreamingSession
from repro.sched import Scheduler, ThreadState, make_cores
from repro.sim import Simulator, millis, seconds
from repro.trace.recorder import TraceRecorder

SCHEDULER_SRC = (
    Path(__file__).parents[2] / "src" / "repro" / "sched" / "scheduler.py"
)

TOPICS = (
    "sched.state", "sched.wakeup", "sched.switch", "sched.preempt",
    "sched.migrate",
)


def declared_fields():
    """topic -> field names, as the analyzer reads the scheduler source."""
    tree = ast.parse(SCHEDULER_SRC.read_text())
    emits, _subs, _handlers = extract_schema_facts(tree, "repro.sched.scheduler")
    return {shape.topic: sorted(shape.keys) for shape in emits}


class StrictLog:
    """One strict subscriber per scheduler topic: no ``**kwargs``, so a
    site that passes a field its declaration lacks (or omits one it
    declares) raises ``TypeError`` on the spot."""

    def __init__(self):
        self.events = []

    def on_state(self, time, thread, old, new):
        self.events.append(("sched.state", time, thread.name, old, new))

    def on_wakeup(self, time, thread):
        self.events.append(("sched.wakeup", time, thread.name))

    def on_switch(self, time, thread, core):
        self.events.append(("sched.switch", time, thread.name, core))

    def on_preempt(self, time, victim, victor, core, kind):
        self.events.append(("sched.preempt", time, victim.name, kind))

    def on_migrate(self, time, thread, src, dst):
        self.events.append(("sched.migrate", time, thread.name, src, dst))

    def handlers(self):
        return {
            "sched.state": self.on_state,
            "sched.wakeup": self.on_wakeup,
            "sched.switch": self.on_switch,
            "sched.preempt": self.on_preempt,
            "sched.migrate": self.on_migrate,
        }

    def attach(self, sim):
        for topic, handler in self.handlers().items():
            sim.on(topic, handler)
        return self


def test_strict_handlers_take_exactly_the_declared_fields():
    declared = declared_fields()
    assert set(TOPICS) <= set(declared)
    for topic, handler in StrictLog().handlers().items():
        params = sorted(inspect.signature(handler).parameters)
        assert params == sorted(["time", *declared[topic]]), topic


def test_every_dispatch_site_passes_its_declared_fields():
    """A moderate-pressure Nokia 1 session exercises every site: mmcqd
    preemptions, round-robin rotations and migrations."""
    session = StreamingSession(
        device="nokia1", resolution="480p", frame_rate=60,
        pressure="moderate", duration_s=3.0, seed=5,
    )
    log = StrictLog().attach(session.device.sim)
    session.run()
    topics = {event[0] for event in log.events}
    for topic in TOPICS:
        assert topic in topics, f"no {topic} event in the session"
    kinds = {e[3] for e in log.events if e[0] == "sched.preempt"}
    assert kinds == {"preempt", "rotate"}


# ----------------------------------------------------------------------
# Listener lists are stable
# ----------------------------------------------------------------------
def test_listener_list_survives_on_off_cycles():
    sim = Simulator(seed=1)
    hits = []
    callback = lambda time, value: hits.append(value)  # noqa: E731
    listeners = sim.listeners("topic", "value")
    for value in range(3):
        sim.on("topic", callback)
        assert sim.listeners("topic") is listeners
        assert sim.tracing
        sim.emit("topic", value=value)
        sim.off("topic", callback)
        assert sim.listeners("topic") is listeners
        assert listeners == [] and not sim.tracing
    assert hits == [0, 1, 2]


def test_recorder_attached_after_all_detached_still_records():
    session = StreamingSession(
        device="nexus5", resolution="720p", frame_rate=30,
        pressure="normal", duration_s=2.0, seed=3,
    )
    sim = session.device.sim
    first = TraceRecorder(sim)
    later = []
    sim.schedule_at(seconds(0.5), first.detach)
    sim.schedule_at(seconds(1.0), lambda: later.append(TraceRecorder(sim)))
    session.run()
    second = later[0]
    second.detach()
    assert first.transitions and second.transitions
    recorded = [t for events in second.transitions.values() for t, _ in events]
    assert min(recorded) >= seconds(1.0)


# ----------------------------------------------------------------------
# The idle-core fast path
# ----------------------------------------------------------------------
def test_fast_path_wakeup_emits_the_runqueue_route_events():
    sim = Simulator(seed=2)
    sched = Scheduler(sim, make_cores([1.0, 1.0]))
    hog = sched.spawn("hog")
    mover = sched.spawn("mover")
    mover.post(millis(1))          # runs on core 0 and sleeps
    sim.run(until=millis(2))
    assert mover.last_core == 0
    hog.post(millis(10))           # takes core 0 (its preferred core)
    sim.run(until=millis(3))
    assert sched.cores[0].current is hog

    log = StrictLog().attach(sim)
    mover.post(millis(1))          # idle core 1 only: a migration
    assert [e[:2] for e in log.events] == [
        ("sched.state", millis(3)),
        ("sched.wakeup", millis(3)),
        ("sched.migrate", millis(3)),
        ("sched.state", millis(3)),
        ("sched.switch", millis(3)),
    ]
    first, last = log.events[0], log.events[3]
    assert (first[3], first[4]) == (ThreadState.SLEEPING, ThreadState.RUNNABLE)
    assert (last[3], last[4]) == (ThreadState.RUNNABLE, ThreadState.RUNNING)
    assert log.events[2][3:] == (0, 1)
    assert log.events[4][3] == 1

    # Back on the core it last ran on: no migration event.
    sim.run(until=millis(5))
    log.events.clear()
    mover.post(millis(1))
    assert [e[0] for e in log.events] == [
        "sched.state", "sched.wakeup", "sched.state", "sched.switch",
    ]
    assert mover.time_in(ThreadState.RUNNABLE) == 0
