"""Schema-rule good fixture, dispatch form: the hot call site fetches the
topic's subscriber list with a literal listeners() declaration and calls
it directly; the subscriber accepts exactly the declared fields."""


class Pacer:
    def __init__(self, sim):
        self.sim = sim
        self._tick_listeners = sim.listeners("pacer.tick", "period", "late")

    def tick(self, period: int) -> None:
        for callback in self._tick_listeners:
            callback(time=self.sim.now, period=period, late=False)


class PacerMonitor:
    def __init__(self, sim):
        self.late_ticks = 0
        sim.on("pacer.tick", self._on_tick)

    def _on_tick(self, time, period, late):
        if late:
            self.late_ticks += period
