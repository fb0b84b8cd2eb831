"""REP201 bad fixture, dispatch form: the monitor subscribes to
'thermal.trip', but the only declaration is listeners("thermal.throttle",
...) — the handler can never fire."""


class Thermal:
    def __init__(self, sim):
        self.sim = sim
        self._throttle_listeners = sim.listeners("thermal.throttle", "level")

    def throttle(self, level: int) -> None:
        for callback in self._throttle_listeners:
            callback(time=self.sim.now, level=level)


class ThermalMonitor:
    def __init__(self, sim):
        self.level = 0
        sim.on("thermal.trip", self._on_trip)

    def _on_trip(self, time, level):
        self.level = level
