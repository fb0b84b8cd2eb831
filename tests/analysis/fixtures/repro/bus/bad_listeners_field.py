"""REP220 bad fixture, dispatch form: the listeners() declaration names
'reason', which the strict GovernorMonitor handler (no **kwargs) cannot
accept — TypeError on the first traced dispatch.  The logger reads
'reason', so the key is not dead."""


class Governor:
    def __init__(self, sim):
        self.sim = sim
        self._step_listeners = sim.listeners("governor.step", "freq", "reason")

    def step(self, freq: float) -> None:
        for callback in self._step_listeners:
            callback(time=self.sim.now, freq=freq, reason="load")


class GovernorLogger:
    def __init__(self, sim):
        self.lines = []
        sim.on("governor.step", self._on_step)

    def _on_step(self, time, freq, reason):
        self.lines.append((time, freq, reason))


class GovernorMonitor:
    def __init__(self, sim):
        self.freq = 0.0
        sim.on("governor.step", self._on_step)

    def _on_step(self, time, freq):
        self.freq = freq
