"""Virtual clock: simulated time for deterministic runs."""


class VirtualClock:
    """Manually advanced clock. sleep() moves time forward instantly."""

    def __init__(self, start: float = 0.0):
        self._now = start

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot sleep a negative duration")
        self._now += seconds
