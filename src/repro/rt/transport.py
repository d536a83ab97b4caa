"""Real-time scheduler: protocol timers on a running asyncio event loop.

The protocol classes (``PbftReplica``, ``RingBftReplica``, the baselines, and
``Client``) reach their environment through a *scheduler* (``now``,
``schedule``, ``rng``) and a *transport*.  :class:`RealTimeScheduler` is the
scheduler for the two asyncio backends: timers become ``call_later``
callbacks, and ``time_scale`` maps protocol seconds to wall-clock seconds.

The realtime backend pairs it with the simulator's own
:class:`~repro.sim.network.Network`, so messages are the same link-emulator
decisions delivered through the same fabric, only on a real clock; one
``time_scale`` compresses timers and link delays alike.  The socket backend
pairs it with :class:`~repro.net.transport.SocketTransport`, where every
message crosses real TCP.
"""

from __future__ import annotations

import asyncio
import random

from repro.errors import SimulationError


class _AsyncTimerHandle:
    """Cancellable handle compatible with the simulator's ``TimerHandle``."""

    def __init__(self, handle: asyncio.TimerHandle, fire_time: float) -> None:
        self._handle = handle
        self._fire_time = fire_time
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fire_time(self) -> float:
        return self._fire_time


class RealTimeScheduler:
    """Scheduler facade over a running asyncio event loop.

    Exposes the subset of :class:`repro.sim.kernel.Simulator` the nodes use:
    ``now``, ``schedule``, ``schedule_at``, and ``rng``.  ``time_scale``
    compresses (or stretches) every delay, which keeps demos snappy while
    preserving relative timer ordering.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None, *, seed: int = 2022,
                 time_scale: float = 1.0) -> None:
        self._loop = loop or asyncio.get_event_loop()
        self._rng = random.Random(seed)
        self.seed = seed
        if time_scale <= 0:
            raise SimulationError("time_scale must be positive")
        self._time_scale = time_scale
        self._origin = self._loop.time()

    @property
    def now(self) -> float:
        """Elapsed (unscaled) protocol time since the scheduler was created."""
        return (self._loop.time() - self._origin) / self._time_scale

    @property
    def rng(self) -> random.Random:
        return self._rng

    def schedule(self, delay: float, callback, *args) -> _AsyncTimerHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        handle = self._loop.call_later(delay * self._time_scale, callback, *args)
        return _AsyncTimerHandle(handle, self.now + delay)

    def schedule_at(self, time: float, callback, *args) -> _AsyncTimerHandle:
        return self.schedule(max(0.0, time - self.now), callback, *args)
