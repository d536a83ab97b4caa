"""Real-time clock: the scheduler that runs protocol timers on an asyncio loop."""

from repro.rt.transport import RealTimeScheduler

__all__ = ["RealTimeScheduler"]
