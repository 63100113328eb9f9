"""Discrete-event simulation substrate (PARSEC substitute).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop.
* :class:`~repro.sim.events.Event` — scheduled callback.
* :class:`~repro.sim.process.Process`, :class:`~repro.sim.process.Timeout`,
  :class:`~repro.sim.process.Signal`, :class:`~repro.sim.process.Interrupt`
  — generator-based process layer.
* :class:`~repro.sim.resources.SerialServer` — closed-form FCFS queue.
* :class:`~repro.sim.rng.RandomStreams` — named reproducible RNG streams.
"""

from .engine import PeriodicTimer, SimulationError, Simulator
from .events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, Event
from .process import Interrupt, Process, Signal, Timeout, all_of
from .resources import SerialServer
from .rng import RandomStreams, stable_hash64
from .trace import TraceRecord, TraceRecorder

__all__ = [
    "Simulator", "SimulationError", "Event", "PeriodicTimer",
    "PRIORITY_HIGH", "PRIORITY_LOW", "PRIORITY_NORMAL",
    "Process", "Timeout", "Signal", "Interrupt", "all_of",
    "SerialServer",
    "RandomStreams", "stable_hash64",
    "TraceRecorder", "TraceRecord",
]
