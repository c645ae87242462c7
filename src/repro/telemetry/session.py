"""Telemetry sessions: scoped, zero-cost-when-off observability.

A :class:`TelemetrySession` is a context manager that, while active,
instruments every :class:`~repro.sim.Engine` constructed in this process:

* attaches a :class:`~repro.telemetry.Counters` observer (event statistics),
* streams events to a :class:`~repro.telemetry.JsonlTraceSink` when a
  trace path is configured,
* hands the engine a step timer so ``Engine.run`` accumulates
  ``perf_counter`` spans around each executed step, alongside the
  pipeline-stage spans taken by the scenario dispatcher.

Only the reference engine is observed.  The numpy kernels
(:mod:`repro.sim.engine_vec`, :mod:`repro.sim.engine_lockstep`) emit no
events, so the trial runners send every run under a session to the
reference engine, and building a kernel under one raises.

Engines discover the active session through
:mod:`repro.telemetry.context` at construction time; with no session
active nothing is attached, the engine's ``tracing`` flag stays False, and
the hot loop's "no observer ⇒ no event construction" fast path is
untouched (one ``None`` check per engine construction, one per
``Engine.run`` call).

The dispatcher (:func:`repro.scenarios.run_trial`) finalizes the session
into its outputs: counters onto ``RunResult.telemetry`` (deterministic —
safe to cache and to compare across worker counts), wall-clock spans onto
``ScenarioRun.timings`` (machine-dependent — kept out of the result).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .context import activate, current_session, deactivate
from .counters import Counters
from .timing import TimingSpans
from .trace import JsonlTraceSink


@dataclass(frozen=True)
class TelemetryConfig:
    """What a session should collect.

    ``counters`` and ``timings`` default on (they are cheap); ``trace_path``
    enables the JSONL sink (``.gz`` suffix compresses).  ``spec_hash``
    labels the trace header with the originating
    :meth:`~repro.scenarios.RunSpec.content_hash`.
    """

    counters: bool = True
    timings: bool = True
    trace_path: Optional[str] = None
    spec_hash: Optional[str] = None


class TelemetrySession:
    """Process-local observability scope (see module docstring)."""

    def __init__(self, config: Optional[TelemetryConfig] = None, **kwargs) -> None:
        self.config = config if config is not None else TelemetryConfig(**kwargs)
        self.counters: Optional[Counters] = (
            Counters() if self.config.counters else None
        )
        self.spans: Optional[TimingSpans] = (
            TimingSpans() if self.config.timings else None
        )
        self.sink: Optional[JsonlTraceSink] = None
        self.engines_attached = 0
        self._last_result = None

    # ------------------------------------------------------------- context

    def __enter__(self) -> "TelemetrySession":
        activate(self)
        if self.config.trace_path is not None:
            self.sink = JsonlTraceSink(self.config.trace_path)
        return self

    def __exit__(self, *exc_info) -> None:
        deactivate(self)
        if self.sink is not None:
            footer = {}
            result = self._last_result
            if result is not None:
                footer = {
                    "makespan": result.makespan,
                    "delivered": result.delivered,
                    "steps_executed": result.steps_executed,
                    "steps_skipped": result.steps_skipped,
                }
            self.sink.write_footer(footer)
            self.sink.close()

    # ------------------------------------------------------------ engines

    def attach(self, engine) -> None:
        """Instrument one engine (called by ``Engine.__init__``)."""
        self.engines_attached += 1
        if self.counters is not None:
            self.counters.bind(engine)
            engine.add_observer(self.counters.on_event)
        if self.sink is not None:
            if self.engines_attached == 1:
                problem = engine.problem
                header = {
                    "router": type(engine.router).__name__,
                    "network": engine.net.name,
                    "num_packets": len(engine.packets),
                    "congestion": problem.congestion,
                    "dilation": problem.dilation,
                    "depth": engine.net.depth,
                }
                if self.config.spec_hash is not None:
                    header["spec_hash"] = self.config.spec_hash
                self.sink.write_header(header)
            engine.add_observer(self.sink.on_event)
        if self.spans is not None:
            engine._step_timer = self.spans

    # ------------------------------------------------------------ results

    def finalize_result(self, result) -> None:
        """Attach the (deterministic) counters to a finished run's result."""
        self._last_result = result
        if self.counters is not None:
            result.telemetry = self.counters.to_dict()

    def timings_dict(self) -> Optional[dict]:
        """Snapshot of the wall-clock spans (None when timing is off)."""
        return self.spans.to_dict() if self.spans is not None else None


__all__ = [
    "TelemetryConfig",
    "TelemetrySession",
    "current_session",
]
