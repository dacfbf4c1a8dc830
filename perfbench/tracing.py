"""Frame clock for untraced runs and the layer tracer for traced runs.

Both hook the simulator from outside by replacing public methods on their
classes; nothing in ``src/`` is edited.  The dynamic simulator ends every
frame with ``CdmaNetwork.advance``, so a frame runs from the end of one
``advance`` call to the end of the next.  Only frames that start at or after
the scenario warm-up are kept.

* :class:`FrameClock` reads the clock once per frame and wraps nothing else.
* :class:`Tracer` additionally wraps the public entry point of every layer,
  keeps one span per call in memory (name, frame, parent, start, end, self
  time) and sums self time -- span duration minus its child spans -- per
  layer.  Frame time not covered by any span is the unattributed glue.
"""

from __future__ import annotations

import gc
import json
import time

from repro.cdma.handoff import SoftHandoffController
from repro.cdma.linkgain import LinkGainMap
from repro.cdma.network import CdmaNetwork
from repro.cdma.powercontrol import ForwardLinkPowerControl, ReverseLinkPowerControl
from repro.experiments.journal import CheckpointJournal
from repro.geometry.mobility import MobilityBatch, RandomDirectionFleet
from repro.mac.admission import BurstAdmissionController
from repro.mac.schedulers import BurstScheduler

_EPS_S = 1e-6

#: The clock or tracer installed in this process (read by the campaign's
#: runner wrapper).
installed = None


def tail_percentile(samples):
    """Highest percentile of a fixed ladder with at least ten samples beyond it.

    Returns ``(percentile, value)``; below 40 samples it falls back to the
    median.
    """
    import numpy as np

    n = len(samples)
    for per_mille in (999, 990, 980, 950, 900, 800, 750):
        if n * (1000 - per_mille) >= 10_000:
            return per_mille / 10.0, float(np.percentile(samples, per_mille / 10.0))
    return 50.0, float(np.percentile(samples, 50.0)) if n else float("nan")


class FrameClock:
    """Host time of every post-warm-up frame, one clock read per frame."""

    def __init__(self, warmup_s: float, collect_garbage: bool = True) -> None:
        self.warmup_s = float(warmup_s)
        self.collect_garbage = collect_garbage
        #: Host seconds spent in the ``gc.collect()`` at each warm-up end.
        self.gc_s = 0.0
        #: States of the campaign tasks run since the coordinator last took them.
        self.task_states = []
        self._network = None
        self._recording = False
        self._last = 0.0
        self._restore = []
        self._clear()

    def _clear(self) -> None:
        #: Host seconds of each post-warm-up frame.
        self.frame_s = []

    # -- installation ------------------------------------------------------------
    def _patch(self, owner, name, replacement) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "FrameClock":
        return self._install_clock(CdmaNetwork.advance)

    def _install_clock(self, inner) -> "FrameClock":
        """Read the clock after ``inner`` (the network advance) returns."""
        global installed
        clock = self

        def advance(network, dt_s):
            inner(network, dt_s)
            clock.boundary(network)

        self._patch(CdmaNetwork, "advance", advance)
        installed = self
        return self

    def uninstall(self) -> None:
        global installed
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        installed = None

    # -- frames ------------------------------------------------------------------
    def new_rep(self) -> None:
        """Forget the previous replication; its last frame has ended."""
        self._network = None
        self._recording = False

    def boundary(self, network) -> None:
        """End of one frame (called right after ``CdmaNetwork.advance``)."""
        now = time.perf_counter()
        if network is not self._network:
            self._network = network
            self._recording = False
        if self._recording:
            self._frame_ended(now - self._last)
        elif network.time_s >= self.warmup_s - _EPS_S:
            # Warm-up just ended: collect garbage outside the timed frames.
            if self.collect_garbage:
                gc.collect()
                after = time.perf_counter()
                self.gc_s += after - now
                now = after
            self._recording = True
        self._last = now

    def _frame_ended(self, seconds: float) -> None:
        self.frame_s.append(seconds)

    def take_state(self) -> dict:
        """The recorded state as JSON-able data; the recorder starts afresh."""
        state = self.state()
        self._clear()
        return state

    def state(self) -> dict:
        return {"frame_s": list(self.frame_s)}

    def merge(self, state: dict) -> None:
        self.frame_s.extend(state["frame_s"])


def _handoff_before(controller, *args):
    return controller.handoff_events


def _handoff_count(tracer, args, result, before):
    tracer.counters["handoff.events"] += args[0].handoff_events - before


def _linkgain_count(tracer, args, result, before):
    gains = args[0]
    tracer.counters["linkgain.links"] += gains.num_mobiles * gains.num_cells


def _pc_count(layer):
    def count(tracer, args, result, before):
        c = tracer.counters
        c[layer + ".solves"] += 1
        c[layer + ".iters"] += result.iterations
        c[layer + ".at_cap"] += result.iterations >= args[0].iterations

    return count


def _decide_count(tracer, args, result, before):
    c = tracer.counters
    c["admission.decisions"] += 1
    c["admission.requests"] += len(args[2])
    c["admission.grants"] += len(result[1])


def _assign_count(tracer, args, result, before):
    tracer.counters["solve.optimal"] += bool(result.optimal)


#: Layer spans: (owner class, public method, span name, before hook, counter).
_LAYERS = [
    (CdmaNetwork, "advance", "network_advance", None, None),
    (MobilityBatch, "advance", "mobility", None, None),
    (RandomDirectionFleet, "advance", "mobility", None, None),
    (LinkGainMap, "advance", "linkgain", None, _linkgain_count),
    (SoftHandoffController, "update", "handoff", _handoff_before, _handoff_count),
    (CdmaNetwork, "snapshot", "snapshot", None, None),
    (ReverseLinkPowerControl, "solve", "pc_reverse", None, _pc_count("pc_reverse")),
    (ForwardLinkPowerControl, "solve", "pc_forward", None, _pc_count("pc_forward")),
    (BurstAdmissionController, "decide", "admission", None, _decide_count),
    (BurstAdmissionController, "build_input", "measure", None, None),
]

#: Every span name; the self times of these plus the unattributed time sum
#: to the frame time.
SPAN_NAMES = (
    "network_advance",
    "mobility",
    "linkgain",
    "handoff",
    "snapshot",
    "pc_reverse",
    "pc_forward",
    "admission",
    "measure",
    "solve",
)

#: Spans that have child spans (their metric is the self time).
PARENT_SPANS = ("network_advance", "snapshot", "admission")

_COUNTERS = (
    "linkgain.links",
    "handoff.events",
    "pc_reverse.solves",
    "pc_reverse.iters",
    "pc_reverse.at_cap",
    "pc_forward.solves",
    "pc_forward.iters",
    "pc_forward.at_cap",
    "admission.decisions",
    "admission.requests",
    "admission.grants",
    "solve.optimal",
)


def _scheduler_classes():
    pending, found = [BurstScheduler], []
    while pending:
        cls = pending.pop()
        for sub in cls.__subclasses__():
            pending.append(sub)
            if "assign" in sub.__dict__:
                found.append(sub)
    return found


class Tracer(FrameClock):
    """Layer spans on top of the frame clock (traced runs only)."""

    def __init__(self, warmup_s: float, collect_garbage: bool = True) -> None:
        super().__init__(warmup_s, collect_garbage)
        #: Coordinator-side journal timings (campaign only).
        self.journal_append_s = []
        self.journal_compact_s = []
        self._stack = []

    def _clear(self) -> None:
        super()._clear()
        #: Finished spans of post-warm-up frames:
        #: ``(frame, name, parent, start_s, end_s, self_s)``.
        self.spans = []
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counters = dict.fromkeys(_COUNTERS, 0)
        #: Host seconds of every scheduling decision (``assign``).
        self.solve_s = []

    def install(self) -> "Tracer":
        for owner, method, name, before, count in _LAYERS:
            wrapped = self._span(name, owner.__dict__[method], before, count)
            if owner is CdmaNetwork and method == "advance":
                # The frame boundary comes after the advance span has closed.
                self._install_clock(wrapped)
            else:
                self._patch(owner, method, wrapped)
        for cls in _scheduler_classes():
            self._patch(cls, "assign", self._span("solve", cls.__dict__["assign"], None, _assign_count))
        self._patch(CheckpointJournal, "append", self._timed(CheckpointJournal.append, self.journal_append_s))
        self._patch(CheckpointJournal, "compact", self._timed(CheckpointJournal.compact, self.journal_compact_s))
        return self

    def _span(self, name, fn, before_hook, count):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # Outside post-warm-up frames, and for an override calling its
            # base class, run unwrapped.
            if not tracer._recording or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            before = before_hook(*args) if before_hook is not None else None
            entry = [name, time.perf_counter(), 0.0]
            stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - entry[1]
                self_s = duration - entry[2]
                parent = None
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][0]
                tracer.spans.append(
                    (len(tracer.frame_s), name, parent, entry[1], end, self_s)
                )
                tracer.self_s[name] += self_s
            if name == "solve":
                tracer.solve_s.append(duration)
            if count is not None:
                count(tracer, args, result, before)
            return result

        return wrapper

    @staticmethod
    def _timed(fn, sink):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(time.perf_counter() - start)

        return wrapper

    def state(self) -> dict:
        return {
            "frame_s": list(self.frame_s),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "solve_s": list(self.solve_s),
            "spans": list(self.spans),
        }

    def merge(self, state: dict) -> None:
        # Frame numbers of merged spans continue after the frames held so far.
        offset = len(self.frame_s)
        super().merge(state)
        for name, value in state["self_s"].items():
            self.self_s[name] += value
        for name, value in state["counters"].items():
            self.counters[name] += value
        self.solve_s.extend(state["solve_s"])
        self.spans.extend((span[0] + offset, *span[1:]) for span in state["spans"])

    def write_spans(self, path: str) -> None:
        """Write the in-memory spans as JSON lines (called once, at the end)."""
        keys = ("frame", "name", "parent", "start_s", "end_s", "self_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
