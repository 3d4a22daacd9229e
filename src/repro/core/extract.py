"""Event extraction: from idle-loop traces to latency profiles.

The idle-loop trace gives *busy periods*; the sync-I/O probe gives
*wait spans* (Figure 2: synchronous I/O is wait time even though the
CPU idles); the message-API log classifies what each episode was.
Extraction assembles user-level events from those three sources:

* busy periods and synchronous-I/O spans that chain together (touching,
  overlapping, or separated by no more than a small gap) form one
  episode — this is how a multi-second disk-bound event like Table 1's
  "Start Powerpoint" is measured as a single episode even though the
  CPU idles between disk transfers and each CPU sliver is below the
  idle-loop's detection threshold;
* an episode in which an input message was retrieved is a user event;
* an episode whose only retrievals are WM_TIMER can be merged into the
  preceding event (the Figure 4 animation case) or kept separate as
  background activity (the Word case) — the ambiguity the paper
  discusses in Sections 2.6 and 5.4, exposed here as a policy knob;
* WM_QUEUESYNC processing (MS Test overhead) is identified from the
  API log and subtracted when requested, as the paper does for Notepad
  (Figure 7 note); episodes that are *pure* QUEUESYNC processing are
  dropped as Test overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..sim.timebase import ns_from_ms
from ..winsys.messages import WM
from .latency import LatencyEvent, LatencyProfile
from .msgmon import MessageApiMonitor
from .samples import SampleTrace

__all__ = ["BusyPeriod", "Episode", "ExtractionResult", "EventExtractor"]


@dataclass
class BusyPeriod:
    """One piece of an episode: CPU busy burst or sync-I/O wait span."""

    start_ns: int
    end_ns: int
    busy_ns: int
    kind: str = "cpu"  # 'cpu' | 'io'


@dataclass
class Episode:
    """A chained group of pieces, before classification."""

    pieces: List[BusyPeriod] = field(default_factory=list)

    @property
    def start_ns(self) -> int:
        return self.pieces[0].start_ns

    @property
    def end_ns(self) -> int:
        return max(piece.end_ns for piece in self.pieces)

    @property
    def busy_ns(self) -> int:
        return sum(piece.busy_ns for piece in self.pieces if piece.kind == "cpu")

    @property
    def has_cpu(self) -> bool:
        return any(piece.kind == "cpu" for piece in self.pieces)


@dataclass
class ExtractionResult:
    """Everything extraction produces."""

    #: User-input events (the profile the paper plots).
    profile: LatencyProfile
    #: Timer-only activity kept separate (background work).
    background: LatencyProfile
    #: Activity with no message retrievals at all (system noise).
    system_activity: LatencyProfile
    #: Total WM_QUEUESYNC processing removed from event latencies.
    queuesync_removed_ns: int = 0


class EventExtractor:
    """Configurable episode assembly and classification."""

    def __init__(
        self,
        monitor: Optional[MessageApiMonitor] = None,
        merge_gap_ns: int = ns_from_ms(2),
        io_wait_spans: Optional[List[Tuple[int, int]]] = None,
        merge_timer_periods: bool = False,
        remove_queuesync: bool = False,
        elongation_factor: float = 1.5,
        min_event_ns: int = 0,
        lookback_ns: int = ns_from_ms(5),
        name: str = "",
    ) -> None:
        self.monitor = monitor
        self.merge_gap_ns = merge_gap_ns
        self.io_wait_spans = sorted(io_wait_spans) if io_wait_spans else []
        self.merge_timer_periods = merge_timer_periods
        self.remove_queuesync = remove_queuesync
        self.elongation_factor = elongation_factor
        self.min_event_ns = min_event_ns
        #: The message retrieval that *triggers* an episode can precede
        #: its first detectable piece by a sub-resolution CPU sliver
        #: (e.g. a GetMessage return followed immediately by a disk
        #: read); classification therefore looks slightly before the
        #: episode start.  Bounded by the idle-loop resolution.
        self.lookback_ns = lookback_ns
        #: Busy bursts are anchored at the *start* of their elongated
        #: interval, but the burst actually happened somewhere within
        #: it — up to one loop time later.  Classification looks that
        #: far past the anchored end so short events (busy < loop) still
        #: find their retrievals.  Set from the trace at extraction.
        self._lookahead_ns = 0
        self.name = name

    # ------------------------------------------------------------------
    # Stage 1: pieces
    # ------------------------------------------------------------------
    def busy_periods(self, trace: SampleTrace) -> List[BusyPeriod]:
        """Elongated intervals as [start, start+busy] estimates.

        The split of the calibrated loop time around the busy burst is
        unknowable from the trace alone (the paper's sub-loop-resolution
        limit), so the busy burst is anchored at the interval start;
        the error is bounded by one loop time.
        """
        periods = []
        for interval_start, _interval_end, busy in trace.elongated(
            self.elongation_factor
        ):
            periods.append(
                BusyPeriod(
                    start_ns=interval_start,
                    end_ns=interval_start + busy,
                    busy_ns=busy,
                    kind="cpu",
                )
            )
        return periods

    def pieces(self, trace: SampleTrace) -> List[BusyPeriod]:
        """Busy periods plus sync-I/O wait spans, time-ordered."""
        out = self.busy_periods(trace)
        if self.io_wait_spans and len(trace):
            t_lo = trace.first_ns
            t_hi = trace.last_ns
            for span_start, span_end in self.io_wait_spans:
                if span_end <= t_lo or span_start >= t_hi:
                    continue
                out.append(
                    BusyPeriod(
                        start_ns=max(span_start, t_lo),
                        end_ns=min(span_end, t_hi),
                        busy_ns=0,
                        kind="io",
                    )
                )
        out.sort(key=lambda piece: (piece.start_ns, piece.end_ns))
        return out

    # ------------------------------------------------------------------
    # Stage 2: chaining into episodes
    # ------------------------------------------------------------------
    def _retrievals(self, start_ns: int, end_ns: int):
        if self.monitor is None:
            return []
        return self.monitor.retrievals_between(start_ns, end_ns)

    def _is_timer_only(self, piece: BusyPeriod) -> bool:
        retrievals = self._retrievals(
            piece.start_ns, piece.end_ns + self._lookahead_ns
        )
        if not retrievals:
            return False
        return all(r.message.kind == WM.TIMER for r in retrievals)

    def episodes(self, trace: SampleTrace) -> List[Episode]:
        self._lookahead_ns = trace.loop_ns
        episodes: List[Episode] = []
        for piece in self.pieces(trace):
            if episodes:
                current = episodes[-1]
                gap = piece.start_ns - current.end_ns
                chained = gap <= self.merge_gap_ns
                if not chained and self.merge_timer_periods:
                    chained = piece.kind == "cpu" and self._is_timer_only(piece)
                if chained:
                    current.pieces.append(piece)
                    continue
            episodes.append(Episode(pieces=[piece]))
        # Episodes need at least one CPU burst to be an observation; a
        # pure-I/O episode means the triggering CPU work was below the
        # idle-loop detection threshold — keep it, the wait is real.
        return episodes

    # ------------------------------------------------------------------
    # Stage 3: classification and assembly
    # ------------------------------------------------------------------
    def extract(self, trace: SampleTrace) -> ExtractionResult:
        self._lookahead_ns = trace.loop_ns
        events: List[LatencyEvent] = []
        background: List[LatencyEvent] = []
        system_noise: List[LatencyEvent] = []
        total_removed = 0
        for episode in self.episodes(trace):
            start = episode.start_ns
            end = episode.end_ns
            latency = end - start
            retrievals = self._retrievals(
                start - self.lookback_ns, end + self._lookahead_ns
            )
            kinds = tuple(str(r.message.kind) for r in retrievals)
            first_input = next(
                (r.message.payload for r in retrievals if r.message.from_input), None
            )
            removed = 0
            if self.remove_queuesync and self.monitor is not None:
                for _record, span_ns in self.monitor.queuesync_spans(start, end):
                    removed += span_ns
                removed = min(removed, latency)
                total_removed += removed
            event = LatencyEvent(
                start_ns=start,
                latency_ns=latency - removed,
                busy_ns=episode.busy_ns,
                message_kinds=kinds,
                first_input=first_input,
            )
            if event.latency_ns < self.min_event_ns:
                continue
            has_input = any(r.message.from_input for r in retrievals)
            if self.monitor is None or has_input:
                events.append(event)
            elif retrievals and all(r.message.kind == WM.TIMER for r in retrievals):
                background.append(event)
            elif retrievals and all(r.message.kind == WM.QUEUESYNC for r in retrievals):
                # Pure Test overhead: excluded from every profile.
                total_removed += event.latency_ns
            else:
                system_noise.append(event)
        return ExtractionResult(
            profile=LatencyProfile(events, name=self.name),
            background=LatencyProfile(background, name=f"{self.name}:background"),
            system_activity=LatencyProfile(system_noise, name=f"{self.name}:system"),
            queuesync_removed_ns=total_removed,
        )
