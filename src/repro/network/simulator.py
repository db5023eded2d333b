"""Multi-station, multi-AP network simulator (the scenario engine).

Composes the existing single-link pieces into one world:

* each station replays its own channel trace through a resumable
  :class:`~repro.mac.LinkProcess` (the fast engine, one exchange at a
  time) under its own rate controller and traffic source;
* a simplified CSMA model serialises the medium per AP cell: the
  station with the earliest medium need transmits, co-cell contenders
  carrier-sense and defer past its exchange (round-robin tie-break, so
  saturated co-cell stations share airtime fairly);
* hints travel as the scenario dictates -- the link simulator's delayed
  hint-series model (``series``), or over the air through
  :class:`~repro.core.hint_protocol.HintChannel` riding real frame
  exchanges (``protocol``);
* every ``scan_interval_s`` each station sends an augmented probe
  request (:class:`~repro.mac.ProbeRequest`, hints wire-encoded and
  decoded back, so the AP sees quantised values) and an association
  policy -- strongest signal, or predicted lifetime learned online by a
  shared :class:`~repro.ap.LifetimeScorer` -- decides its AP; handoffs
  reset the rate controller (fresh association) and move the station
  between contention domains.

The key invariant, pinned by ``tests/test_network.py``: a 1-station /
1-AP scenario is **bit-identical** to the equivalent
:class:`~repro.mac.LinkSimulator` run (:func:`link_equivalent_result`),
so the network layer is a strict generalisation of the single-link
simulator, not a fork.  With one station there is no contention (no
deferrals), scans never hand off, and the hint path is exactly the link
simulator's.

Both scenario engines run this module's scheduler over the same
stations (:class:`_StationRuntime`, one ``LinkProcess`` each): the
reference :class:`NetworkSimulator` steps one exchange per pick, and
:class:`~repro.network.batch.NetworkBatchEngine` fills in its one hook,
``_commit_rounds``, to commit saturated rounds in one pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from ..ap.association import (
    ApInfo,
    AssociationEvent,
    LifetimeScorer,
    simulate_walks,
    strongest_signal_policy,
)
from ..core.hint_protocol import HintChannel, decode_hint_frame
from ..core.hints import (
    HeadingHint,
    MovementHint,
    PositionHint,
    SpeedHint,
    heading_difference_deg,
)
from ..core.seeds import derive_seed
from ..rate import RATE_PROTOCOLS
from ..mac import (
    LinkProcess,
    ProbeRequest,
    SimConfig,
    SimResult,
    TcpSource,
    UdpSource,
    run_link,
)
from ..mac.simulator import _hint_edges
from ..sensors.trajectory import MotionScript
from .scenario import NetworkScenario
from .traces import station_hints, station_script, station_seed, station_trace

__all__ = [
    "HandoffEvent",
    "NetworkResult",
    "NetworkSimulator",
    "link_equivalent_result",
    "run_scenario",
]

_INF = float("inf")


@dataclass(frozen=True)
class HandoffEvent:
    """One association change (``from_bssid`` is None for the first)."""

    time_s: float
    station: str
    from_bssid: str | None
    to_bssid: str


@dataclass
class NetworkResult:
    """Outcome of one scenario replay."""

    scenario: NetworkScenario
    #: Per-station link replay outcome, keyed by station name.
    stations: dict[str, SimResult]
    #: Every association change, in simulation order.
    handoffs: list[HandoffEvent]
    #: Completed associations -- closed by a handoff, so their lifetime
    #: was observed in full; exactly these trained the scorer.
    association_events: list[tuple[str, AssociationEvent]]
    #: Associations still open at the end of the run: lifetimes are
    #: censored at the scenario duration and never train the scorer.
    censored_events: list[tuple[str, AssociationEvent]]
    #: Medium time each station's exchanges occupied (µs).
    airtime_us: dict[str, float]
    #: Hints each sender learned over the air (``protocol`` mode only).
    hints_delivered: dict[str, int]
    #: Each station's rate controller after the run (for inspection:
    #: e.g. ``HintAwareRateController.switch_count`` / ``moving``).
    controllers: dict[str, object]
    #: The shared AP-side lifetime table after the run.
    scorer: LifetimeScorer
    #: Every medium-occupying frame exchange as ``(station, start_us,
    #: end_us, success)``, when the engine was asked to record them
    #: (``NetworkSimulator(..., record_exchanges=True)``); None
    #: otherwise.  The invariant tests check airtime conservation and
    #: per-cell serialization against this log.
    exchanges: list[tuple[str, float, float, bool]] | None = None

    @property
    def aggregate_throughput_mbps(self) -> float:
        return sum(r.throughput_mbps for r in self.stations.values())

    @property
    def handoff_count(self) -> int:
        """Association *changes* (first associations excluded)."""
        return sum(1 for h in self.handoffs if h.from_bssid is not None)

    def mean_association_lifetime_s(self, include_censored: bool = False) -> float:
        """Mean observed association lifetime.

        Censored (still-open-at-end) associations are excluded by
        default: mixing them in would reward the policy that hands off
        least with full-duration lifetimes it never actually observed.
        """
        events = [e.lifetime_s for _, e in self.association_events]
        if include_censored:
            events += [e.lifetime_s for _, e in self.censored_events]
        return sum(events) / len(events) if events else 0.0

    def station(self, name: str) -> SimResult:
        return self.stations[name]


class _ReadyQueue:
    """Lazy-deletion heap of ready-time *tie groups*.

    Selection is bit-identical to a full linear scan: the winner
    minimises ``(ready_us, (i - rr) % n)`` lexicographically, where
    ``rr`` is the round-robin cursor rotated after each exchange.  The
    rank term only matters among stations *tied* at the minimal ready
    time, and ``rr`` changes between picks, so the heap orders distinct
    ready values and keeps one member bucket per value; the minimal
    bucket is re-ranked against the current ``rr`` at pop time.
    ``ready`` holds the authoritative value per station; bucket entries
    that disagree with it are stale and dropped during the pop
    (duplicates of a live value are harmless -- they select the same
    station the authoritative value would).  A saturated cell, where
    every exchange re-ties all contenders at its end time, costs one
    heap push and one bucket sweep per exchange -- no per-station heap
    churn.

    The batch scenario engine (:mod:`repro.network.batch`) runs the
    same scheduler, so both engines replay the exact same winner
    sequence by construction.
    """

    __slots__ = ("_n", "ready", "_heap", "_buckets", "_last_val", "_last_bucket")

    def __init__(self, n: int) -> None:
        self._n = n
        self.ready = [_INF] * n
        self._heap: list[float] = []        # distinct pending ready values
        self._buckets: dict[float, list[int]] = {}
        self._last_val = _INF               # one-entry bucket cache: the
        self._last_bucket: list[int] = []   # defer loop re-ties a whole cell

    def update(self, i: int, ready_us: float) -> None:
        """Record station ``i``'s (re)computed ready time."""
        self.ready[i] = ready_us
        if ready_us == _INF:
            return
        if ready_us == self._last_val:
            self._last_bucket.append(i)
            return
        bucket = self._buckets.get(ready_us)
        if bucket is None:
            bucket = [i]
            self._buckets[ready_us] = bucket
            heapq.heappush(self._heap, ready_us)
        else:
            bucket.append(i)
        self._last_val = ready_us
        self._last_bucket = bucket

    def pop_best(self, rr: int) -> tuple[int, float]:
        """Remove and return ``(winner, ready_us)``; ``(-1, inf)`` when
        every station is done.  The winner's entries are consumed: the
        caller must :meth:`update` it after stepping it."""
        heap = self._heap
        ready = self.ready
        buckets = self._buckets
        n = self._n
        while heap:
            r0 = heap[0]
            best_i = -1
            best_rank = n
            rest = []
            for i in buckets[r0]:
                if ready[i] != r0:
                    continue
                rank = (i - rr) % n
                if rank < best_rank:
                    if best_i >= 0:
                        rest.append(best_i)
                    best_i, best_rank = i, rank
                else:
                    rest.append(i)
            if best_i < 0:
                heapq.heappop(heap)
                del buckets[r0]
                if self._last_val == r0:
                    self._last_val = _INF
                continue
            if rest:
                buckets[r0] = rest
                if self._last_val == r0:
                    self._last_bucket = rest
            else:
                heapq.heappop(heap)
                del buckets[r0]
                if self._last_val == r0:
                    self._last_val = _INF
            return best_i, r0
        return -1, _INF


class _StationRuntime:
    """Mutable per-station state threaded through the scheduler."""

    def __init__(self, scenario: NetworkScenario, index: int) -> None:
        spec = scenario.stations[index]
        self.spec = spec
        self.index = index
        seed = station_seed(scenario, index)
        self.controller = RATE_PROTOCOLS[spec.protocol](seed)
        traffic = TcpSource() if spec.traffic == "tcp" else UdpSource()
        # With hints off nothing consumes the series; skip the
        # accelerometer synthesis + jerk detection entirely.
        hints = (station_hints(scenario, index)
                 if scenario.hint_mode != "off" else None)
        self.script: MotionScript = station_script(scenario, index)
        config = SimConfig(seed=seed, hint_delay_s=scenario.hint_delay_s)
        self.proc = LinkProcess(
            station_trace(scenario, index),
            self.controller,
            traffic,
            hints if scenario.hint_mode == "series" else None,
            config,
        )
        # Receiver-side hint publishing for ``protocol`` mode: the
        # station always knows its own hint; the sender only learns it
        # through the channel.  Probe scans query the series directly
        # (scan times can lag exchange ends, so they must not share the
        # delivery cursor -- a hint must never leak backwards in time).
        # The cursor's edge list exists only in ``protocol`` mode; in
        # ``series`` mode the LinkProcess owns the (identical) edges.
        self.hints = hints
        protocol_mode = scenario.hint_mode == "protocol"
        self.hint_times, self.hint_vals = (
            _hint_edges(hints) if protocol_mode and hints is not None
            else ([], []))
        self.hint_i = 0
        self.hint_cur = False
        self.channel = (
            HintChannel(beacon_interval_s=scenario.hint_beacon_s)
            if protocol_mode else None
        )
        self.last_learned: bool | None = None
        self.hints_delivered = 0
        # Association state.
        self.bssid: str | None = None
        self.assoc_since_s = 0.0
        self.assoc_bearing_deg = 0.0
        self.assoc_distance_m = 0.0
        self.assoc_moving = False
        self.airtime_us = 0.0

    def on_reassociate(self) -> None:
        """Fresh association: learned link state is stale, and the
        reset also wiped the controller's hint knowledge, so the
        current hint must be re-delivered (a moving station must not be
        treated as static post-handoff)."""
        self.controller.reset()
        self.proc.resync_hints()
        self.last_learned = None

    def defer_until(self, t_us: float) -> None:
        self.proc.defer_until(t_us)

    def advance_hint(self, t_s: float) -> bool:
        """Advance the delivery-side hint cursor to ``t_s`` (monotone)."""
        while self.hint_i < len(self.hint_times) and \
                self.hint_times[self.hint_i] <= t_s:
            self.hint_cur = self.hint_vals[self.hint_i]
            self.hint_i += 1
        return self.hint_cur

    def hint_value_at(self, t_s: float) -> bool:
        """The station's own hint at an arbitrary time (probe scans)."""
        if self.hints is None:
            return False
        return bool(self.hints.value_at(t_s, default=False))


class _AssociationCore:
    """The probe / association / scorer layer over the stations.

    Scans read and update each :class:`_StationRuntime`'s association
    state (``bssid``/``assoc_*``) and call its ``hint_value_at``/
    ``on_reassociate``/``defer_until``; the scheduler reads the per-cell
    busy horizons and member sets kept here.
    """

    def __init__(self, scenario: NetworkScenario) -> None:
        self._scenario = scenario
        self._aps = [ApInfo(ap.bssid, ap.x_m, ap.y_m) for ap in scenario.aps]
        self._scorer = LifetimeScorer()
        self._handoffs: list[HandoffEvent] = []
        self._events: list[tuple[str, AssociationEvent]] = []
        self._censored: list[tuple[str, AssociationEvent]] = []
        #: Per-cell medium busy-until (µs), for newcomers' carrier sense.
        self._cell_busy_us: dict[str, float] = {}
        #: Per-cell member indexes, so carrier-sense deferral walks the
        #: contention domain instead of every station in the scenario.
        self._cell_members: dict[str, set[int]] = {}
        if scenario.pretrain_walks > 0 and \
                scenario.association_policy == "lifetime":
            # The paper's APs "learn, over time" from observed
            # association lifetimes; pretraining stands in for that
            # elapsed time, with the baseline policy generating the
            # training associations (as during the learning phase).
            simulate_walks(
                self._aps, strongest_signal_policy,
                n_walks=scenario.pretrain_walks,
                corridor_length_m=max(ap.x_m for ap in self._aps) + 50.0,
                seed=derive_seed(scenario.seed, "net-pretrain"),
                scorer_to_train=self._scorer,
                assoc_range_m=scenario.assoc_range_m,
            )

    def _probe_hints(self, st, t_s: float):
        """The station's augmented probe request, decoded AP-side.

        Hints are wire-encoded into the probe and decoded back, so the
        policy sees the quantised values a real AP would (movement bit,
        ~1.4 degree heading steps, 0.5 m/s speed steps).
        """
        state = st.script.state_at(t_s)
        if self._scenario.hint_mode == "off":
            return state, None
        probe = ProbeRequest(src=st.spec.name, dst="*", hints=[
            MovementHint(time_s=t_s, moving=st.hint_value_at(t_s)),
            HeadingHint(time_s=t_s, heading_deg=state.heading_deg),
            SpeedHint(time_s=t_s, speed_mps=state.speed_mps),
            PositionHint(time_s=t_s, x_m=state.x_m, y_m=state.y_m),
        ])
        # Decode AP-side so the *policy* consumes the quantised values a
        # real AP would read off the air -- movement bit, ~1.4 degree
        # heading steps, whole-metre int16 position.  (Which APs hear
        # the probe at all is physical and uses the exact position.)
        return state, decode_hint_frame(probe.encoded_hints(), time_s=t_s)

    def _choose_ap(self, st, in_range: list[ApInfo],
                   x: float, y: float, px: float, py: float,
                   heading_deg: float, moving: bool, hinted: bool) -> ApInfo:
        """``x, y`` are physical (RSSI is measured at the AP, not
        derived from a report); ``px, py`` are the wire-quantised
        reported position the learned scorer's features see.  An
        untrained scorer falls through to the baseline path so a cold
        lifetime policy is *exactly* the strongest-signal baseline."""
        if self._scenario.association_policy == "lifetime" and hinted \
                and self._scorer.n_trained > 0:
            return self._scorer.policy(in_range, px, py, heading_deg, moving)
        return strongest_signal_policy(in_range, x, y, heading_deg, moving)

    def _close_association(self, st, t_s: float,
                           train: bool = True) -> None:
        if st.bssid is None:
            return
        event = AssociationEvent(
            bssid=st.bssid,
            lifetime_s=max(0.0, t_s - st.assoc_since_s),
            relative_bearing_deg=st.assoc_bearing_deg,
            distance_m=st.assoc_distance_m,
            moving=st.assoc_moving,
        )
        if train:
            self._events.append((st.spec.name, event))
            # Online learning, exactly as the paper describes: the AP
            # correlates the hint values seen at association time with
            # the lifetime it eventually observed.
            self._scorer.train(event)
        else:
            self._censored.append((st.spec.name, event))

    def _scan(self, stations, t_s: float) -> None:
        scenario = self._scenario
        for st in stations:
            state, wire_hints = self._probe_hints(st, t_s)
            x, y = state.x_m, state.y_m
            in_range = [ap for ap in self._aps
                        if ap.distance_to(x, y) <= scenario.assoc_range_m]
            if not in_range:
                # Out of every cell: hold the stale association (a real
                # client would scan in vain); the link replay continues.
                continue
            if wire_hints is not None:
                moving = next(h.moving for h in wire_hints
                              if isinstance(h, MovementHint))
                heading = next(h.heading_deg for h in wire_hints
                               if isinstance(h, HeadingHint))
                reported = next(h for h in wire_hints
                                if isinstance(h, PositionHint))
                px, py = reported.x_m, reported.y_m
            else:
                moving, heading = state.moving, state.heading_deg
                px, py = x, y
            chosen = self._choose_ap(st, in_range, x, y, px, py, heading,
                                     moving, hinted=wire_hints is not None)
            if chosen.bssid == st.bssid:
                continue
            previous = st.bssid
            self._close_association(st, t_s)
            if previous is not None:
                self._cell_members[previous].discard(st.index)
            self._cell_members.setdefault(chosen.bssid, set()).add(st.index)
            if previous is not None:
                # Fresh association: reset learned link state and
                # re-deliver the current hint (see on_reassociate).
                st.on_reassociate()
            st.bssid = chosen.bssid
            st.assoc_since_s = t_s
            # Carrier sense applies from the moment the station joins
            # the cell: if an exchange is already on the air there, the
            # newcomer defers past it like any other contender.
            st.defer_until(self._cell_busy_us.get(chosen.bssid, 0.0))
            # Snapshot the hint values the AP saw at association time:
            # these are what the lifetime table is trained on.
            st.assoc_bearing_deg = heading_difference_deg(
                heading, chosen.bearing_from(px, py))
            st.assoc_distance_m = chosen.distance_to(px, py)
            st.assoc_moving = moving
            self._handoffs.append(HandoffEvent(
                time_s=t_s, station=st.spec.name,
                from_bssid=previous, to_bssid=chosen.bssid,
            ))

class NetworkSimulator:
    """Replay one :class:`NetworkScenario` to completion.

    This is the *reference* scenario engine: per-station resumable
    :class:`~repro.mac.LinkProcess` steppers under the exact scheduler,
    one frame exchange per pick.  ``NetworkScenario(engine="batch")``
    routes :func:`run_scenario` to the subclass
    :class:`~repro.network.batch.NetworkBatchEngine`, which fills in
    the one hook :attr:`_commit_rounds` to commit saturated contention
    rounds without re-entering the scheduler; it is pinned bit-identical
    to this one.

    ``record_exchanges=True`` additionally logs every medium-occupying
    frame exchange as ``(station, start_us, end_us, success)`` into
    :attr:`NetworkResult.exchanges` -- the observability hook the
    network invariant tests (airtime conservation, per-cell
    serialization) check against.
    """

    def __init__(self, scenario: NetworkScenario,
                 record_exchanges: bool = False) -> None:
        self._scenario = scenario
        self._assoc = _AssociationCore(scenario)
        self._exchanges: list[tuple[str, float, float, bool]] | None = (
            [] if record_exchanges else None
        )

    # ------------------------------------------------------------------
    # Hint Protocol delivery (``protocol`` mode)
    # ------------------------------------------------------------------
    def _deliver_hint(self, st: _StationRuntime, end_s: float,
                      success: bool) -> None:
        channel = st.channel
        assert channel is not None
        channel.publish(
            MovementHint(time_s=end_s, moving=st.advance_hint(end_s)))
        learned = channel.deliver(end_s, exchange_success=success)
        if learned is not None and isinstance(learned, MovementHint):
            st.hints_delivered += 1
            if learned.moving != st.last_learned:
                st.controller.on_hint(learned)
                st.last_learned = learned.moving

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    #: Saturated-round hook, tried on every pick that did not trigger a
    #: probe scan: ``_commit_rounds(stations, best_i, best_ready,
    #: next_scan_us, queue, rr)`` commits several exchanges from the
    #: pick and returns the new round-robin cursor (leaving ``queue``
    #: and the cell state as the per-exchange path would), or None to
    #: let the scheduler step the winner.  The reference steps one
    #: exchange per pick, so it has no hook and pays no per-pick call.
    _commit_rounds: Callable[..., int | None] | None = None

    def run(self) -> NetworkResult:
        scenario = self._scenario
        assoc = self._assoc
        cell_busy_us = assoc._cell_busy_us
        cell_members = assoc._cell_members
        exchanges = self._exchanges
        commit_rounds = self._commit_rounds
        stations = [_StationRuntime(scenario, i)
                    for i in range(scenario.n_stations)]
        n = len(stations)
        duration_us = scenario.duration_s * 1e6
        scan_step_us = scenario.scan_interval_s * 1e6
        next_scan_us = 0.0
        protocol_hints = scenario.hint_mode == "protocol"
        rr = 0  # round-robin cursor: rotates the tie-break after a win

        # Ready times live in a heap instead of an O(n) per-exchange
        # linear rescan; entries are refreshed only when a station's
        # state can change (its own step, a carrier-sense deferral, a
        # scan).  ``next_ready_us`` is re-queried at exactly those
        # points, so its bookkeeping side effects (end-of-trace
        # expiries, done transitions) still fire before the next pick,
        # as the linear scan's would have.
        queue = _ReadyQueue(n)
        for i in range(n):
            queue.update(i, stations[i].proc.next_ready_us())

        while True:
            best_i, best_ready = queue.pop_best(rr)
            if best_i < 0:
                break
            # Virtual time reached the next probe scan: associations
            # first, so the winner contends in its up-to-date cell.
            if next_scan_us <= best_ready and next_scan_us < duration_us:
                while next_scan_us <= best_ready \
                        and next_scan_us < duration_us:
                    assoc._scan(stations, next_scan_us / 1e6)
                    next_scan_us += scan_step_us
                # Handoffs re-cell stations and newcomer carrier sense
                # defers them; refresh every ready time (scans are rare).
                # The popped winner is stepped even if its clock moved.
                for i in range(n):
                    queue.update(i, stations[i].proc.next_ready_us())
            elif commit_rounds is not None:
                new_rr = commit_rounds(stations, best_i, best_ready,
                                       next_scan_us, queue, rr)
                if new_rr is not None:
                    rr = new_rr
                    continue

            st = stations[best_i]
            span = st.proc.step()
            if span is None:
                queue.update(best_i, st.proc.next_ready_us())
                continue
            start_us, end_us, success = span
            st.airtime_us += end_us - start_us
            if exchanges is not None:
                exchanges.append((st.spec.name, start_us, end_us, success))
            if st.bssid is not None:
                if end_us > cell_busy_us.get(st.bssid, 0.0):
                    cell_busy_us[st.bssid] = end_us
                # CSMA carrier sense: co-cell stations defer past the
                # winner's exchange (unassociated stations are not in
                # any cell and do not contend).
                for j in cell_members.get(st.bssid, ()):
                    other = stations[j]
                    if other is not st and not other.proc.done:
                        queue.update(j, other.proc.defer_and_ready(end_us))
            rr = (best_i + 1) % n
            if protocol_hints:
                self._deliver_hint(st, end_us / 1e6, success)
            queue.update(best_i, st.proc.next_ready_us())

        # Trailing probe scans: every station can finish its replay
        # (e.g. a stalled TCP source whose retransmission timeout
        # crosses the scenario end) with scan times still pending.
        # Those scans run like any other -- a station that walked into
        # a new cell after its last exchange still hands off, closing
        # (and training on) its previous association instead of
        # misattributing the whole tail as one censored lifetime.
        while next_scan_us < duration_us:
            assoc._scan(stations, next_scan_us / 1e6)
            next_scan_us += scan_step_us

        for st in stations:
            # End-of-run closes are censored (the association outlived
            # the scenario), so they are recorded but never trained on.
            assoc._close_association(st, scenario.duration_s, train=False)

        return NetworkResult(
            scenario=scenario,
            stations={st.spec.name: st.proc.result() for st in stations},
            handoffs=assoc._handoffs,
            association_events=assoc._events,
            censored_events=assoc._censored,
            airtime_us={st.spec.name: st.airtime_us for st in stations},
            hints_delivered={st.spec.name: st.hints_delivered
                             for st in stations},
            controllers={st.spec.name: st.controller for st in stations},
            scorer=assoc._scorer,
            exchanges=exchanges,
        )


def run_scenario(scenario: NetworkScenario) -> NetworkResult:
    """Replay a scenario on the engine it selects.

    ``engine="reference"`` (the default) runs :class:`NetworkSimulator`;
    ``engine="batch"`` runs its round-committing subclass
    (:class:`~repro.network.batch.NetworkBatchEngine`), bit-identical
    and much faster on dense cells.
    """
    if scenario.engine == "batch":
        from .batch import NetworkBatchEngine

        return NetworkBatchEngine(scenario).run()
    return NetworkSimulator(scenario).run()


def link_equivalent_result(scenario: NetworkScenario) -> SimResult:
    """The plain :class:`~repro.mac.LinkSimulator` run a 1-station /
    1-AP scenario must reproduce bit-for-bit.

    This is the network layer's defining invariant (and the reference
    side of the golden test): same trace, hint series, controller
    constructor, traffic model and :class:`~repro.mac.SimConfig` seed,
    replayed by the single-link fast engine with no network machinery.
    Only ``series`` and ``off`` hint modes qualify -- ``protocol`` mode
    feeds controllers over-the-air hints the link simulator cannot.
    """
    if scenario.n_stations != 1 or scenario.n_aps != 1:
        raise ValueError("the link-equivalence invariant is 1 station / 1 AP")
    if scenario.hint_mode == "protocol":
        raise ValueError("protocol hint mode has no single-link equivalent")
    spec = scenario.stations[0]
    seed = station_seed(scenario, 0)
    controller = RATE_PROTOCOLS[spec.protocol](seed)
    traffic = TcpSource() if spec.traffic == "tcp" else UdpSource()
    hints = station_hints(scenario, 0) if scenario.hint_mode == "series" else None
    return run_link(
        station_trace(scenario, 0),
        controller,
        traffic=traffic,
        hint_series=hints,
        config=SimConfig(seed=seed, hint_delay_s=scenario.hint_delay_s),
    )
