"""Batch scenario engine: the reference scheduler plus saturated rounds.

:class:`~repro.network.simulator.NetworkSimulator` (the reference
engine) re-enters its scheduler after every frame exchange: pop the
winner, step its :class:`~repro.mac.LinkProcess`, then walk every
co-cell contender to defer it past the exchange.  In a cell where every
live station offers saturated UDP and all clocks are tied, each exchange
re-ties all contenders at its end, so the winner sequence is pure
round-robin and the per-exchange deferral walk only re-derives what is
already known.

:class:`NetworkBatchEngine` is that scheduler with one override,
:meth:`~NetworkBatchEngine._commit_rounds`: on such a pick it steps the
stations' own :class:`~repro.mac.LinkProcess` objects in rotation order,
each starting where the previous exchange ended, and settles the
contenders' deferrals once at the barrier -- the next probe scan or a
station reaching its trace end.  Stations, controllers, hint delivery
and association are the reference engine's, so there is one copy of
the MAC semantics.  ``dense_cell`` -- 20 saturated stations in one cell
-- runs >=3x faster than the reference scheduler this way (pinned by
``benchmarks/test_bench_network.py``).

Select with ``NetworkScenario(engine="batch")``; results are pinned
bit-identical to the reference engine on the full golden scenario
catalog (``tests/test_network_batch.py``).  :func:`rounds_can_commit`
is the structural rule ``Session(engine="auto")`` uses to pick it.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import cycle

from .scenario import NetworkScenario
from .simulator import NetworkSimulator, _ReadyQueue, _StationRuntime

__all__ = ["NetworkBatchEngine", "rounds_can_commit"]

_INF = float("inf")


def rounds_can_commit(scenario: NetworkScenario) -> bool:
    """Whether a scenario suits :class:`NetworkBatchEngine` (the
    ``auto`` rule): one AP and only UDP stations.

    A round needs every live station offering UDP in the winner's cell,
    which such a scenario has between scans.  With several APs or any
    TCP station the hook runs on every pick and mostly finds nothing to
    commit, which measured slightly slower than the reference scheduler.
    """
    return scenario.n_aps == 1 and all(
        st.traffic == "udp" for st in scenario.stations)


class NetworkBatchEngine(NetworkSimulator):
    """Replay one scenario, committing saturated rounds in one pass."""

    def _commit_rounds(self, stations: list[_StationRuntime], best_i: int,
                       best_ready: float, next_scan_us: float,
                       queue: _ReadyQueue, rr: int) -> int | None:
        """Commit round-robin rounds from a tied saturated-UDP cell.

        Eligible when every live station is a saturated-UDP member of
        the winner's cell with its clock at ``best_ready``.  Stations
        then transmit in ``(i - rr) % n`` order, each deferred to the
        previous exchange's end, until the next scan time or a station
        whose turn starts at or past its trace end.  At the barrier the
        contenders' pending deferrals (and any end-of-trace expiries)
        are applied through the same ``LinkProcess`` calls the reference
        makes per exchange (a no-op deferral for the last winner, whose
        clock is already there): UDP sources are stateless, so only the
        final deferral is observable.
        """
        bssid = stations[best_i].bssid
        if bssid is None:
            return None
        live = []
        for st in stations:
            if st.proc.done:
                continue
            if st.spec.traffic != "udp" or st.bssid != bssid \
                    or st.proc.now_us != best_ready:
                return None
            live.append(st)
        # The winner heads the rotation; it is ready before the next
        # scan and its trace end, so at least one exchange commits.
        cut = bisect_left([st.index for st in live], rr)
        order = live[cut:] + live[:cut]
        procs = [st.proc for st in order]
        runs = [proc._run for proc in procs]
        ends = [proc._duration_us for proc in procs]
        airtime = [st.airtime_us for st in order]
        log = self._exchanges
        names = [st.spec.name for st in order]
        deliver = (self._deliver_hint
                   if self._scenario.hint_mode == "protocol" else None)
        scan_us = next_scan_us \
            if next_scan_us < self._scenario.duration_s * 1e6 else _INF
        t = procs[0].now_us
        for k, proc, run, stop_us in cycle(zip(range(len(order)), procs,
                                                runs, ends)):
            if t >= scan_us or t >= stop_us:
                break
            proc._t = t
            start, end, success = run(True)
            airtime[k] += end - start
            if log is not None:
                log.append((names[k], start, end, success))
            if deliver is not None:
                deliver(order[k], end / 1e6, success)
            # defer_until's round-up rule for the next station's start.
            t = int(end)
            if t < end:
                t += 1
        for j, st in enumerate(order):
            st.airtime_us = airtime[j]
            queue.update(st.index, procs[j].defer_and_ready(end))
        busy = self._assoc._cell_busy_us
        if end > busy.get(bssid, 0.0):
            busy[bssid] = end
        # order[k] is where the barrier stopped; the station before it
        # (cyclically) won the last exchange.
        return (order[k - 1].index + 1) % len(stations)
