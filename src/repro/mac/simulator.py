"""Trace-driven 802.11a link simulator (the paper's modified ns-3 stand-in).

Replays a :class:`~repro.channel.trace.ChannelTrace` under a rate-control
algorithm and a traffic source, with real 802.11a timing: DIFS, backoff,
data airtime at the chosen rate, SIFS, ACK (or ACK timeout), retries with
contention-window doubling, and a retry limit after which the packet is
dropped (which a TCP source experiences as a timeout).

The simulator also feeds the sender side channels the paper grants:

* the receiver's movement hint (via the Hint Protocol), modelled as the
  receiver-side hint series delayed by ``hint_delay_s``; and
* up-to-date receiver SNR for the SNR-based protocols (Section 3.4
  "assumed that the sender has up-to-date knowledge about the receiver
  SNR"), modelled as the previous slot's SNR.

Controllers are duck-typed; :mod:`repro.rate.base` provides the ABC.

Engines
-------
Three replay engines share identical semantics and RNG streams, selected
by ``SimConfig(engine=...)``:

* ``"fast"`` (default) -- the hot path: a :class:`LinkProcess`
  drained on a free medium, the same resumable stepper the network
  simulator interleaves on a shared one.  Integer-microsecond clock,
  direct indexing into per-slot arrays materialised once per run (a
  flat slot-major fate table, SNR series, hint-transition edge list
  walked by a cursor), block-drawn randomness (backoff uniforms, floor-loss
  uniforms, SNR-noise normals refilled 1024 at a time), per-rate airtime
  tables, and a preallocated delivery-time buffer.
* ``"reference"`` -- the readable per-attempt loop, retained as the
  executable specification for equivalence testing.
* ``"batch"`` -- the :mod:`repro.mac.batch` array program that replays
  many links in lockstep (here, a batch of one).  Its reason to exist is
  grid executors -- :class:`repro.api.Session` plans wide enough grid
  groups onto it (``engine="auto"``) or forces every group onto it
  (``engine="batch"``); per-link results are bit-identical to the other
  engines.

Randomness is split into four independent streams spawned from
``SeedSequence(config.seed)`` -- calibration bias, SNR observation noise,
backoff, floor loss -- so both engines consume the exact same variates
regardless of draw batching (numpy ``Generator`` block draws are
stream-identical to repeated scalar draws).  ``run()`` re-derives the
streams on every call, so a simulator instance replays identically each
time.  The fast engine quantises traffic-source release times to whole
microseconds; both built-in sources only ever return whole microseconds,
so the engines agree exactly on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..channel.rates import N_RATES
from ..channel.trace import ChannelTrace
from ..core.architecture import HintSeries
from ..core.hints import MovementHint
from . import timing
from .traffic import TrafficSource, UdpSource

__all__ = [
    "ENGINES",
    "RateControllerLike",
    "SimConfig",
    "SimResult",
    "LinkSimulator",
    "LinkProcess",
    "run_link",
]

#: Replay engines accepted by :attr:`SimConfig.engine`.
ENGINES = ("fast", "reference", "batch")

#: Block size for the fast engine's batched RNG refills.
_RNG_BLOCK = 1024

_INF = float("inf")


@runtime_checkable
class RateControllerLike(Protocol):
    """Structural interface the simulator needs from a controller."""

    def choose_rate(self, now_ms: float) -> int: ...

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None: ...

    def observe_snr(self, snr_db: float, now_ms: float) -> None: ...

    def on_hint(self, hint: MovementHint) -> None: ...


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the link simulator."""

    payload_bytes: int = 1000
    retry_limit: int = 7
    #: Sender-side hint latency: detector latency lives in the hint
    #: series itself; this adds Hint Protocol delivery delay.
    hint_delay_s: float = 0.02
    #: Give the controller the previous slot's receiver SNR each attempt.
    snr_feedback: bool = True
    #: Per-frame SNR measurement noise (dB std).  Real chipset RSSI is
    #: quantised and noisy; this is what CHARM's averaging smooths away
    #: and what makes raw RBAR jittery on a stable channel.
    snr_obs_noise_db: float = 1.5
    #: Per-run systematic SNR calibration error (dB std of a fixed
    #: offset).  A scalar SNR imperfectly predicts PER under
    #: frequency-selective fading, so even an environment-trained
    #: SNR->rate mapping is biased by a couple of dB on any given link;
    #: CHARM's adaptive margin partially compensates, RBAR eats it.
    snr_calibration_error_db: float = 1.5
    #: Per-attempt loss floor on top of the trace's per-slot
    #: interference floor: collisions and noise bursts hit individual
    #: transmissions, not whole 5 ms slots.  Isolated attempt losses
    #: are exactly what "aggressively reduces the rate even with a
    #: single loss" (Section 3.5) pays for on a stable channel.
    floor_loss_prob: float = 0.01
    #: Include random backoff (contention-window draw) per attempt.
    use_backoff: bool = True
    #: Driver-level multi-rate retry chain (MadWiFi-style): after this
    #: many failed attempts at the controller's rate, each further retry
    #: steps one rate lower.  0 disables the ladder.
    retry_ladder_after: int = 5
    seed: int = 0
    #: Replay engine: ``"fast"`` (the :class:`LinkProcess` hot path),
    #: ``"reference"`` (the per-attempt specification loop) or
    #: ``"batch"`` (the :mod:`repro.mac.batch` array program, a batch of
    #: one).  Results are identical.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        # Every engine must see the same well-defined replay: NaN or a
        # negative value here would silently disable a mechanism on one
        # engine and raise mid-replay on another.
        for name in ("hint_delay_s", "snr_obs_noise_db",
                     "snr_calibration_error_db"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}")
        if not 0.0 <= self.floor_loss_prob <= 1.0:
            raise ValueError(
                f"floor_loss_prob must be in [0, 1], "
                f"got {self.floor_loss_prob!r}")
        for name in ("retry_limit", "retry_ladder_after"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.payload_bytes < 1:
            raise ValueError(
                f"payload_bytes must be at least 1, got {self.payload_bytes!r}")


@dataclass
class SimResult:
    """Outcome of one replay."""

    duration_s: float
    delivered: int
    dropped: int
    attempts: int
    payload_bytes: int
    rate_attempts: np.ndarray
    rate_successes: np.ndarray
    #: Delivery timestamps (s), for throughput-over-time series.
    delivery_times_s: np.ndarray

    @property
    def packets_offered(self) -> int:
        """Payload packets the MAC finished serving (delivered or dropped).

        A packet still in flight when the trace ends counts as dropped,
        so ``delivered + dropped`` accounts for every packet the traffic
        source released.
        """
        return self.delivered + self.dropped

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.delivered * self.payload_bytes * 8.0 / self.duration_s / 1e6

    @property
    def loss_rate(self) -> float:
        total = self.packets_offered
        return self.dropped / total if total else 0.0

    @property
    def attempts_per_packet(self) -> float:
        total = self.packets_offered
        return self.attempts / total if total else 0.0

    def throughput_series_mbps(self, bucket_s: float = 1.0) -> np.ndarray:
        """Per-bucket delivered throughput (for Figure 5-1 style plots)."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        n_buckets = int(np.ceil(self.duration_s / bucket_s))
        if n_buckets <= 0:
            return np.zeros(0)
        counts = np.zeros(n_buckets)
        times = np.asarray(self.delivery_times_s, dtype=np.float64)
        if times.size:
            idx = np.minimum((times / bucket_s).astype(int), n_buckets - 1)
            np.add.at(counts, idx, 1.0)
        return counts * self.payload_bytes * 8.0 / bucket_s / 1e6


def _airtime_tables(
    payload_bytes: int,
) -> tuple[list, list, int | float, list[int]]:
    """Per-rate airtime tables in whole microseconds (fast-path setup).

    802.11a airtimes are integral; exact floats are kept if a custom
    timing table ever makes them fractional.  Returns
    ``(ok_us, fail_us, slot_time_us, cw_plus1)``.
    """
    def _exact(us: float) -> int | float:
        return int(us) if float(us).is_integer() else us

    ok_us = [_exact(timing.exchange_airtime_us(r, payload_bytes))
             for r in range(N_RATES)]
    fail_us = [_exact(timing.failed_exchange_us(r, payload_bytes))
               for r in range(N_RATES)]
    slot_time_us = _exact(timing.SLOT_TIME_US)
    cw_plus1 = [timing.contention_window(r) + 1 for r in range(16)]
    return ok_us, fail_us, slot_time_us, cw_plus1


def _hint_edges(series: HintSeries) -> tuple[list[float], list[bool]]:
    """Hint-transition edge list: (time, new truth value) pairs.

    Collapses :meth:`HintSeries.edges` to its *boolean* transitions;
    walking this list with a cursor reproduces
    ``bool(HintSeries.value_at(t, default=False))`` for monotonically
    non-decreasing ``t``.  The kept samples are the first one plus every
    one whose truth value differs from its predecessor's, found with
    array ops instead of a Python loop over the dense series.
    """
    times = np.asarray(series.times_s, dtype=np.float64)
    if not len(times):
        return [], []
    vals = np.asarray(series.values).astype(bool)
    keep = np.concatenate([[True], vals[1:] != vals[:-1]])
    return times[keep].tolist(), vals[keep].tolist()


def _rng_streams(
    seed: int,
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator,
           np.random.Generator]:
    """Four independent per-purpose streams for one replay.

    Splitting by purpose (rather than interleaving one stream) is what
    lets the fast engine batch its draws while staying bit-identical to
    the reference loop.
    """
    bias_ss, snr_ss, backoff_ss, floor_ss = np.random.SeedSequence(seed).spawn(4)
    return (
        np.random.default_rng(bias_ss),
        np.random.default_rng(snr_ss),
        np.random.default_rng(backoff_ss),
        np.random.default_rng(floor_ss),
    )


def _calibration_bias_db(cfg: SimConfig, bias_rng: np.random.Generator) -> float:
    """The run's fixed SNR calibration offset (dB), drawn once per replay."""
    if cfg.snr_calibration_error_db > 0:
        return float(bias_rng.standard_normal() * cfg.snr_calibration_error_db)
    return 0.0


class LinkSimulator:
    """One sender, one receiver, one trace, one controller."""

    def __init__(
        self,
        trace: ChannelTrace,
        controller: RateControllerLike,
        traffic: TrafficSource | None = None,
        hint_series: HintSeries | None = None,
        config: SimConfig | None = None,
    ) -> None:
        self._trace = trace
        self._controller = controller
        self._traffic = traffic if traffic is not None else UdpSource()
        self._hints = hint_series
        self._config = config if config is not None else SimConfig()

    def run(self) -> SimResult:
        if self._config.engine == "reference":
            return self._run_reference()
        if self._config.engine == "batch":
            # A batch of one: same array program the grid executors use.
            from .batch import BatchLinkSpec, run_batch

            return run_batch([BatchLinkSpec(
                trace=self._trace,
                controller=self._controller,
                traffic=self._traffic,
                hint_series=self._hints,
                config=self._config,
            )])[0]
        return LinkProcess(self._trace, self._controller, self._traffic,
                           self._hints, self._config).run_to_completion()

    # ------------------------------------------------------------------
    # Reference engine: the executable specification
    # ------------------------------------------------------------------
    def _run_reference(self) -> SimResult:
        cfg = self._config
        trace = self._trace
        bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
        snr_bias_db = _calibration_bias_db(cfg, bias_rng)
        duration_us = trace.duration_s * 1e6
        t_us = 0.0
        delivered = 0
        dropped = 0
        attempts_total = 0
        rate_attempts = np.zeros(N_RATES, dtype=np.int64)
        rate_successes = np.zeros(N_RATES, dtype=np.int64)
        delivery_times: list[float] = []
        last_hint: bool | None = None

        while t_us < duration_us:
            send_at = self._traffic.next_send_time_us(t_us)
            if send_at > t_us:
                if send_at >= duration_us or send_at == _INF:
                    break
                t_us = send_at
                continue

            # Serve one payload packet: attempts until ACK or retry limit.
            retries = 0
            while True:
                now_s = t_us / 1e6
                now_ms = t_us / 1e3

                if self._hints is not None:
                    hinted = bool(
                        self._hints.value_at(now_s - cfg.hint_delay_s, default=False)
                    )
                    if hinted != last_hint:
                        self._controller.on_hint(
                            MovementHint(time_s=now_s, moving=hinted)
                        )
                        last_hint = hinted

                if cfg.snr_feedback:
                    prev_slot_t = max(0.0, now_s - trace.slot_s)
                    observed = trace.snr_at(prev_slot_t) + snr_bias_db
                    if cfg.snr_obs_noise_db > 0:
                        observed += cfg.snr_obs_noise_db * snr_rng.standard_normal()
                    self._controller.observe_snr(observed, now_ms)

                rate = int(self._controller.choose_rate(now_ms))
                if not 0 <= rate < N_RATES:
                    raise ValueError(f"controller chose invalid rate {rate}")
                if cfg.retry_ladder_after > 0 and retries > cfg.retry_ladder_after:
                    # Driver retry chain: step below the chosen rate once
                    # the configured attempts are exhausted.
                    rate = max(0, rate - (retries - cfg.retry_ladder_after))

                if cfg.use_backoff:
                    cw = timing.contention_window(retries)
                    slots = int(backoff_rng.random() * (cw + 1))
                    t_us += float(slots) * timing.SLOT_TIME_US
                success = trace.fate(t_us / 1e6, rate)
                if success and cfg.floor_loss_prob > 0:
                    success = floor_rng.random() >= cfg.floor_loss_prob
                if success:
                    t_us += timing.exchange_airtime_us(rate, cfg.payload_bytes)
                else:
                    t_us += timing.failed_exchange_us(rate, cfg.payload_bytes)

                attempts_total += 1
                rate_attempts[rate] += 1
                self._controller.on_result(rate, success, t_us / 1e3)

                if success:
                    rate_successes[rate] += 1
                    delivered += 1
                    delivery_times.append(t_us / 1e6)
                    self._traffic.on_delivered(t_us)
                    break
                retries += 1
                if retries > cfg.retry_limit:
                    dropped += 1
                    self._traffic.on_dropped(t_us)
                    break
                if t_us >= duration_us:
                    # Trace ended mid-service: the in-flight packet was
                    # offered but never ACKed, so it counts as dropped
                    # (no traffic timeout -- the run is over).
                    dropped += 1
                    break

        return SimResult(
            duration_s=trace.duration_s,
            delivered=delivered,
            dropped=dropped,
            attempts=attempts_total,
            payload_bytes=cfg.payload_bytes,
            rate_attempts=rate_attempts,
            rate_successes=rate_successes,
            delivery_times_s=np.asarray(delivery_times, dtype=np.float64),
        )


class LinkProcess:
    """Resumable single-link replay: the fast engine, one exchange at a time.

    This is the ``"fast"`` engine: :meth:`LinkSimulator.run` drains a
    process on a free medium with :meth:`run_to_completion`.  The
    network simulator (:mod:`repro.network`) interleaves many links on a
    shared medium, so it drives the same loop *inverted*: :meth:`step`
    performs exactly one unit of work -- an idle advance to the traffic
    source's next release or one frame-exchange attempt -- and returns
    control to the caller.  Both run the one loop, :meth:`_run`.

    Semantics and RNG-stream consumption are identical to the reference
    engine, so a 1-station/1-AP network scenario is a strict
    generalisation of the single-link simulator (pinned by
    ``tests/test_network.py``).  A process stepped any number of times
    and then drained produces the same :class:`SimResult` as one drained
    from the start.

    CSMA hooks
    ----------
    * :meth:`next_ready_us` -- the earliest time this station wants the
      medium (``inf`` once the replay is over).  May peek at the traffic
      source; sources must therefore be idempotent for repeated queries
      at the same instant (both built-ins are).
    * :meth:`defer_until` -- carrier sense: another station occupies the
      medium, so this station's clock cannot start an exchange earlier.
    """

    def __init__(
        self,
        trace: ChannelTrace,
        controller: RateControllerLike,
        traffic: TrafficSource | None = None,
        hint_series: HintSeries | None = None,
        config: SimConfig | None = None,
    ) -> None:
        cfg = config if config is not None else SimConfig()
        traffic = traffic if traffic is not None else UdpSource()
        self._trace = trace
        self._traffic = traffic
        self._config = cfg
        self._duration_us = trace.duration_s * 1e6

        bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
        if hint_series is not None:
            hint_times, hint_vals = _hint_edges(hint_series)
        else:
            hint_times, hint_vals = [], []
        self._rate_attempts = [0] * N_RATES
        self._rate_successes = [0] * N_RATES
        ok_us, fail_us, slot_time_us, cw_plus1 = _airtime_tables(
            cfg.payload_bytes)
        # Everything the loop reads but never rebinds, unpacked in one
        # statement per _run call: the network scheduler steps one
        # exchange per call, so per-attribute loads would dominate.
        # The last three are the block-drawn randomness buffers (backoff,
        # floor loss, SNR noise): each holds a reversed block so
        # list.pop() (a C call, no Python frame) yields draws in
        # generator order; popping an empty buffer triggers an in-place
        # refill via IndexError (~1/block).
        self._consts = (
            traffic.next_send_time_us, traffic.on_delivered,
            traffic.on_dropped, controller.observe_snr,
            controller.choose_rate, controller.on_result, controller.on_hint,
            self._duration_us, trace.fates.ravel().tolist(),
            trace.snr_db.tolist(), trace.slot_s, trace.n_slots - 1,
            ok_us, fail_us, slot_time_us, cw_plus1,
            hint_series is not None, hint_times, hint_vals, len(hint_times),
            cfg.hint_delay_s, cfg.snr_feedback,
            _calibration_bias_db(cfg, bias_rng), cfg.snr_obs_noise_db,
            cfg.floor_loss_prob, cfg.use_backoff, cfg.retry_ladder_after,
            cfg.retry_limit, snr_rng, backoff_rng, floor_rng,
            self._rate_attempts, self._rate_successes, [], [], [],
        )

        self._hint_i = 0
        self._hint_cur = False                  # value_at default
        self._last_hint: bool | None = None

        self._delivery_buf = np.empty(4096, dtype=np.float64)
        self._n_deliv = 0
        self._dropped = 0

        self._t: int | float = 0                # integer microseconds
        self._serving = False
        self._retries = 0
        self._done = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def now_us(self) -> float:
        """The station's local clock (integer microseconds)."""
        return self._t

    def next_ready_us(self) -> float:
        """Earliest time this station wants the medium (inf when over)."""
        return self.defer_and_ready(-_INF)

    def defer_until(self, t_us: float) -> None:
        """Carrier sense: the medium is busy until ``t_us``."""
        if t_us > self._t:
            # Round up: starting mid-microsecond would overlap the
            # tail of the busy exchange if airtimes are fractional.
            busy_until = int(t_us)
            if busy_until < t_us:
                busy_until += 1
            self._t = busy_until

    def defer_and_ready(self, t_us: float) -> float:
        """:meth:`defer_until` fused with :meth:`next_ready_us`.

        The network scheduler's carrier-sense path touches every
        co-cell contender on every exchange; fusing the two calls
        halves its per-station method-call overhead.  Semantics are
        exactly ``defer_until(t_us)`` followed by ``next_ready_us()``.
        """
        t = self._t
        if t_us > t:
            busy_until = int(t_us)
            if busy_until < t_us:
                busy_until += 1
            self._t = t = busy_until
        if self._done:
            return _INF
        if self._serving:
            if t >= self._duration_us:
                self._expire_in_flight()
                return _INF
            return float(t)
        if t >= self._duration_us:
            self._done = True
            return _INF
        send_at = self._traffic.next_send_time_us(t)
        if send_at <= t:
            return float(t)
        if send_at >= self._duration_us or send_at == _INF:
            self._done = True
            return _INF
        return float(send_at)

    def resync_hints(self) -> None:
        """Forget the last delivered hint, re-delivering the current one.

        After a fresh association the controller was reset, so the
        sender-side hint state must be re-learned: the next attempt
        fires ``on_hint`` with the currently hinted value even if the
        series has no new transition.
        """
        self._last_hint = None

    def step(self) -> tuple[float, float, bool] | None:
        """Advance by one unit of work.

        Returns ``(start_us, end_us, success)`` when a frame-exchange
        attempt occupied the medium, or ``None`` for an idle advance /
        end-of-replay bookkeeping.
        """
        return self._run(True)

    def _expire_in_flight(self) -> None:
        """Drop the in-service packet at trace end (no traffic timeout)."""
        self._dropped += 1
        self._serving = False
        self._done = True

    def run_to_completion(self) -> SimResult:
        """Drain the process on a free medium (the ``"fast"`` engine)."""
        self._run(False)
        return self.result()

    # ------------------------------------------------------------------
    def _run(self, single: bool) -> tuple[float, float, bool] | None:
        """The replay loop: one unit of work (``single``) or to the end.

        Cursors and counters live in locals for the loop and are stored
        back once on exit; the rare end-of-replay and drop transitions
        write ``self`` directly.  The RNG buffers are refilled in place;
        the delivery buffer is rebound on ``self`` only where it grows.
        """
        if self._done:
            return None
        (next_send_time_us, on_delivered, on_dropped, observe_snr,
         choose_rate, on_result, on_hint, duration_us, fates,
         snr_series, slot_s, last_slot, ok_us, fail_us, slot_time_us,
         cw_plus1, have_hints, hint_times, hint_vals, hint_n, hint_delay_s,
         snr_feedback, snr_bias_db, noise_db, floor_p, use_backoff,
         ladder_after, retry_limit, snr_rng, backoff_rng, floor_rng,
         rate_attempts, rate_successes, backoff_buf, floor_buf,
         noise_buf) = self._consts
        t = self._t
        serving = self._serving
        retries = self._retries
        hint_i = self._hint_i
        hint_cur = self._hint_cur
        last_hint = self._last_hint
        delivery_buf = self._delivery_buf
        n_deliv = self._n_deliv
        span = None

        while True:
            if not serving:
                if t >= duration_us:
                    self._done = True
                    break
                send_at = next_send_time_us(t)
                if send_at > t:
                    if send_at >= duration_us or send_at == _INF:
                        self._done = True
                        break
                    t = int(send_at)
                    if single:
                        break
                    continue
                serving = True
                retries = 0
            elif t >= duration_us:
                # Trace ended mid-service -- the last attempt failed past
                # it, or a contender's exchange deferred this station
                # past it: the in-flight packet was offered but never
                # ACKed, so it counts as dropped (no traffic timeout --
                # the run is over) instead of transmitting into a world
                # that no longer exists.
                self._dropped += 1
                serving = False
                self._done = True
                break

            start = t
            now_s = t / 1e6
            now_ms = t / 1e3

            # Guarded like the reference (series present, even if
            # edgeless): an empty series still delivers the initial
            # False once.
            if have_hints:
                q = now_s - hint_delay_s
                while hint_i < hint_n and hint_times[hint_i] <= q:
                    hint_cur = hint_vals[hint_i]
                    hint_i += 1
                if hint_cur != last_hint:
                    on_hint(MovementHint(time_s=now_s, moving=hint_cur))
                    last_hint = hint_cur

            if snr_feedback:
                prev_slot_t = now_s - slot_s
                if prev_slot_t < 0.0:
                    prev_slot_t = 0.0
                slot = int(prev_slot_t / slot_s)
                if slot > last_slot:
                    slot = last_slot
                observed = snr_series[slot] + snr_bias_db
                if noise_db > 0:
                    try:
                        z = noise_buf.pop()
                    except IndexError:
                        noise_buf += snr_rng.standard_normal(
                            _RNG_BLOCK)[::-1].tolist()
                        z = noise_buf.pop()
                    observed += noise_db * z
                observe_snr(observed, now_ms)

            rate = int(choose_rate(now_ms))
            if not 0 <= rate < N_RATES:
                raise ValueError(f"controller chose invalid rate {rate}")
            if 0 < ladder_after < retries:
                # Driver retry chain: step below the chosen rate once the
                # configured attempts are exhausted.
                rate = rate - (retries - ladder_after)
                if rate < 0:
                    rate = 0

            if use_backoff:
                try:
                    u = backoff_buf.pop()
                except IndexError:
                    backoff_buf += backoff_rng.random(
                        _RNG_BLOCK)[::-1].tolist()
                    u = backoff_buf.pop()
                cw1 = cw_plus1[retries if retries < 15 else 15]
                t += int(u * cw1) * slot_time_us
            slot = int((t / 1e6) / slot_s)
            if slot > last_slot:
                slot = last_slot
            success = fates[slot * N_RATES + rate]
            if success and floor_p > 0:
                try:
                    u = floor_buf.pop()
                except IndexError:
                    floor_buf += floor_rng.random(
                        _RNG_BLOCK)[::-1].tolist()
                    u = floor_buf.pop()
                success = u >= floor_p
            t += ok_us[rate] if success else fail_us[rate]

            rate_attempts[rate] += 1
            on_result(rate, success, t / 1e3)

            if success:
                rate_successes[rate] += 1
                if n_deliv == len(delivery_buf):
                    delivery_buf = self._delivery_buf = np.concatenate(
                        [delivery_buf, np.empty_like(delivery_buf)])
                delivery_buf[n_deliv] = t / 1e6
                n_deliv += 1
                on_delivered(t)
                serving = False
            else:
                retries += 1
                if retries > retry_limit:
                    self._dropped += 1
                    on_dropped(t)
                    serving = False
            if single:
                span = (start, t, success)
                break

        self._t = t
        self._serving = serving
        self._retries = retries
        self._hint_i = hint_i
        self._hint_cur = hint_cur
        self._last_hint = last_hint
        self._n_deliv = n_deliv
        return span

    def result(self) -> SimResult:
        """Snapshot of the replay outcome (complete once :attr:`done`)."""
        return SimResult(
            duration_s=self._trace.duration_s,
            delivered=self._n_deliv,
            dropped=self._dropped,
            attempts=sum(self._rate_attempts),
            payload_bytes=self._config.payload_bytes,
            rate_attempts=np.asarray(self._rate_attempts, dtype=np.int64),
            rate_successes=np.asarray(self._rate_successes, dtype=np.int64),
            delivery_times_s=self._delivery_buf[: self._n_deliv].copy(),
        )


def run_link(
    trace: ChannelTrace,
    controller: RateControllerLike,
    traffic: TrafficSource | None = None,
    hint_series: HintSeries | None = None,
    config: SimConfig | None = None,
) -> SimResult:
    """Convenience wrapper: build and run a :class:`LinkSimulator`."""
    return LinkSimulator(trace, controller, traffic, hint_series, config).run()
