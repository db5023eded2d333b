"""Vectorized batch replay engine: many links in lockstep as array programs.

:class:`LinkSimulator`'s engines replay one link at a time; experiment
grids replay *hundreds* of independent links that differ only in trace,
controller and seed.  :class:`BatchLinkEngine` holds the state of B such
links as structure-of-arrays (per-link integer-microsecond clock, retry
counter, hint cursor, RNG buffer cursors) and advances all of them one
frame-exchange attempt per step with NumPy, consulting the links'
controllers through a :class:`~repro.rate.base.BatchRateAdapter`
(vectorized for fixed-rate/RapidSample/hint-aware, a per-controller loop
for everything else).

Bit identity
------------
Every link's outcome is *bit-identical* to replaying it alone with the
``fast``/``reference`` engines (pinned by ``tests/test_batch_engine.py``
and the differential fuzz suite in ``tests/test_engine_equivalence.py``):

* RNG streams are per-link and keyed by each link's own config seed
  (:func:`repro.mac.simulator._rng_streams`), never by batch position,
  and are consumed in the same block sizes as the fast engine;
* float arithmetic follows the fast engine's expressions operation for
  operation (``t / 1e6`` divisions, truncating casts, the
  ``(snr + bias) + noise*z`` association);
* hint-edge comparisons are precomputed into *integer-microsecond*
  thresholds that fire at exactly the clock tick where the fast
  engine's float comparison flips;
* the SNR-observation stream is skipped entirely when the adapter
  reports the controllers ignore SNR -- the draws would be unobservable,
  so results are unchanged.

Success-run cruise
------------------
The per-step cost is NumPy call overhead, so the engine amortises it by
*cruising*: for links whose adapter exposes a
:class:`~repro.rate.base.CruiseView` (and which are saturated-UDP,
retry-free and hint-quiet), a success leaves the controller state
untouched, so a prefix of consecutive successes can be validated and
committed as one ``(B, k)`` tableau -- backoffs and airtimes by cumsum,
fates/floor draws/sample-up deadlines checked vectorized -- before the
general single-attempt step handles whatever broke the run.  A cruising
batch retires several attempts per NumPy step instead of one.

Use :func:`run_batch` (or ``SimConfig(engine="batch")`` for a batch of
one); it partitions arbitrary spec lists into engine-compatible groups
and falls back to the fast engine for specs the array program cannot
express (e.g. fractional airtimes from exotic payload sizes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from ..channel.trace import ChannelTrace
from ..core.architecture import HintSeries
from . import timing
from .simulator import (
    _RNG_BLOCK,
    SimConfig,
    SimResult,
    _airtime_tables,
    _hint_edges,
    _rng_streams,
    RateControllerLike,
)
from .traffic import TrafficSource, UdpSource

__all__ = ["BatchLinkSpec", "BatchLinkEngine", "run_batch"]

_INF = float("inf")

#: Sentinel for "no further hint edge" (comfortably past any clock).
_FAR = np.int64(2**62)

#: Rolling RNG buffer geometry: generators refill whole blocks in place
#: while cursors wander ahead of the first block boundary.
_W = 4 * _RNG_BLOCK

#: Cruise tableau depth: attempts speculated per link per pass.  Deep
#: enough to swallow a whole RapidSample inter-sample success run
#: (~10 ms of exchanges) in one tableau; one deep pass beats several
#: shallow ones because every pass pays full NumPy dispatch overhead.
_CRUISE_K = 24

#: Smallest adaptive tableau depth: still deep enough to commit a
#: typical short success run in one pass.
_CRUISE_K_MIN = 6

#: Cruise passes per engine step.  Terminal commits resolve sample-up
#: events in-pass, so extra passes chain run after run -- but only pay
#: while the whole batch is committing in bulk (fixed-rate and other
#: long-run regimes); the average-productivity exit in the run loop
#: stops chaining the moment a pass stops earning its dispatch cost.
_CRUISE_ITERS = 2

#: General-step repetitions per engine step for saturated-UDP batches:
#: links stuck in low-success regimes (where cruise cannot help) retire
#: several attempts per round, amortising the loop's fixed dispatch cost.
_EVENT_REPS = 2

#: Engine steps a cruise sits out after an unproductive pass (one that
#: committed fewer attempts than there are live links).  Skipping never
#: changes results -- cruise pre-commits exactly the attempts the
#: general step would retire -- it only stops paying tableau overhead
#: in loss-heavy regimes where success runs stay short.
_CRUISE_BACKOFF = 4

#: Worst-case RNG draws per row per engine step (cruise + general).
_STEP_DRAWS = _CRUISE_ITERS * _CRUISE_K + _EVENT_REPS

#: Steps between RNG-cursor scans, sized so reads stay inside ``_W``
#: even if every step consumes the worst case (cursors are below one
#: block right after a refill).
_REFILL_CD = max(1, (_W - _RNG_BLOCK - _CRUISE_K - _STEP_DRAWS) // _STEP_DRAWS)


@dataclass(frozen=True)
class BatchLinkSpec:
    """One link of a batch: the arguments of :func:`repro.mac.run_link`."""

    trace: ChannelTrace
    controller: RateControllerLike
    traffic: TrafficSource | None = None
    hint_series: HintSeries | None = None
    config: SimConfig | None = None

    def resolved(self) -> "BatchLinkSpec":
        return replace(
            self,
            traffic=self.traffic if self.traffic is not None else UdpSource(),
            config=self.config if self.config is not None else SimConfig(),
        )


def _edge_threshold_us(edge_t: float, delay_s: float) -> int:
    """Smallest integer-µs clock t with ``edge_t <= t/1e6 - delay_s``.

    Replicates the fast engine's float comparison exactly: the condition
    is monotone in t (``t/1e6`` is nondecreasing), so the flip point is
    found by a short walk around the algebraic guess.
    """
    guess = int(math.ceil((edge_t + delay_s) * 1e6))
    t = max(guess - 4, 0)
    while not edge_t <= t / 1e6 - delay_s:
        t += 1
    while t > 0 and edge_t <= (t - 1) / 1e6 - delay_s:
        t -= 1
    return t


def _integral_timing(payload_bytes: int) -> bool:
    """Whether all airtimes and the slot time are whole microseconds."""
    ok_us, fail_us, slot_time_us, _ = _airtime_tables(payload_bytes)
    return all(isinstance(v, int) for v in ok_us + fail_us + [slot_time_us])


class BatchLinkEngine:
    """Replay B links in lockstep.  Build via :func:`run_batch`.

    All specs must share the config *flags* (backoff on/off, SNR
    feedback, noise/calibration/floor-loss zero vs nonzero, ladder
    enabled); scalar knob values, traces, seeds, durations and
    controller classes may differ per link (mixed classes ride a
    :class:`~repro.rate.base.CompositeBatchAdapter`, without cruise).
    :func:`run_batch` partitions arbitrary spec lists into such groups.
    """

    def __init__(self, specs: Sequence[BatchLinkSpec]) -> None:
        from ..rate.base import make_batch_adapter

        specs = [s.resolved() for s in specs]
        n = len(specs)
        self._n = n
        cfgs = [s.config for s in specs]
        cfg0 = cfgs[0]

        # --- uniform flags (enforced by run_batch's partitioning) -----
        self._use_backoff = bool(cfg0.use_backoff)
        self._snr_feedback = bool(cfg0.snr_feedback)
        self._noise_on = cfg0.snr_obs_noise_db > 0
        self._floor_on = cfg0.floor_loss_prob > 0
        self._ladder_on = cfg0.retry_ladder_after > 0

        # --- adapter ---------------------------------------------------
        self._adapter = make_batch_adapter([s.controller for s in specs])
        self._uses_snr = bool(self._adapter.uses_snr)
        self._observe = self._snr_feedback and self._uses_snr
        self._needs_time = bool(getattr(self._adapter, "needs_choose_time", True))

        # --- per-link RNG streams (keyed by each link's seed) ----------
        self._bk_rng = []
        self._fl_rng = []
        self._nz_rng = []
        bias = np.zeros(n)
        for i, cfg in enumerate(cfgs):
            bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
            self._bk_rng.append(backoff_rng)
            self._fl_rng.append(floor_rng)
            self._nz_rng.append(snr_rng)
            if cfg.snr_calibration_error_db > 0:
                bias[i] = bias_rng.standard_normal() * cfg.snr_calibration_error_db
        self._bias = bias

        def fill(rngs, normal=False):
            buf = np.empty((n, _W))
            for i, rng in enumerate(rngs):
                draw = rng.standard_normal if normal else rng.random
                for start in range(0, _W, _RNG_BLOCK):
                    buf[i, start:start + _RNG_BLOCK] = draw(_RNG_BLOCK)
            return buf.reshape(-1)

        if self._use_backoff:
            self._bk_flat = fill(self._bk_rng)
            self._bk_pos = np.zeros(n, dtype=np.int64)
        if self._floor_on:
            self._fl_flat = fill(self._fl_rng)
            self._fl_pos = np.zeros(n, dtype=np.int64)
        if self._observe and self._noise_on:
            self._nz_flat = fill(self._nz_rng, normal=True)
            self._nz_pos = np.zeros(n, dtype=np.int64)

        # --- traces, flattened ----------------------------------------
        traces = [s.trace for s in specs]
        self._fates_flat = np.concatenate(
            [t.fates.reshape(-1) for t in traces]
        ) if n else np.zeros(0, dtype=bool)
        sizes = np.array([t.fates.size for t in traces], dtype=np.int64)
        self._fate_off = np.concatenate([[0], np.cumsum(sizes)[:-1]]) \
            if n else np.zeros(0, dtype=np.int64)
        self._slot_s = np.array([t.slot_s for t in traces])
        self._last_slot = np.array([t.n_slots - 1 for t in traces],
                                   dtype=np.int64)
        self._dur = np.array([t.duration_s * 1e6 for t in traces])
        self._durations_s = [t.duration_s for t in traces]
        if self._observe:
            self._snr_flat = np.concatenate([t.snr_db for t in traces])
            nslots = np.array([t.n_slots for t in traces], dtype=np.int64)
            self._snr_off = np.concatenate([[0], np.cumsum(nslots)[:-1]])
            self._noise_db = np.array([c.snr_obs_noise_db for c in cfgs])

        # --- per-rate timing tables (whole µs; validated upstream) -----
        at = np.empty((n, 2 * N_RATES), dtype=np.int64)
        for i, cfg in enumerate(cfgs):
            ok_us, fail_us, slot_time_us, _ = _airtime_tables(cfg.payload_bytes)
            at[i, :N_RATES] = fail_us
            at[i, N_RATES:] = ok_us
        self._at_flat = at.reshape(-1)
        self._slot_time = int(timing.SLOT_TIME_US)
        self._cw1f = np.array(
            [timing.contention_window(r) + 1 for r in range(16)], dtype=np.float64
        )

        # --- config arrays --------------------------------------------
        self._retry_limit = np.array([c.retry_limit for c in cfgs],
                                     dtype=np.int64)
        self._ladder = np.array([c.retry_ladder_after for c in cfgs],
                                dtype=np.int64)
        self._floor_p = np.array([c.floor_loss_prob for c in cfgs])
        self._payloads = [c.payload_bytes for c in cfgs]

        # --- hint edge lists as integer-µs thresholds ------------------
        thresh: list[int] = []
        vals: list[bool] = []
        ptr = np.zeros(n, dtype=np.int64)
        end = np.zeros(n, dtype=np.int64)
        nxt = np.full(n, _FAR, dtype=np.int64)
        present = np.zeros(n, dtype=bool)
        for i, s in enumerate(specs):
            ptr[i] = len(thresh)
            if s.hint_series is not None:
                present[i] = True
                edge_t, edge_v = _hint_edges(s.hint_series)
                delay = s.config.hint_delay_s
                thresh += [_edge_threshold_us(e, delay) for e in edge_t]
                vals += edge_v
            end[i] = len(thresh)
            if end[i] > ptr[i]:
                nxt[i] = thresh[ptr[i]]
        self._hint_thresh = np.array(thresh, dtype=np.int64)
        self._hint_vals = np.array(vals, dtype=bool)
        self._hint_ptr = ptr
        self._hint_end = end
        self._next_hint = nxt
        self._hint_present = present
        self._hint_cur = np.zeros(n, dtype=np.int8)
        self._last_hint = np.full(n, -1, dtype=np.int8)
        self._any_hints = bool(present.any())
        # Rows whose initial hint value has not been delivered yet: the
        # fast engine fires ``on_hint`` on a link's *first* attempt.
        self._unprimed = self._any_hints

        # --- dynamic state --------------------------------------------
        self._t = np.zeros(n, dtype=np.int64)
        self._retries = np.zeros(n, dtype=np.int64)
        self._traffic = [s.traffic for s in specs]
        self._is_udp = np.array(
            [type(s.traffic) is UdpSource for s in specs], dtype=bool
        )
        self._all_udp = bool(self._is_udp.all())
        self._serving = self._is_udp.copy()
        self._live_ids = np.arange(n, dtype=np.int64)
        self._refresh_row_index()

        # --- result accumulators --------------------------------------
        self._log_att: list[tuple[np.ndarray, np.ndarray]] = []
        self._log_succ: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._dropped_by_id = np.zeros(n, dtype=np.int64)
        self._refill_cd = 0

        # --- cruise gating --------------------------------------------
        cruise = getattr(self._adapter, "cruise", None)
        self._cruise = cruise if (cruise is not None and not self._uses_snr) \
            else None
        self._commit_failures = bool(
            self._cruise is not None and n
            and int(self._retry_limit.min()) >= 1
        )
        self._k_range = np.arange(_CRUISE_K, dtype=np.int64)
        #: Adaptive tableau depth: every (B, k)-shaped pass cost scales
        #: with k, so loss-heavy regimes (short success runs) shrink it
        #: and long-run regimes saturate it back up to :data:`_CRUISE_K`.
        #: Depth only bounds how many attempts one pass may commit --
        #: the remainder goes through later passes or the general step
        #: identically -- so adaptation tunes speed, never results.
        self._cruise_k = _CRUISE_K

    # ------------------------------------------------------------------
    def _refresh_row_index(self) -> None:
        b = len(self._live_ids)
        self._arange = np.arange(b, dtype=np.int64)
        self._rowW = self._arange * _W
        self._row2r = self._arange * (2 * N_RATES)

    def _compact(self, keep: np.ndarray) -> None:
        """Drop dead rows from every per-row array and list."""
        for name in ("_t", "_retries", "_serving", "_is_udp", "_dur",
                     "_slot_s", "_last_slot", "_fate_off", "_bias",
                     "_retry_limit", "_ladder", "_floor_p", "_live_ids",
                     "_hint_ptr", "_hint_end", "_next_hint",
                     "_hint_present", "_hint_cur", "_last_hint"):
            setattr(self, name, getattr(self, name)[keep])
        if self._observe:
            self._snr_off = self._snr_off[keep]
            self._noise_db = self._noise_db[keep]
        if self._use_backoff:
            self._bk_flat = self._bk_flat.reshape(-1, _W)[keep].reshape(-1)
            self._bk_pos = self._bk_pos[keep]
            self._bk_rng = [self._bk_rng[int(k)] for k in keep]
        if self._floor_on:
            self._fl_flat = self._fl_flat.reshape(-1, _W)[keep].reshape(-1)
            self._fl_pos = self._fl_pos[keep]
            self._fl_rng = [self._fl_rng[int(k)] for k in keep]
        if self._observe and self._noise_on:
            self._nz_flat = self._nz_flat.reshape(-1, _W)[keep].reshape(-1)
            self._nz_pos = self._nz_pos[keep]
            self._nz_rng = [self._nz_rng[int(k)] for k in keep]
        at = self._at_flat.reshape(-1, 2 * N_RATES)[keep]
        self._at_flat = at.reshape(-1)
        self._traffic = [self._traffic[int(k)] for k in keep]
        self._adapter.compact(keep)
        self._all_udp = bool(self._is_udp.all())
        self._any_hints = bool(self._hint_present.any())
        if self._unprimed:
            self._unprimed = bool(
                (self._hint_present & (self._last_hint == -1)).any()
            )
        self._refresh_row_index()
        self._refill_cd = 0

    def _refill(self) -> None:
        """Slide exhausted RNG buffer rows and re-arm the countdown.

        Consumption per row per step is at most :data:`_STEP_DRAWS`, so
        a countdown lets most steps skip the cursor scans entirely.
        Cursors return below the first block boundary at every scan: a
        row past it slides whole blocks down and the generator draws
        replacements -- the same 1024-draw calls the fast engine makes,
        so streams stay aligned.  :data:`_REFILL_CD` is sized so reads
        never pass the buffer end between scans.
        """
        streams = []
        if self._use_backoff:
            streams.append(("_bk_flat", "_bk_pos", self._bk_rng, False))
        if self._floor_on:
            streams.append(("_fl_flat", "_fl_pos", self._fl_rng, False))
        if self._observe and self._noise_on:
            streams.append(("_nz_flat", "_nz_pos", self._nz_rng, True))
        for flat_name, pos_name, rngs, normal in streams:
            pos = getattr(self, pos_name)
            hit = pos >= _RNG_BLOCK
            if hit.any():
                flat = getattr(self, flat_name).reshape(-1, _W)
                for i in hit.nonzero()[0]:
                    i = int(i)
                    shift = (int(pos[i]) // _RNG_BLOCK) * _RNG_BLOCK
                    row = flat[i]
                    row[:_W - shift] = row[shift:]
                    draw = (rngs[i].standard_normal if normal
                            else rngs[i].random)
                    for start in range(_W - shift, _W, _RNG_BLOCK):
                        row[start:start + _RNG_BLOCK] = draw(_RNG_BLOCK)
                    pos[i] -= shift
        self._refill_cd = _REFILL_CD

    # ------------------------------------------------------------------
    # Hint delivery (slow path: edges are rare)
    # ------------------------------------------------------------------
    def _hint_step(self, att: np.ndarray | None) -> None:
        """Advance hint cursors and deliver transitions for ``att`` rows."""
        rows = self._arange if att is None else att
        t = self._t
        thresh = self._hint_thresh
        vals = self._hint_vals
        changed: list[int] = []
        for r in rows:
            r = int(r)
            if not self._hint_present[r]:
                continue
            tv = int(t[r])
            p = int(self._hint_ptr[r])
            end = int(self._hint_end[r])
            while p < end and thresh[p] <= tv:
                self._hint_cur[r] = 1 if vals[p] else 0
                p += 1
            self._hint_ptr[r] = p
            self._next_hint[r] = thresh[p] if p < end else _FAR
            if self._hint_cur[r] != self._last_hint[r]:
                changed.append(r)
        if changed:
            ch = np.array(changed, dtype=np.int64)
            self._adapter.on_hint_batch(
                ch, self._hint_cur[ch].astype(bool), t[ch] / 1e6
            )
            self._last_hint[ch] = self._hint_cur[ch]

    # ------------------------------------------------------------------
    # Cruise: commit prefixes of consecutive successes vectorized
    # ------------------------------------------------------------------
    def _cruise_step(self) -> int:
        """Commit success prefixes vectorized; returns attempts committed."""
        cruise = self._cruise
        elig = cruise.eligible() & (self._retries == 0)
        if not self._all_udp:
            elig &= self._serving & self._is_udp
        if self._unprimed:
            # An undelivered initial hint must reach the controller
            # through the general step first.  (Later transitions cannot
            # be pending here: delivery is immediate in the general step
            # and the tableau never crosses ``next_hint``.)
            elig &= ~(self._hint_present & (self._hint_cur != self._last_hint))
        t = self._t
        if self._any_hints:
            # Required by terminal-failure commits at tableau cell 0 (a
            # hint firing before the attempt must be delivered first).
            elig &= self._next_hint > t
        if not elig.any():
            return 0
        k = self._cruise_k
        k_range = self._k_range[:k]
        cur = cruise.current()
        ok_cur = self._at_flat[self._row2r + N_RATES + cur]
        if self._use_backoff:
            b0 = self._rowW + self._bk_pos
            u = self._bk_flat[b0[:, None] + k_range]
            step = (u * self._cw1f[0]).astype(np.int64) * self._slot_time
            step += ok_cur[:, None]
        else:
            step = np.broadcast_to(ok_cur[:, None], (len(t), k)).copy()
        t_after = t[:, None] + np.cumsum(step, axis=1)
        t_fate = t_after - ok_cur[:, None]
        sl = ((t_fate / 1e6) / self._slot_s[:, None]).astype(np.int64)
        np.minimum(sl, self._last_slot[:, None], out=sl)
        fate = self._fates_flat[
            sl * N_RATES + cur[:, None] + self._fate_off[:, None]
        ]
        if self._floor_on:
            f0 = self._rowW + self._fl_pos
            uf = self._fl_flat[f0[:, None] + k_range]
            deliver = fate & (uf >= self._floor_p[:, None])
        else:
            deliver = fate
        # A success past the adapter's no-op horizon mutates controller
        # state, so it must go through the general step.
        valid = deliver & cruise.success_noop(t_after / 1e3)
        valid &= t_after < self._dur[:, None]
        valid &= t_after < self._next_hint[:, None]
        valid &= elig[:, None]
        pre = np.logical_and.accumulate(valid, axis=1)
        ncommit = pre.sum(axis=1)
        total = int(ncommit.sum())
        # Adapt the tableau depth to the observed run lengths: saturate
        # back to full depth the moment any link fills the tableau,
        # shrink while the deepest commit uses less than a third of it.
        deepest = int(ncommit.max()) if len(ncommit) else 0
        if deepest >= k:
            self._cruise_k = _CRUISE_K
        elif deepest * 3 < k and k > _CRUISE_K_MIN:
            self._cruise_k = max(_CRUISE_K_MIN, k // 2)
        if total:
            ids_c = np.repeat(self._live_ids, ncommit)
            rates_c = np.repeat(cur, ncommit)
            times_c = t_after[pre] / 1e6
            self._log_att.append((ids_c, rates_c))
            self._log_succ.append((ids_c, rates_c, times_c))
            last_t = t_after[self._arange, np.maximum(ncommit - 1, 0)]
            np.copyto(self._t, last_t, where=ncommit > 0)
            if self._use_backoff:
                self._bk_pos += ncommit
            if self._floor_on:
                self._fl_pos += ncommit
        # Terminal attempt: the cell that broke the run is committed
        # vectorized through the adapter's *full* update -- a failure
        # (step-down, the link re-enters the general step with
        # retries=1 for its retry chain), a sample-up success, a sample
        # adoption or reversion -- unless a horizon (duration, hint
        # edge) broke the run instead.  Resolving these in-pass lets
        # the `_CRUISE_ITERS` loop chain run after run.
        term = ((ncommit < k) & elig).nonzero()[0]
        if term.size:
            jj = ncommit[term]
            succ_t = deliver[term, jj]
            if not self._commit_failures:
                # A failed terminal with retry_limit 0 would be a drop;
                # leave failures to the general step.
                term = term[succ_t]
                jj = jj[succ_t]
                succ_t = succ_t[succ_t]
        if term.size:
            t_term = np.where(
                succ_t,
                t_after[term, jj],
                t_fate[term, jj] + self._at_flat[self._row2r[term] + cur[term]],
            )
            in_time = t_term < self._dur[term]
            if not in_time.all():
                term = term[in_time]
                jj = jj[in_time]
                succ_t = succ_t[in_time]
                t_term = t_term[in_time]
        if term.size:
            rates_t = cur[term]
            self._t[term] = t_term
            if self._use_backoff:
                self._bk_pos[term] += 1
            if self._floor_on:
                # The floor draw is only consumed when the frame
                # survived the trace fate (a success, or a floor loss).
                fc = fate[term, jj]
                if fc.any():
                    self._fl_pos[term[fc]] += 1
            fr = (~succ_t).nonzero()[0]
            if fr.size:
                self._retries[term[fr]] = 1
            cruise.commit_result(term, rates_t, succ_t, t_term / 1e3)
            ids_t = self._live_ids[term]
            self._log_att.append((ids_t, rates_t))
            sr = succ_t.nonzero()[0]
            if sr.size:
                self._log_succ.append(
                    (ids_t[sr], rates_t[sr], t_term[sr] / 1e6)
                )
            total += term.size
        return total

    # ------------------------------------------------------------------
    # The general step: one frame-exchange attempt per selected row
    # ------------------------------------------------------------------
    def _attempt_step(self, att: np.ndarray | None) -> np.ndarray:
        """One attempt for rows ``att`` (None = all); returns the mask
        of rows whose trace ended."""
        dense = att is None
        t0 = self._t if dense else self._t[att]
        # Vectorized adapters that ignore attempt-start times let the
        # engine skip computing them (they only see post-attempt times).
        now_ms = t0 / 1e3 if (self._needs_time or self._observe) else None

        if self._any_hints:
            m = self._next_hint <= self._t if dense \
                else self._next_hint[att] <= t0
            if self._unprimed:
                pend = self._hint_present & (self._last_hint == -1)
                m = m | (pend if dense else pend[att])
            if m.any():
                self._hint_step(m.nonzero()[0] if dense else att[m])
                if self._unprimed:
                    self._unprimed = bool(
                        (self._hint_present & (self._last_hint == -1)).any()
                    )

        if self._observe:
            now_s = t0 / 1e6
            pst = now_s - (self._slot_s if dense else self._slot_s[att])
            np.maximum(pst, 0.0, out=pst)
            sl = (pst / (self._slot_s if dense else self._slot_s[att])) \
                .astype(np.int64)
            np.minimum(sl, self._last_slot if dense else self._last_slot[att],
                       out=sl)
            obs = self._snr_flat[
                (self._snr_off if dense else self._snr_off[att]) + sl
            ] + (self._bias if dense else self._bias[att])
            if self._noise_on:
                pos = self._nz_pos if dense else self._nz_pos[att]
                z = self._nz_flat[(self._rowW if dense else self._rowW[att])
                                  + pos]
                if dense:
                    self._nz_pos += 1
                else:
                    self._nz_pos[att] += 1
                obs = obs + (self._noise_db if dense
                             else self._noise_db[att]) * z
            self._adapter.observe_snr_batch(att, obs, now_ms)

        rate = self._adapter.choose_rate_batch(att, now_ms)
        retries = self._retries if dense else self._retries[att]
        if self._ladder_on:
            ladder = self._ladder if dense else self._ladder[att]
            lm = retries > ladder
            if lm.any():
                over = retries[lm] - ladder[lm]
                rate[lm] = np.maximum(rate[lm] - over, 0)

        if self._use_backoff:
            posW = (self._rowW if dense else self._rowW[att]) \
                + (self._bk_pos if dense else self._bk_pos[att])
            u = self._bk_flat[posW]
            if dense:
                self._bk_pos += 1
            else:
                self._bk_pos[att] += 1
            cw1 = self._cw1f[np.minimum(retries, 15)]
            t1 = t0 + (u * cw1).astype(np.int64) * self._slot_time
        else:
            t1 = t0.copy()

        slot_s = self._slot_s if dense else self._slot_s[att]
        sl = ((t1 / 1e6) / slot_s).astype(np.int64)
        np.minimum(sl, self._last_slot if dense else self._last_slot[att],
                   out=sl)
        succ = self._fates_flat[
            sl * N_RATES + rate
            + (self._fate_off if dense else self._fate_off[att])
        ]

        if self._floor_on:
            si = succ.nonzero()[0]
            if si.size:
                g = si if dense else att[si]
                uf = self._fl_flat[self._rowW[g] + self._fl_pos[g]]
                self._fl_pos[g] += 1
                succ[si] = uf >= self._floor_p[g]

        t2 = t1 + self._at_flat[
            (self._row2r if dense else self._row2r[att])
            + succ * N_RATES + rate
        ]
        if dense:
            self._t = t2
        else:
            self._t[att] = t2
        now2 = t2 / 1e3
        self._adapter.on_result_batch(att, rate, succ, now2)

        ids = self._live_ids if dense else self._live_ids[att]
        self._log_att.append((ids, rate))
        si2 = succ.nonzero()[0]
        gs = si2 if dense else att[si2]
        if si2.size:
            self._log_succ.append(
                (self._live_ids[gs], rate[si2], t2[si2] / 1e6)
            )
            self._retries[gs] = 0
            if not self._all_udp:
                for j, g in zip(si2, gs):
                    g = int(g)
                    if not self._is_udp[g]:
                        self._serving[g] = False
                        self._traffic[g].on_delivered(int(t2[j]))

        fi = (~succ).nonzero()[0]
        if fi.size:
            gf = fi if dense else att[fi]
            r2 = self._retries[gf] + 1
            self._retries[gf] = r2
            dr = r2 > (self._retry_limit[gf])
            if dr.any():
                gd = gf[dr]
                self._dropped_by_id[self._live_ids[gd]] += 1
                self._retries[gd] = 0
                if not self._all_udp:
                    td = t2[fi[dr]]
                    for j, g in enumerate(gd):
                        g = int(g)
                        if not self._is_udp[g]:
                            self._serving[g] = False
                            self._traffic[g].on_dropped(int(td[j]))
            cont = gf[~dr]
            if cont.size:
                ex = self._t[cont] >= self._dur[cont]
                if ex.any():
                    # Trace ended mid-service: the in-flight packet
                    # expires as a drop (no traffic timeout).
                    self._dropped_by_id[self._live_ids[cont[ex]]] += 1

        if dense:
            return t2 >= self._dur
        dead = np.zeros(len(self._live_ids), dtype=bool)
        dead[att] = t2 >= self._dur[att]
        return dead

    # ------------------------------------------------------------------
    def run(self) -> list[SimResult]:
        n = self._n
        if n == 0:
            return []
        # Degenerate zero-length traces never enter the loop.
        dead0 = self._dur <= self._t
        if dead0.any():
            self._compact(np.flatnonzero(~dead0))
        cruise_cd = 0
        while len(self._live_ids):
            att: np.ndarray | None = None
            if not self._all_udp:
                dead_a: list[int] = []
                for r in np.flatnonzero(~self._serving):
                    r = int(r)
                    if self._phase_a(r):
                        dead_a.append(r)
                if dead_a:
                    dead = np.zeros(len(self._live_ids), dtype=bool)
                    dead[dead_a] = True
                    self._adapter.retire(np.flatnonzero(dead))
                    self._compact(np.flatnonzero(~dead))
                    continue
                if not self._serving.all():
                    att = np.flatnonzero(self._serving)
            if self._refill_cd <= 0:
                self._refill()
            self._refill_cd -= 1
            if self._cruise is not None and cruise_cd <= 0:
                # Deep passes chain while productive: each pass retires
                # a whole success run plus its terminal event per hot
                # link, so long-run regimes (fixed rate, clean static
                # channels) string many runs together before paying for
                # a general step.  A pass costs about two general steps,
                # so the *marginal* test is strict: another pass runs
                # only while the previous one committed in bulk
                # (several attempts per live link).
                floor = max(4, 6 * len(self._live_ids))
                committed = 0
                for _ in range(_CRUISE_ITERS):
                    got = self._cruise_step()
                    committed += got
                    if got < floor:
                        break
                if committed * 4 < len(self._live_ids):
                    # Loss-heavy regime: the tableau is pure overhead
                    # while success runs stay short, so cruise sits out
                    # a few rounds.  Skipping is semantics-neutral --
                    # cruise only pre-commits attempts the general step
                    # would produce identically -- so this gate tunes
                    # speed, never results.
                    cruise_cd = _CRUISE_BACKOFF
            else:
                cruise_cd -= 1
            reps = _EVENT_REPS if (self._all_udp and att is None) else 1
            for _ in range(reps):
                if att is not None and not att.size:
                    break
                dead = self._attempt_step(att)
                if dead.any():
                    self._adapter.retire(np.flatnonzero(dead))
                    self._compact(np.flatnonzero(~dead))
                    if not len(self._live_ids):
                        break
                    att = None
        return self._results()

    def _phase_a(self, r: int) -> bool:
        """Traffic gating for one non-serving row; True if the link ends."""
        t_r = int(self._t[r])
        if t_r >= self._dur[r]:
            return True
        send_at = self._traffic[r].next_send_time_us(t_r)
        if send_at > t_r:
            if send_at >= self._dur[r] or send_at == _INF:
                return True
            self._t[r] = int(send_at)
            return False
        self._serving[r] = True
        self._retries[r] = 0
        return False

    # ------------------------------------------------------------------
    def _results(self) -> list[SimResult]:
        n = self._n
        if self._log_att:
            ids = np.concatenate([e[0] for e in self._log_att])
            rates = np.concatenate([e[1] for e in self._log_att])
            ra = np.bincount(ids * N_RATES + rates,
                             minlength=n * N_RATES).reshape(n, N_RATES)
        else:
            ra = np.zeros((n, N_RATES), dtype=np.int64)
        if self._log_succ:
            sids = np.concatenate([e[0] for e in self._log_succ])
            srates = np.concatenate([e[1] for e in self._log_succ])
            stimes = np.concatenate([e[2] for e in self._log_succ])
            rs = np.bincount(sids * N_RATES + srates,
                             minlength=n * N_RATES).reshape(n, N_RATES)
            order = np.argsort(sids, kind="stable")
            stimes = stimes[order]
            bounds = np.searchsorted(sids[order], np.arange(n + 1))
        else:
            rs = np.zeros((n, N_RATES), dtype=np.int64)
            stimes = np.zeros(0)
            bounds = np.zeros(n + 1, dtype=np.int64)
        out = []
        for i in range(n):
            out.append(SimResult(
                duration_s=self._durations_s[i],
                delivered=int(rs[i].sum()),
                dropped=int(self._dropped_by_id[i]),
                attempts=int(ra[i].sum()),
                payload_bytes=self._payloads[i],
                rate_attempts=ra[i].astype(np.int64),
                rate_successes=rs[i].astype(np.int64),
                delivery_times_s=stimes[bounds[i]:bounds[i + 1]].copy(),
            ))
        return out


def _partition_key(spec: BatchLinkSpec):
    cfg = spec.config
    return (
        type(spec.controller),
        cfg.use_backoff,
        cfg.snr_feedback,
        cfg.snr_obs_noise_db > 0,
        cfg.snr_calibration_error_db > 0,
        cfg.floor_loss_prob > 0,
        cfg.retry_ladder_after > 0,
    )


def run_batch(specs: Sequence[BatchLinkSpec]) -> list[SimResult]:
    """Replay many links through the batch engine; results in spec order.

    Specs are partitioned into engine-compatible groups (same controller
    class and config flags); each group runs as one lockstep batch.
    Specs the array program cannot express (non-integral airtimes from a
    custom payload) fall back to the fast engine individually.  Either
    way every link's result is bit-identical to a standalone replay.
    """
    specs = [s.resolved() for s in specs]
    results: list[SimResult | None] = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        if not _integral_timing(spec.config.payload_bytes):
            from .simulator import LinkSimulator
            cfg = replace(spec.config, engine="fast")
            results[i] = LinkSimulator(
                spec.trace, spec.controller, spec.traffic,
                spec.hint_series, cfg,
            ).run()
            continue
        groups.setdefault(_partition_key(spec), []).append(i)
    for members in groups.values():
        for res, i in zip(
            BatchLinkEngine([specs[i] for i in members]).run(), members
        ):
            results[i] = res
    return results  # type: ignore[return-value]
