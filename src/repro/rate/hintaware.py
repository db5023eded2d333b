"""The hint-aware rate adaptation protocol (Section 3.2) -- the headline.

"The Hint-Aware Rate Adaptation Protocol implemented at the sender uses
RapidSample when a node is mobile and uses SampleRate when a node is
static.  It relies on movement hints from the receiver to switch between
the two."

The switch is a *hybrid* adaptation in the paper's taxonomy (Section 1):
swapping whole strategies rather than tuning parameters.  On each
movement-hint transition the controller flips which inner protocol
serves ``choose_rate``.  Two switch details matter and are exposed:

* ``reset_on_switch`` -- when entering mobile mode the RapidSample
  instance starts fresh (stale failure timestamps from the last mobile
  episode are meaningless an episode later); when returning to static
  mode SampleRate *keeps* its long window (that history is from the
  static periods and remains valid) but the interlude is visible in its
  sliding window, which ages it out naturally.
* a seed rate handoff -- the incoming protocol starts from the outgoing
  protocol's operating point instead of its cold-start rate.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from ..core.hints import Hint, MovementHint
from .base import BatchRateAdapter, LoopBatchAdapter, RateController
from .rapidsample import RapidSample, RapidSampleSoA, _RapidCruise
from .samplerate import SampleRate, SampleRateSoA

__all__ = ["HintAwareRateController"]


class HintAwareRateController(RateController):
    """Switches between a mobile-tuned and a static-tuned protocol."""

    name = "HintAware"

    def __init__(
        self,
        n_rates: int = N_RATES,
        mobile: RateController | None = None,
        static: RateController | None = None,
        reset_on_switch: bool = True,
        initially_moving: bool = False,
    ) -> None:
        super().__init__(n_rates)
        self._mobile = mobile if mobile is not None else RapidSample(n_rates)
        self._static = static if static is not None else SampleRate(n_rates)
        self._reset_on_switch = reset_on_switch
        self._moving = initially_moving
        self.switch_count = 0

    # ------------------------------------------------------------------
    @property
    def moving(self) -> bool:
        return self._moving

    @property
    def active(self) -> RateController:
        return self._mobile if self._moving else self._static

    def on_hint(self, hint: Hint) -> None:
        if not isinstance(hint, MovementHint):
            return
        if hint.moving == self._moving:
            return
        previous = self.active
        self._moving = hint.moving
        self.switch_count += 1
        if self._moving and self._reset_on_switch:
            # Fresh mobile episode: old failure timestamps are stale.
            self._mobile.reset()
        # Seed the incoming protocol near the outgoing operating point.
        seed_rate = getattr(previous, "current_rate", None)
        if seed_rate is not None and hasattr(self.active, "_current"):
            self.active._current = int(seed_rate)

    def choose_rate(self, now_ms: float) -> int:
        return self.active.choose_rate(now_ms)

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        self._check_rate(rate_index)
        # Only the protocol in charge learns from the frame: feeding
        # mobile-period losses into SampleRate's long window would
        # poison its static-period statistics (the exact failure mode
        # the hint switch exists to avoid).
        self.active.on_result(rate_index, success, now_ms)

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        self.active.observe_snr(snr_db, now_ms)

    def reset(self) -> None:
        self._mobile.reset()
        self._static.reset()
        self._moving = False
        self.switch_count = 0

    @classmethod
    def step_batch(cls, controllers: Sequence[RateController]) -> BatchRateAdapter:
        ctrls = list(controllers)
        vectorizable = all(
            type(c._mobile) is RapidSample
            and c._mobile.n_rates == c.n_rates
            for c in ctrls
        ) and len({c.n_rates for c in ctrls}) <= 1
        if not vectorizable:
            # Custom mobile protocols keep full generality via the loop.
            return LoopBatchAdapter(ctrls)
        return _HintAwareBatchAdapter(ctrls)


class _HintAwareBatchAdapter(BatchRateAdapter):
    """Lockstep driver for B hint-aware controllers.

    The mobile side (RapidSample) runs as a shared SoA -- mobile-mode
    attempts, which dominate exactly when rate decisions are cheapest to
    vectorize, are array programs and cruise-eligible.  The static side
    runs as a :class:`~repro.rate.samplerate.SampleRateSoA` whenever
    every static controller is a plain SampleRate (the default), so
    static-mode attempts are array programs too; custom static
    controllers keep the per-instance loop (bit-identical to the
    single-link engines either way).  Hint switches are rare and handled
    per link, replicating :meth:`HintAwareRateController.on_hint`
    exactly.
    """

    def __init__(self, controllers: Sequence[HintAwareRateController]) -> None:
        super().__init__(controllers)
        self.soa = RapidSampleSoA([c._mobile for c in controllers])
        self.statics = [c._static for c in controllers]
        self.moving = np.array([c._moving for c in controllers], dtype=bool)
        self._reset_on_switch = [bool(c._reset_on_switch) for c in controllers]
        if controllers and all(
            type(s) is SampleRate and s.n_rates == controllers[0].n_rates
            for s in self.statics
        ):
            self.static_soa: SampleRateSoA | None = SampleRateSoA(self.statics)
        else:
            self.static_soa = None
        base = RateController.observe_snr
        # observe_snr delegates to the active side; RapidSample ignores
        # it, so only an overriding static controller makes SNR matter.
        self.uses_snr = any(
            getattr(type(s), "observe_snr", base) is not base
            for s in self.statics
        )
        self.cruise = _RapidCruise(self.soa, moving=self.moving)

    def on_hint_batch(self, rows, moving, time_s) -> None:
        for j, i in enumerate(self._rows(rows)):
            mv = bool(moving[j])
            if mv == self.moving[i]:
                continue
            # Outgoing side's operating point seeds the incoming side.
            if self.moving[i]:
                seed_rate = int(self.soa.current[i])
            elif self.static_soa is not None:
                seed_rate = int(self.static_soa.current[i])
            else:
                seed_rate = getattr(self.statics[i], "current_rate", None)
            self.moving[i] = mv
            self.controllers[i].switch_count += 1
            if mv:
                if self._reset_on_switch[i]:
                    self.soa.reset_row(i)
                if seed_rate is not None:
                    self.soa.current[i] = int(seed_rate)
            elif seed_rate is not None:
                if self.static_soa is not None:
                    self.static_soa.current[i] = int(seed_rate)
                elif hasattr(self.statics[i], "_current"):
                    self.statics[i]._current = int(seed_rate)

    def observe_snr_batch(self, rows, snr_db, now_ms) -> None:
        for j, i in enumerate(self._rows(rows)):
            if not self.moving[i]:
                self.statics[i].observe_snr(float(snr_db[j]), float(now_ms[j]))

    def choose_rate_batch(self, rows, now_ms) -> np.ndarray:
        if rows is None:
            out = self.soa.current.copy()
            static_rows = np.flatnonzero(~self.moving)
            positions = static_rows
        else:
            out = self.soa.current[rows]
            positions = np.flatnonzero(~self.moving[rows])
            static_rows = rows[positions]
        if positions.size:
            if self.static_soa is not None:
                out[positions] = self.static_soa.choose(
                    static_rows, now_ms[positions])
            else:
                for j, i in zip(positions, static_rows):
                    rate = int(self.statics[i].choose_rate(float(now_ms[j])))
                    if not 0 <= rate < N_RATES:
                        raise ValueError(
                            f"controller chose invalid rate {rate}")
                    out[j] = rate
        return out

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        sel = np.arange(len(rates)) if rows is None else rows
        mv = self.moving[sel]
        mi = np.flatnonzero(mv)
        if mi.size:
            self.soa.on_result(sel[mi], rates[mi], successes[mi], now_ms[mi])
        si = np.flatnonzero(~mv)
        if si.size:
            if self.static_soa is not None:
                self.static_soa.on_result(
                    sel[si], rates[si], successes[si], now_ms[si])
            else:
                for j in si:
                    self.statics[int(sel[j])].on_result(
                        int(rates[j]), bool(successes[j]), float(now_ms[j])
                    )

    def retire(self, rows) -> None:
        self.soa.retire_rows(rows, [c._mobile for c in self.controllers])
        if self.static_soa is not None:
            self.static_soa.retire_rows(rows, self.statics)
        for r in rows:
            self.controllers[int(r)]._moving = bool(self.moving[r])

    def compact(self, keep) -> None:
        super().compact(keep)
        self.soa.compact(keep)
        self.statics = [self.statics[int(k)] for k in keep]
        if self.static_soa is not None:
            self.static_soa.compact(keep)
        self.moving = self.moving[keep]
        self.cruise._moving = self.moving
        self._reset_on_switch = [self._reset_on_switch[int(k)] for k in keep]
