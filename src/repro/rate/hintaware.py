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

from ..channel.rates import N_RATES
from ..core.hints import Hint, MovementHint
from .base import RateController, reads_snr
from .rapidsample import RapidSample
from .samplerate import SampleRate

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
        self._set_moving(initially_moving)
        self.switch_count = 0

    # ------------------------------------------------------------------
    @property
    def moving(self) -> bool:
        return self._moving

    @property
    def active(self) -> RateController:
        return self._mobile if self._moving else self._static

    def _set_moving(self, moving: bool) -> None:
        """Switch sides, binding the active side's per-attempt hooks.

        The hooks are resolved here, once per switch, instead of through
        :attr:`active` on every attempt.
        """
        self._moving = moving
        side = self.active
        self._choose = side.choose_rate
        self._learn = side.on_result
        self._observe = side.observe_snr

    def on_hint(self, hint: Hint) -> None:
        if not isinstance(hint, MovementHint):
            return
        if hint.moving == self._moving:
            return
        previous = self.active
        self._set_moving(hint.moving)
        self.switch_count += 1
        if self._moving and self._reset_on_switch:
            # Fresh mobile episode: old failure timestamps are stale.
            self._mobile.reset()
        # Seed the incoming protocol near the outgoing operating point.
        seed_rate = getattr(previous, "current_rate", None)
        if seed_rate is not None and hasattr(self.active, "_current"):
            self.active._current = int(seed_rate)

    def choose_rate(self, now_ms: float) -> int:
        return self._choose(now_ms)

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        if not 0 <= rate_index < self.n_rates:
            self._check_rate(rate_index)
        # Only the protocol in charge learns from the frame: feeding
        # mobile-period losses into SampleRate's long window would
        # poison its static-period statistics (the exact failure mode
        # the hint switch exists to avoid).
        self._learn(rate_index, success, now_ms)

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        self._observe(snr_db, now_ms)

    def reads_snr(self) -> bool:
        """Whether either side reads SNR (the sides never change)."""
        return reads_snr(self._mobile) or reads_snr(self._static)

    def reset(self) -> None:
        self._mobile.reset()
        self._static.reset()
        self._set_moving(False)
        self.switch_count = 0
