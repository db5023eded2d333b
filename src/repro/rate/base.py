"""Rate-controller interface shared by all adaptation protocols (Ch. 3).

A controller is called once per transmission attempt:

1. (optional) :meth:`observe_snr` -- latest receiver SNR, for SNR-based
   protocols (RBAR/CHARM);
2. (optional) :meth:`on_hint` -- a hint arriving over the Hint Protocol;
3. :meth:`choose_rate` -- pick the rate index for this attempt;
4. :meth:`on_result` -- learn whether the attempt was ACKed.

Times are in elapsed milliseconds, matching the paper's RapidSample
pseudocode (Figure 3-2).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..channel.rates import N_RATES
from ..core.hints import Hint, MovementHint

__all__ = [
    "RateController",
    "BatchRateAdapter",
    "LoopBatchAdapter",
    "CompositeBatchAdapter",
    "CruiseView",
    "make_batch_adapter",
]


class RateController(ABC):
    """Base class for bit-rate adaptation algorithms."""

    #: Human-readable protocol name used in result tables.
    name: str = "base"

    def __init__(self, n_rates: int = N_RATES) -> None:
        if n_rates < 1:
            raise ValueError("need at least one rate")
        self.n_rates = n_rates

    @abstractmethod
    def choose_rate(self, now_ms: float) -> int:
        """Rate index (0 = slowest) for the attempt starting now."""

    @abstractmethod
    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None:
        """Feedback: was the attempt at ``rate_index`` ACKed?"""

    def observe_snr(self, snr_db: float, now_ms: float) -> None:
        """Receiver SNR feedback; frame-based protocols ignore it."""

    def on_hint(self, hint: Hint) -> None:
        """A hint arrived via the Hint Protocol; most protocols ignore it."""

    def reset(self) -> None:
        """Forget all learned state (fresh association)."""

    def _check_rate(self, rate_index: int) -> None:
        if not 0 <= rate_index < self.n_rates:
            raise ValueError(
                f"rate index {rate_index} out of range 0..{self.n_rates - 1}"
            )

    @classmethod
    def step_batch(cls, controllers: Sequence["RateController"]) -> "BatchRateAdapter":
        """Build a lockstep driver for a batch of controllers of this class.

        The batch replay engine (:mod:`repro.mac.batch`) steps B links at
        once; instead of calling each controller's per-attempt methods in
        a Python loop, it asks the controller class for a
        :class:`BatchRateAdapter` that applies the same updates to all B
        links as array programs.  The base implementation returns the
        always-correct :class:`LoopBatchAdapter`; protocols with NumPy
        implementations (fixed-rate, RapidSample, the hint-aware switch)
        override this.  Either way the adapter is *bit-identical* to
        driving the controllers one by one.
        """
        return LoopBatchAdapter(controllers)


class BatchRateAdapter:
    """Lockstep driver for B rate controllers (one per batched link).

    The batch engine calls the four per-attempt hooks with arrays instead
    of scalars.  ``rows`` selects which links an array call refers to:
    ``None`` means "all live links, in row order", otherwise an int index
    array; the value arrays are aligned with the selected rows.  Row
    indices are *dense*: when links finish, the engine first calls
    :meth:`retire` (write state back into the wrapped controller objects)
    and then :meth:`compact` with the surviving row indices.

    ``uses_snr`` tells the engine whether :meth:`observe_snr_batch` can
    have any effect; when ``False`` the engine skips the SNR observation
    entirely (the draws it would feed are unobservable, so results are
    unchanged).  ``cruise`` is ``None`` or a :class:`CruiseView` enabling
    the engine's vectorized success-run fast path.

    Only the grid engine (:mod:`repro.mac.batch`) drives adapters; the
    scalar engines, network scenario engines included, call the
    controller objects directly.
    """

    uses_snr: bool = True
    cruise: "CruiseView | None" = None
    #: Whether :meth:`choose_rate_batch`/:meth:`on_hint_batch` read their
    #: time arguments; vectorized adapters that ignore them let the
    #: engine skip computing attempt-start timestamps.
    needs_choose_time: bool = True

    def __init__(self, controllers: Sequence[RateController]) -> None:
        self.controllers = list(controllers)

    @property
    def n_links(self) -> int:
        return len(self.controllers)

    def _rows(self, rows) -> range | np.ndarray:
        return range(len(self.controllers)) if rows is None else rows

    def on_hint_batch(self, rows, moving: np.ndarray, time_s: np.ndarray) -> None:
        """Movement-hint transitions for the selected links."""

    def observe_snr_batch(self, rows, snr_db: np.ndarray, now_ms: np.ndarray) -> None:
        """Receiver-SNR feedback for the selected links."""

    def choose_rate_batch(self, rows, now_ms: np.ndarray) -> np.ndarray:
        """Rate indices for the attempts starting now (int64 array).

        The returned array is owned by the caller (adapters must not
        return live internal state: the engine mutates it for the retry
        ladder and logs it after the controller update).
        """
        raise NotImplementedError

    def on_result_batch(self, rows, rates: np.ndarray, successes: np.ndarray,
                        now_ms: np.ndarray) -> None:
        """ACK feedback for the selected links."""
        raise NotImplementedError

    def retire(self, rows: np.ndarray) -> None:
        """Write adapter state back into the wrapped controllers."""

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished links; ``keep`` indexes the surviving rows."""
        self.controllers = [self.controllers[int(k)] for k in keep]


class LoopBatchAdapter(BatchRateAdapter):
    """The universal fallback: drive each controller with a Python loop.

    Correct for *any* controller (including user-defined ones and
    protocols with internal RNGs -- each controller's own stream is
    consumed exactly as in the single-link engines), at single-link
    speed per attempt.  The per-pass overhead is trimmed where it does
    not change semantics: bound methods are hoisted once per batch
    (rebuilt on compaction) and NumPy value arrays are converted with
    ``tolist`` so the hot loops touch plain Python scalars.
    """

    def __init__(self, controllers: Sequence[RateController]) -> None:
        super().__init__(controllers)
        base = RateController.observe_snr
        self.uses_snr = any(
            getattr(type(c), "observe_snr", base) is not base
            for c in controllers
        )
        self._rebind()

    def _rebind(self) -> None:
        cs = self.controllers
        self._on_hint = [c.on_hint for c in cs]
        self._observe = [c.observe_snr for c in cs]
        self._choose = [c.choose_rate for c in cs]
        self._on_result = [c.on_result for c in cs]

    def on_hint_batch(self, rows, moving, time_s) -> None:
        hint = self._on_hint
        for i, mv, ts in zip(self._rows(rows), moving.tolist(),
                             time_s.tolist()):
            hint[i](MovementHint(time_s=ts, moving=mv))

    def observe_snr_batch(self, rows, snr_db, now_ms) -> None:
        observe = self._observe
        for i, snr, now in zip(self._rows(rows), snr_db.tolist(),
                               now_ms.tolist()):
            observe[i](snr, now)

    def choose_rate_batch(self, rows, now_ms) -> np.ndarray:
        choose = self._choose
        sel = self._rows(rows)
        out = [0] * len(sel)
        for j, (i, now) in enumerate(zip(sel, now_ms.tolist())):
            rate = int(choose[i](now))
            if not 0 <= rate < N_RATES:
                raise ValueError(f"controller chose invalid rate {rate}")
            out[j] = rate
        return np.array(out, dtype=np.int64)

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        on_result = self._on_result
        for i, rate, ok, now in zip(self._rows(rows), rates.tolist(),
                                    successes.tolist(), now_ms.tolist()):
            on_result[i](rate, ok, now)

    def compact(self, keep) -> None:
        super().compact(keep)
        self._rebind()


class CompositeBatchAdapter(BatchRateAdapter):
    """Partition a heterogeneous batch into per-class sub-adapters.

    Mixed-protocol batches (a spec list with several controller
    classes) used to fall back to the all-Python loop for *every* link;
    here each controller class drives its own rows through its own
    vectorized adapter (or the loop fallback, per class), with row
    indexes mapped through per-group index arrays.  Results are
    bit-identical to driving the controllers one by one -- each
    sub-adapter already guarantees that for its class and the groups
    touch disjoint rows.  No cruise view is exposed:
    cruise tableaux need one homogeneous ``current()`` array, and the
    engines that want cruise keep partitioning by class upstream.
    """

    def __init__(self, controllers: Sequence[RateController]) -> None:
        super().__init__(controllers)
        slots: dict[type, int] = {}
        members: list[list[int]] = []
        classes: list[type] = []
        for i, c in enumerate(controllers):
            cls = type(c)
            slot = slots.get(cls)
            if slot is None:
                slot = slots[cls] = len(members)
                members.append([])
                classes.append(cls)
            members[slot].append(i)
        self._subs: list[BatchRateAdapter] = []
        self._rows_of: list[np.ndarray] = []
        n = len(controllers)
        self._group_of = np.empty(n, dtype=np.int64)
        self._local_of = np.empty(n, dtype=np.int64)
        for cls, group in zip(classes, members):
            step = cls.__dict__.get("step_batch")
            sub_controllers = [controllers[i] for i in group]
            if step is not None:
                sub = step.__get__(None, cls)(sub_controllers)
            else:
                sub = LoopBatchAdapter(sub_controllers)
            rows = np.array(group, dtype=np.int64)
            self._subs.append(sub)
            self._rows_of.append(rows)
            self._group_of[rows] = len(self._subs) - 1
            self._local_of[rows] = np.arange(len(rows))
        self.uses_snr = any(s.uses_snr for s in self._subs)
        self.needs_choose_time = any(
            getattr(s, "needs_choose_time", True) for s in self._subs
        )

    def _split(self, rows):
        """Yield ``(sub, local_rows, positions)`` per touched group.

        ``local_rows`` indexes the sub-adapter's own row space (``None``
        meaning all of it, in order) and ``positions`` indexes the
        caller's value arrays (dense row ids when ``rows`` is None).
        """
        if rows is None:
            for sub, group_rows in zip(self._subs, self._rows_of):
                if len(group_rows):
                    yield sub, None, group_rows
            return
        groups = self._group_of[rows]
        for slot, sub in enumerate(self._subs):
            positions = np.flatnonzero(groups == slot)
            if positions.size:
                yield sub, self._local_of[rows[positions]], positions

    def on_hint_batch(self, rows, moving, time_s) -> None:
        for sub, local, pos in self._split(rows):
            sub.on_hint_batch(local, moving[pos], time_s[pos])

    def observe_snr_batch(self, rows, snr_db, now_ms) -> None:
        for sub, local, pos in self._split(rows):
            sub.observe_snr_batch(local, snr_db[pos], now_ms[pos])

    def choose_rate_batch(self, rows, now_ms) -> np.ndarray:
        n = len(self.controllers) if rows is None else len(rows)
        out = np.empty(n, dtype=np.int64)
        for sub, local, pos in self._split(rows):
            out[pos] = sub.choose_rate_batch(
                local, None if now_ms is None else now_ms[pos]
            )
        return out

    def on_result_batch(self, rows, rates, successes, now_ms) -> None:
        for sub, local, pos in self._split(rows):
            sub.on_result_batch(local, rates[pos], successes[pos], now_ms[pos])

    def retire(self, rows) -> None:
        for sub, local, _pos in self._split(np.asarray(rows, dtype=np.int64)):
            sub.retire(local)

    def compact(self, keep) -> None:
        super().compact(keep)
        keep = np.asarray(keep, dtype=np.int64)
        new_rows: list[list[int]] = [[] for _ in self._subs]
        local_keep: list[list[int]] = [[] for _ in self._subs]
        for new_i, old_i in enumerate(keep.tolist()):
            slot = int(self._group_of[old_i])
            new_rows[slot].append(new_i)
            local_keep[slot].append(int(self._local_of[old_i]))
        n = len(keep)
        self._group_of = np.empty(n, dtype=np.int64)
        self._local_of = np.empty(n, dtype=np.int64)
        for slot, sub in enumerate(self._subs):
            sub.compact(np.array(local_keep[slot], dtype=np.int64))
            rows = np.array(new_rows[slot], dtype=np.int64)
            self._rows_of[slot] = rows
            self._group_of[rows] = slot
            self._local_of[rows] = np.arange(len(rows))


class CruiseView:
    """What the engine's success-run fast path needs from an adapter.

    A *cruise* commits a prefix of consecutive successful attempts for a
    link in one vectorized step.  That is only sound while each success
    would leave the controller state untouched: the link must be
    ``eligible`` (e.g. not mid-sample), and :meth:`success_noop` must
    hold at the attempt's completion time (for RapidSample: either the
    sample-up deadline has not passed, or re-picking provably returns
    the current rate, so the update is a no-op).  All arrays are per
    live row; the engine treats them as read-only snapshots.
    """

    def eligible(self) -> np.ndarray:
        raise NotImplementedError

    def current(self) -> np.ndarray:
        raise NotImplementedError

    def success_noop(self, now_ms: np.ndarray) -> np.ndarray:
        """Whether a success completing at ``now_ms`` (B, k) is a no-op."""
        raise NotImplementedError

    def commit_result(self, rows: np.ndarray, rates: np.ndarray,
                      successes: np.ndarray, now_ms: np.ndarray) -> None:
        """Apply the controller's full per-attempt update vectorized.

        Called for each tableau's *terminal* attempt (the one that broke
        the no-op success run: a failure, a sample-up success, a sample
        adoption or reversion).  Rows are cruise-eligible with zero
        retries; ``rates`` is the rate attempted (always the current
        rate, since retry ladders need retries > 0).
        """
        raise NotImplementedError


def make_batch_adapter(controllers: Sequence[RateController]) -> BatchRateAdapter:
    """Adapter for a batch: the class's vectorized one if homogeneous.

    Heterogeneous batches (mixed controller classes) are partitioned by
    class through :class:`CompositeBatchAdapter`, each class driving its
    rows with its own vectorized adapter; homogeneous ones get whatever
    ``cls.step_batch`` builds, which may itself fall back for
    unsupported configurations.  The class must define ``step_batch``
    *itself*: a subclass that merely inherits a parent's vectorized
    adapter may have overridden the scalar hooks the adapter
    replicates, so it takes the always-correct loop instead of silently
    replaying the parent's semantics.
    """
    if not controllers:
        return LoopBatchAdapter([])
    cls = type(controllers[0])
    if all(type(c) is cls for c in controllers):
        step = cls.__dict__.get("step_batch")
        if step is not None:
            return step.__get__(None, cls)(controllers)
        return LoopBatchAdapter(controllers)
    return CompositeBatchAdapter(controllers)
