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
from ..core.hints import Hint

__all__ = [
    "RateController",
    "BatchRateAdapter",
    "CompositeBatchAdapter",
    "CruiseView",
    "make_batch_adapter",
    "reads_snr",
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

    def reads_snr(self) -> bool:
        """Whether :meth:`observe_snr` can matter to this controller.

        True exactly when the class overrides the base no-op.  The
        lookup goes through the class attributes at call time, so a
        wrapper installed on :class:`RateController` itself (a
        profiler's) still reads as the base method.
        """
        return type(self).observe_snr is not RateController.observe_snr

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
    def step_batch(
        cls, controllers: Sequence["RateController"]
    ) -> "BatchRateAdapter | None":
        """Build a lockstep driver for a batch of controllers of this class.

        The batch replay engine (:mod:`repro.mac.batch`) steps B links at
        once; instead of calling each controller's per-attempt methods in
        a Python loop, it asks the controller class for a
        :class:`BatchRateAdapter` that applies the same updates to all B
        links as array programs, *bit-identical* to driving the
        controllers one by one.  Fixed-rate and RapidSample override
        this: the two protocols the planner can send to the batch
        engine.  ``None`` means "no array adapter": the base class
        returns it, and so does an override handed a batch it cannot
        express; :func:`repro.mac.batch.run_batch` then replays those
        links on the fast engine.  The engine delivers neither hints nor
        SNR, so :func:`make_batch_adapter` never calls this on a class
        that overrides :meth:`on_hint` or :meth:`observe_snr`.
        """
        return None


class BatchRateAdapter:
    """Lockstep driver for B rate controllers (one per batched link).

    The batch engine calls the three per-attempt hooks with arrays instead
    of scalars.  ``rows`` selects which links an array call refers to:
    ``None`` means "all live links, in row order", otherwise an int index
    array; the value arrays are aligned with the selected rows.  Row
    indices are *dense*: when links finish, the engine first calls
    :meth:`retire` (write state back into the wrapped controller objects)
    and then :meth:`compact` with the surviving row indices.

    ``cruise`` is ``None`` or a :class:`CruiseView` enabling the
    engine's vectorized success-run fast path.  There is no hint or SNR
    hook: :func:`make_batch_adapter` gives no adapter to a controller
    class that reads either.

    Only the grid engine (:mod:`repro.mac.batch`) drives adapters; the
    scalar engines, network scenario engines included, call the
    controller objects directly.
    """

    cruise: "CruiseView | None" = None

    def __init__(self, controllers: Sequence[RateController]) -> None:
        self.controllers = list(controllers)

    @property
    def n_links(self) -> int:
        return len(self.controllers)

    def choose_rate_batch(self, rows) -> np.ndarray:
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


class CompositeBatchAdapter(BatchRateAdapter):
    """Drive a heterogeneous batch through per-class array adapters.

    :func:`make_batch_adapter` builds one when a batch mixes controller
    classes that each have an array adapter: each class drives its own
    rows, with row indexes mapped through per-group index arrays.
    Results are bit-identical to driving the controllers one by one --
    each sub-adapter already guarantees that for its class and the
    groups touch disjoint rows.  No cruise view is exposed: cruise
    tableaux need one homogeneous ``current()`` array, and
    :func:`repro.mac.batch.run_batch` partitions by class upstream.
    """

    def __init__(self, controllers: Sequence[RateController],
                 subs: Sequence[tuple[BatchRateAdapter, list[int]]]) -> None:
        super().__init__(controllers)
        self._subs: list[BatchRateAdapter] = []
        self._rows_of: list[np.ndarray] = []
        n = len(controllers)
        self._group_of = np.empty(n, dtype=np.int64)
        self._local_of = np.empty(n, dtype=np.int64)
        for slot, (sub, group) in enumerate(subs):
            rows = np.array(group, dtype=np.int64)
            self._subs.append(sub)
            self._rows_of.append(rows)
            self._group_of[rows] = slot
            self._local_of[rows] = np.arange(len(rows))

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

    def choose_rate_batch(self, rows) -> np.ndarray:
        n = len(self.controllers) if rows is None else len(rows)
        out = np.empty(n, dtype=np.int64)
        for sub, local, pos in self._split(rows):
            out[pos] = sub.choose_rate_batch(local)
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


def reads_snr(controller: object) -> bool:
    """Whether the scalar engines feed ``controller`` SNR observations.

    A :class:`RateController` answers with
    :meth:`RateController.reads_snr`; any other (duck-typed) controller
    counts as reading.  Skipping the others is unobservable: the
    observation's noise stream feeds nothing else.
    """
    return not isinstance(controller, RateController) or controller.reads_snr()


def make_batch_adapter(
    controllers: Sequence[RateController],
) -> BatchRateAdapter | None:
    """The batch's array adapter, or ``None`` when it has none.

    Controllers are grouped by class, and each class must define
    ``step_batch`` *itself*: a subclass that merely inherits a parent's
    array adapter may have overridden the scalar hooks the adapter
    replicates, so it has none rather than silently replaying the
    parent's semantics.  The batch engine delivers no hints and no SNR,
    so a class that overrides :meth:`RateController.on_hint`, or whose
    controllers read SNR (:func:`reads_snr`), has none either, whatever
    its ``step_batch``.  A homogeneous batch gets whatever its class's
    ``step_batch`` builds; a heterogeneous one gets a
    :class:`CompositeBatchAdapter` over its classes' adapters.  Either
    way one class without an adapter leaves the whole batch without.
    """
    groups: dict[type, list[int]] = {}
    for i, c in enumerate(controllers):
        groups.setdefault(type(c), []).append(i)
    subs: list[tuple[BatchRateAdapter, list[int]]] = []
    for cls, rows in groups.items():
        step = cls.__dict__.get("step_batch")
        members = [controllers[i] for i in rows]
        if step is None or cls.on_hint is not RateController.on_hint \
                or any(reads_snr(c) for c in members):
            return None
        sub = step.__get__(None, cls)(members)
        if sub is None:
            return None
        subs.append((sub, rows))
    if len(subs) == 1:
        return subs[0][0]
    return CompositeBatchAdapter(controllers, subs)
