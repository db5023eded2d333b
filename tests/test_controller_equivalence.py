"""Rewritten scalar controllers against their oracle, decision for decision.

SampleRate runs on Python lists, tuple window records and per-rate
airtime tables; CHARM and ``snr_to_rate`` compare against exact float
SNR thresholds instead of evaluating the logistic PER curve; the
hint-aware switch binds its active side's hooks once per switch.  None
of that may move a decision or a state bit, so this module drives the
new controllers and the pre-rewrite bodies in :mod:`controller_oracle`
through the same random call sequences (hypothesis) and compares every
returned rate and the full state after every call.  Seeded long drives
check that those sequences reach the corner cases (window expiry, the
four-failure quarantine and its lapse, sampling draws, margin
saturation, NaN/inf averages, hint switches).

Separate checks pin the threshold construction itself: ``x >= t_r``
must equal ``per(x) <= max_per`` on every float within 20 000 ulps of
each threshold, and walks across every CHARM threshold boundary land on
the boundary exactly (so a strict ``>`` fails) and reach averages where
another association of ``avg - margin - bias`` decides differently (so
a reordered subtraction fails).
"""

import math
import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import controller_oracle as oracle
from repro.channel.ber import DEFAULT_PER_MODEL, BerPerModel, LogisticPerModel
from repro.channel.rates import N_RATES
from repro.core.hints import MovementHint
from repro.mac import SimConfig, UdpSource
from repro.mac.batch import BatchLinkSpec, run_batch
from repro.experiments.common import cached_hints, cached_trace
from repro.rate import CHARM, RBAR, HintAwareRateController, SampleRate
from repro.rate.rbar import rate_thresholds, snr_to_rate

_SETTINGS = dict(max_examples=60, deadline=None, print_blob=True,
                 suppress_health_check=[HealthCheck.too_slow])

#: Floats checked on each side of every threshold.
_ULPS = 20_000

_SIGN = np.int64(-(1 << 63))
_MODELS = {
    "logistic": DEFAULT_PER_MODEL,
    "steep-2.5": LogisticPerModel(steepness_per_db=2.5),
}
_SPECIALS = (math.nan, math.inf, -math.inf)


def _bits(x) -> bytes:
    """A float's bit pattern: an equality that also holds for NaN."""
    return struct.pack("<d", float(x))


def _around(x: float, ulps: int) -> np.ndarray:
    """Every finite float within ``ulps`` representable steps of ``x``."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    key = -(bits & 0x7FFF_FFFF_FFFF_FFFF) if bits < 0 else bits
    keys = np.arange(key - ulps, key + ulps + 1, dtype=np.int64)
    floats = np.where(keys < 0, (-keys) | _SIGN, keys).view(np.float64)
    return floats[np.isfinite(floats)]


# ----------------------------------------------------------------------
# State snapshots
# ----------------------------------------------------------------------
def _samplerate_state(c) -> tuple:
    records = [(r.time_ms, r.rate, r.success, r.airtime_us)
               if isinstance(r, oracle._TxRecord) else r for r in c._records]
    return (
        [(_bits(t), int(r), bool(s), _bits(a)) for t, r, s, a in records],
        [_bits(x) for x in c._tx_time_us],
        [int(x) for x in c._successes],
        [int(x) for x in c._failures],
        [int(x) for x in c._consecutive_failures],
        c._packet_count, int(c._current), c._sampling_rate,
        c._rng.bit_generator.state,
    )


def _charm_state(c) -> tuple:
    return ([(_bits(t), _bits(s)) for t, s in c._samples],
            _bits(c._snr_sum), _bits(c._margin_db))


def _rapidsample_state(c) -> tuple:
    return (c._failed_time, c._picked_time, c._current, c._sampling,
            c._old_rate, c._have_result)


_SIDE_STATE = {"SampleRate": _samplerate_state, "CHARM": _charm_state,
               "RapidSample": _rapidsample_state}


def _state(c) -> tuple:
    if c.name == "HintAware":
        return (c.moving, c.switch_count,
                _SIDE_STATE[c._mobile.name](c._mobile),
                _SIDE_STATE[c._static.name](c._static))
    return _SIDE_STATE[c.name](c)


# ----------------------------------------------------------------------
# Lockstep replay of call sequences
# ----------------------------------------------------------------------
def _note(seen: set, ctrl, before: tuple) -> None:
    """Record which corner cases the decision just taken went through."""
    records, consec = before
    if ctrl.name == "HintAware":
        ctrl = ctrl._static
    if ctrl.name == "SampleRate":
        if len(ctrl._records) < records:
            seen.add("window expiry")
        if any(b >= 4 and a == 0
               for b, a in zip(consec, ctrl._consecutive_failures)):
            seen.add("quarantine lapse")
        if any(c >= 4 and s == 0 for c, s in
               zip(ctrl._consecutive_failures, ctrl._successes)):
            seen.add("quarantine")
        if ctrl._sampling_rate is not None:
            seen.add("sampling draw")
    elif ctrl.name == "CHARM" and ctrl._samples:
        avg = ctrl._snr_sum / len(ctrl._samples)
        if math.isnan(avg):
            seen.add("nan average")
        elif math.isinf(avg):
            seen.add("inf average")
        if ctrl._max_margin > 0 and ctrl._margin_db == ctrl._max_margin:
            seen.add("margin at cap")
        elif ctrl._margin_db == 0.0 and "margin at cap" in seen:
            seen.add("margin back to zero")


def _before(ctrl) -> tuple:
    side = ctrl._static if ctrl.name == "HintAware" else ctrl
    return (len(getattr(side, "_records", ())),
            list(getattr(side, "_consecutive_failures", ())))


def _drive(new, old, ops, seen: set | None = None) -> None:
    """Apply ``ops`` to both controllers, comparing every output and state.

    Each op is ``(dt_ms, event, snr, rate, outcome)``: advance the
    clock by ``dt_ms``; deliver ``event`` (a movement hint's ``moving``
    flag, ``"reset"`` or ``None``); observe ``snr`` unless ``None``;
    choose a rate; then report an outcome for ``rate`` (``None``: the
    chosen rate).  ``outcome`` is a bool, an int ``k`` (the channel
    carries rates ``<= k``), or ``None`` to skip the report.
    """
    now = 0.0
    assert _state(new) == _state(old)
    for dt, event, snr, rate, outcome in ops:
        now += dt
        if event == "reset":
            new.reset()
            old.reset()
        elif event is not None:
            switches = old.switch_count
            hint = MovementHint(time_s=now / 1e3, moving=event)
            new.on_hint(hint)
            old.on_hint(hint)
            if seen is not None and old.switch_count > switches:
                seen.add("hint switch")
        if snr is not None:
            new.observe_snr(snr, now)
            old.observe_snr(snr, now)
        before = _before(old)
        chosen = new.choose_rate(now)
        assert chosen == old.choose_rate(now)
        assert type(chosen) is int
        assert _state(new) == _state(old)
        if seen is not None:
            _note(seen, old, before)
        if outcome is None:
            continue
        report = chosen if rate is None else min(rate, new.n_rates - 1)
        success = outcome if isinstance(outcome, bool) else report <= outcome
        new.on_result(report, success, now)
        old.on_result(report, success, now)
        assert _state(new) == _state(old)


_dt = st.sampled_from([0.0, 0.3, 1.0, 4.0, 25.0, 120.0])
_rate = st.one_of(st.none(), st.none(), st.integers(0, N_RATES - 1))
_outcome = st.one_of(st.integers(0, N_RATES - 1), st.integers(0, N_RATES - 1),
                     st.booleans(), st.none())
_snr = st.one_of(st.floats(-10.0, 45.0), st.floats(-10.0, 45.0), st.none(),
                 st.sampled_from(_SPECIALS))
_event = st.one_of(st.none(), st.none(), st.none(), st.booleans(),
                   st.just("reset"))


def _ops(event=st.none(), snr=st.none()):
    return st.lists(st.tuples(_dt, event, snr, _rate, _outcome),
                    min_size=1, max_size=200)


def _seeded_ops(seed: int, n: int, *, events: bool = False,
                snrs: bool = False) -> list:
    """A long op list from a NumPy seed, with failure-heavy stretches."""
    rng = np.random.default_rng(seed)
    ops = []
    cap = N_RATES - 1
    for i in range(n):
        if i % 150 == 0:
            cap = int(rng.integers(0, N_RATES))
        event = None
        if events and rng.random() < 0.02:
            event = bool(rng.random() < 0.5)
        snr = None
        if snrs:
            snr = (float(rng.choice(_SPECIALS)) if rng.random() < 0.003
                   else float(rng.normal(18.0, 8.0)))
        dt = float(rng.choice([0.0, 0.3, 1.0, 4.0, 25.0, 400.0],
                              p=[.1, .4, .3, .15, .04, .01]))
        outcome = cap if rng.random() < 0.9 else bool(rng.random() < 0.5)
        ops.append((dt, event, snr, None, outcome))
    return ops


# ----------------------------------------------------------------------
# SampleRate
# ----------------------------------------------------------------------
_samplerate_params = st.fixed_dictionaries({
    "n_rates": st.sampled_from([N_RATES, 5]),
    "window_s": st.sampled_from([0.02, 0.1, 0.5, 10.0]),
    "sample_every": st.sampled_from([2, 3, 10]),
    "payload_bytes": st.sampled_from([200, 1000, 1500]),
    "seed": st.integers(0, 2**16),
})


class TestSampleRateOracle:
    @settings(**_SETTINGS)
    @given(params=_samplerate_params, ops=_ops())
    def test_random_sequences_match(self, params, ops):
        _drive(SampleRate(**params), oracle.SampleRate(**params), ops)

    @settings(**_SETTINGS)
    @given(data=st.data(), n_rates=st.sampled_from([N_RATES, 5]),
           seed=st.integers(0, 2**16))
    def test_arbitrary_states_match(self, data, n_rates, seed):
        """Hand-set window statistics, including states a replay cannot
        reach: exact score ties (strict ``<`` keeps the slower rate),
        quarantine counts without attempts, every score ``inf``."""
        new, old = SampleRate(n_rates, seed=seed), \
            oracle.SampleRate(n_rates, seed=seed)
        counts = st.integers(0, 3)
        succ = data.draw(st.lists(counts, min_size=n_rates, max_size=n_rates))
        fail = data.draw(st.lists(counts, min_size=n_rates, max_size=n_rates))
        consec = data.draw(st.lists(st.integers(0, 6), min_size=n_rates,
                                    max_size=n_rates))
        # Averages drawn from the lossless airtimes make ties likely.
        avg = data.draw(st.lists(st.sampled_from(new._lossless_us),
                                 min_size=n_rates, max_size=n_rates))
        tx = [a * s for a, s in zip(avg, succ)]
        new._successes, new._failures = list(succ), list(fail)
        new._consecutive_failures, new._tx_time_us = list(consec), list(tx)
        old._successes = np.array(succ, dtype=np.int64)
        old._failures = np.array(fail, dtype=np.int64)
        old._consecutive_failures = np.array(consec, dtype=np.int64)
        old._tx_time_us = np.array(tx)
        best = new._best_rate()
        assert best == old._best_rate()
        assert new._pick_sample_rate(best) == old._pick_sample_rate(best)
        for now in (0.0, 1.0):
            assert new.choose_rate(now) == old.choose_rate(now)
            assert _state(new) == _state(old)

    @pytest.mark.parametrize("consec", [3, 4, 5])
    def test_quarantine_bars_an_unproven_rate_from_four_failures(self, consec):
        new, old = SampleRate(), oracle.SampleRate()
        new._consecutive_failures[7] = old._consecutive_failures[7] = consec
        assert new._best_rate() == old._best_rate() == (7 if consec < 4 else 6)

    def test_seeded_drives_reach_corner_cases(self):
        seen: set = set()
        for seed, window_s in ((0, 0.05), (1, 0.2), (2, 1.0)):
            params = dict(window_s=window_s, seed=seed)
            _drive(SampleRate(**params), oracle.SampleRate(**params),
                   _seeded_ops(seed, 2000), seen)
        assert seen >= {"window expiry", "quarantine", "quarantine lapse",
                        "sampling draw"}


# ----------------------------------------------------------------------
# CHARM
# ----------------------------------------------------------------------
_charm_params = st.fixed_dictionaries({
    "window_ms": st.sampled_from([5.0, 50.0, 1000.0]),
    "per_model": st.sampled_from(sorted(_MODELS)).map(_MODELS.get),
    "max_per": st.sampled_from([0.1, 0.02, 0.5]),
    "payload_bytes": st.sampled_from([200, 1000, 1500]),
    "margin_step_db": st.sampled_from([0.25, 1.0, 4.0]),
    "max_margin_db": st.sampled_from([0.5, 2.0, 6.0]),
    "training_error_db": st.sampled_from([0.0, 1.5, 4.0]),
    "training_seed": st.integers(0, 2**16),
})


class TestCharmOracle:
    @settings(**_SETTINGS)
    @given(params=_charm_params, ops=_ops(snr=_snr))
    def test_random_sequences_match(self, params, ops):
        _drive(CHARM(**params), oracle.CHARM(**params), ops)

    def test_seeded_drives_reach_corner_cases(self):
        seen: set = set()
        for seed in range(4):
            params = dict(training_seed=seed, window_ms=50.0,
                          margin_step_db=1.0, max_margin_db=2.0)
            _drive(CHARM(**params), oracle.CHARM(**params),
                   _seeded_ops(seed, 3000, snrs=True), seen)
        assert seen >= {"margin at cap", "margin back to zero",
                        "nan average", "inf average"}

    @pytest.mark.parametrize("payload", [200, 1000, 1500])
    @pytest.mark.parametrize("model", sorted(_MODELS))
    def test_boundary_walk_matches_and_has_power(self, model, payload):
        """Averages within a few ulps of every rate's decision boundary.

        The walk must land exactly on a threshold (``effective == t_r``,
        where ``>`` and ``>=`` disagree) and must reach averages where
        ``avg - (margin + bias)`` decides differently from ``(avg -
        margin) - bias`` -- so both mutants fail this test.
        """
        exact = reordered = 0
        for seed in range(3):
            params = dict(per_model=_MODELS[model], payload_bytes=payload,
                          training_seed=seed)
            new, old = CHARM(**params), oracle.CHARM(**params)
            thresholds = rate_thresholds(_MODELS[model], 0.1, payload).snr_db
            for margin in (0.0, 0.25, 1.75, 6.0):
                for r in range(1, N_RATES):
                    bias, t = new._bias[r], thresholds[r]
                    for avg in _around((t + bias) + margin, 24).tolist():
                        for c in (new, old):
                            c._samples = deque([(0.0, avg)])
                            c._snr_sum = avg
                            c._margin_db = margin
                        assert new.choose_rate(0.0) == old.choose_rate(0.0)
                        exact += (avg - margin) - bias == t
                        reordered += (((avg - margin) - bias >= t)
                                      != (avg - (margin + bias) >= t))
        assert exact > 0 and reordered > 0


# ----------------------------------------------------------------------
# Hint-aware switch
# ----------------------------------------------------------------------
_hintaware_params = st.fixed_dictionaries({
    "static": st.sampled_from(["SampleRate", "CHARM"]),
    "reset_on_switch": st.booleans(),
    "initially_moving": st.booleans(),
})


def _hintaware_pair(static: str, static_kwargs=None, **kwargs):
    sides = {"SampleRate": (SampleRate, oracle.SampleRate),
             "CHARM": (CHARM, oracle.CHARM)}[static]
    static_kwargs = static_kwargs or {}
    return (HintAwareRateController(static=sides[0](**static_kwargs),
                                    **kwargs),
            oracle.HintAware(static=sides[1](**static_kwargs), **kwargs))


class TestHintAwareOracle:
    @settings(**_SETTINGS)
    @given(params=_hintaware_params, ops=_ops(event=_event, snr=_snr))
    def test_random_sequences_match(self, params, ops):
        _drive(*_hintaware_pair(**params), ops)

    def test_seeded_drives_reach_corner_cases(self):
        seen: set = set()
        for seed in range(2):
            _drive(*_hintaware_pair("SampleRate", {"window_s": 0.5}),
                   _seeded_ops(seed, 2000, events=True), seen)
        assert seen >= {"hint switch", "window expiry", "sampling draw"}

    def test_hooks_follow_the_side_after_run_batch(self):
        """``run_batch`` replays the switch (no array adapter) on the
        fast engine; the bound hooks serve the side active afterwards."""
        trace = cached_trace("office", "mixed", 3, 4.0)
        hints = cached_hints("mixed", 3, 4.0)
        ctrl = HintAwareRateController(initially_moving=True)
        run_batch([BatchLinkSpec(trace=trace, controller=ctrl,
                                 traffic=UdpSource(), hint_series=hints,
                                 config=SimConfig(seed=3))])
        assert ctrl.switch_count > 0
        assert ctrl._choose.__self__ is ctrl.active
        assert ctrl._learn.__self__ is ctrl.active


# ----------------------------------------------------------------------
# Exact SNR thresholds
# ----------------------------------------------------------------------
_THRESHOLD_CASES = [(name, payload, 0.1) for name in sorted(_MODELS)
                    for payload in (200, 1000, 1500)]
_THRESHOLD_CASES += [("logistic", 1000, 0.02), ("logistic", 200, 0.5)]


class TestExactThresholds:
    @pytest.mark.parametrize("name,payload,max_per", _THRESHOLD_CASES)
    def test_threshold_equals_per_verdict_around_it(self, name, payload,
                                                    max_per):
        model = _MODELS[name]
        thresholds, nan_passes = rate_thresholds(model, max_per, payload)
        rng = np.random.default_rng(payload)
        sweep = np.concatenate([rng.uniform(-100.0, 100.0, 2000),
                                [-1e300, -1e10, 0.0, -0.0, 1e10, 1e300],
                                _SPECIALS[1:]])
        for r, t in enumerate(thresholds):
            assert math.isfinite(t)
            xs = np.concatenate([_around(t, _ULPS), sweep]).tolist()
            want = [model.per(x, r, payload) <= max_per for x in xs]
            assert [x >= t for x in xs] == want, (name, payload, r)
            assert nan_passes[r] == (model.per(math.nan, r, payload)
                                     <= max_per)

    def test_unreachable_and_universal_thresholds(self):
        """A PER target no SNR meets has a NaN threshold (``>=`` never
        holds); a target every SNR meets has ``-inf``."""
        never, _ = rate_thresholds(DEFAULT_PER_MODEL, -1.0, 1000)
        always, _ = rate_thresholds(DEFAULT_PER_MODEL, 1.0, 1000)
        assert all(math.isnan(t) for t in never)
        assert all(t == -math.inf for t in always)
        assert snr_to_rate(math.inf, max_per=-1.0) == 0
        assert snr_to_rate(-math.inf, max_per=1.0) == N_RATES - 1

    def test_nan_average_picks_the_top_rate(self):
        assert oracle.snr_to_rate(math.nan) == snr_to_rate(math.nan) \
            == N_RATES - 1

    @settings(**_SETTINGS)
    @given(data=st.data(),
           name=st.sampled_from(sorted(_MODELS)),
           payload=st.sampled_from([200, 1000, 1500]),
           max_per=st.sampled_from([0.1, 0.02, 0.5]),
           margin=st.one_of(st.floats(0.0, 8.0), st.sampled_from(_SPECIALS)),
           bias=st.one_of(
               st.none(),
               st.lists(st.one_of(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0),
                                  st.sampled_from(_SPECIALS)),
                        min_size=N_RATES, max_size=N_RATES)))
    def test_snr_to_rate_matches_per_loop(self, data, name, payload, max_per,
                                          margin, bias):
        model = _MODELS[name]
        thresholds = rate_thresholds(model, max_per, payload).snr_db
        r = data.draw(st.integers(1, N_RATES - 1))
        centre = thresholds[r] + margin + (0.0 if bias is None else bias[r])
        near = (_around(centre, 4).tolist()
                if math.isfinite(centre) else [centre])
        snr = data.draw(st.one_of(st.floats(-30.0, 60.0),
                                  st.sampled_from(_SPECIALS),
                                  st.sampled_from(near)))
        args = (snr, model, max_per, payload, margin, bias)
        assert snr_to_rate(*args) == oracle.snr_to_rate(*args)

    def test_snr_to_rate_boundary_walk(self):
        """As CHARM's boundary walk, through ``snr_to_rate`` itself."""
        rng = np.random.default_rng(0)
        exact = reordered = 0
        for payload in (200, 1000, 1500):
            thresholds = rate_thresholds(None, 0.1, payload).snr_db
            for margin in (0.0, 0.25, 1.75, 6.0) * 6:
                bias = rng.normal(0.0, 1.5, N_RATES).tolist()
                for r in range(1, N_RATES):
                    t = thresholds[r]
                    for snr in _around((t + bias[r]) + margin, 24).tolist():
                        args = (snr, None, 0.1, payload, margin, bias)
                        assert snr_to_rate(*args) == oracle.snr_to_rate(*args)
                        exact += (snr - margin) - bias[r] == t
                        reordered += (((snr - margin) - bias[r] >= t)
                                      != (snr - (margin + bias[r]) >= t))
        assert exact > 0 and reordered > 0

    def test_ber_model_thresholds_match_per(self):
        """The physical model's ``per`` is defined on every float (its
        linear SNR saturates instead of overflowing), so it trains
        thresholds too, and ``snr_to_rate`` over them agrees with the
        per loop."""
        model = BerPerModel()
        assert model.per(1e308, N_RATES - 1) == model.per(math.inf,
                                                           N_RATES - 1) == 0.0
        thresholds, nan_passes = rate_thresholds(model, 0.1, 1000)
        assert all(math.isfinite(t) for t in thresholds)
        assert not any(nan_passes)
        rng = np.random.default_rng(7)
        snrs = np.concatenate([rng.uniform(-30.0, 60.0, 3000),
                               [-1e300, 1e300, 3079.0, 3090.0],
                               _SPECIALS]).tolist()
        for t in thresholds:
            snrs += _around(t, 8).tolist()
        for snr in snrs:
            assert snr_to_rate(snr, model) == oracle.snr_to_rate(snr, model)

    @pytest.mark.parametrize("seed,error_db", [(0, 1.5), (5, 4.0), (2, 0.0)])
    def test_rbar_lut_matches_per_loop(self, seed, error_db):
        ctrl = RBAR(training_seed=seed, training_error_db=error_db)
        assert ctrl._lut == [
            oracle.snr_to_rate(s, DEFAULT_PER_MODEL, 0.1, 1000,
                               threshold_bias_db=ctrl._bias)
            for s in range(ctrl._lut_lo, ctrl._lut_hi + 1)
        ]

    @pytest.mark.parametrize("seed,error_db", [(0, 1.5), (5, 4.0), (2, 0.0)])
    def test_rbar_non_finite_snr(self, seed, error_db):
        """``int(round(.))`` takes neither infinity nor NaN: ``±inf``
        clamps to an end of the table and NaN takes the model's
        ``per(nan)`` verdict, as CHARM's average does."""
        ctrl = RBAR(training_seed=seed, training_error_db=error_db)
        picks = {}
        for snr in _SPECIALS:
            ctrl.observe_snr(snr, 0.0)
            picks[snr] = ctrl.choose_rate(0.0)
        assert picks[math.inf] == ctrl._lut[-1] == N_RATES - 1
        assert picks[-math.inf] == ctrl._lut[0] == 0
        assert picks[math.nan] == oracle.snr_to_rate(
            math.nan, threshold_bias_db=ctrl._bias) == N_RATES - 1
        for snr in _SPECIALS:
            charm = CHARM(training_seed=seed)
            charm.observe_snr(snr, 0.0)
            assert charm.choose_rate(0.0) == picks[snr]
        # Finite SNRs still index the table, clamped at its ends.
        for snr in (-1e300, -20.6, -0.5, 0.5, 17.49, 17.5, 60.4, 1e300):
            ctrl.observe_snr(snr, 0.0)
            idx = min(max(int(round(snr)) - ctrl._lut_lo, 0),
                      len(ctrl._lut) - 1)
            assert ctrl.choose_rate(0.0) == ctrl._lut[idx]
