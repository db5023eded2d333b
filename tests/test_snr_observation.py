"""SNR observation runs only for controllers that can read it.

The fast engine (:class:`~repro.mac.LinkProcess`, which the network
scenario engines step too) computes the observed SNR, draws its noise
and calls ``observe_snr`` only when :func:`repro.rate.reads_snr` says
the controller reads it: a :class:`~repro.rate.RateController` whose
class overrides the base no-op, a hint-aware switch with such a side,
or any duck-typed controller.  The reference engine observes on every
attempt, so fast == reference with observation noise on proves the
skip unobservable, and recording controllers prove that readers still
get the reference's exact observation sequence.
"""

import pytest

from test_engine_equivalence import assert_results_identical

from repro.experiments.common import cached_hints, cached_trace
from repro.mac import SimConfig, TcpSource, UdpSource, run_link
from repro.rate import (
    CHARM,
    RATE_PROTOCOLS,
    RBAR,
    RRAA,
    FixedRate,
    HintAwareRateController,
    OracleRate,
    RapidSample,
    RoundRobin,
    SampleRate,
    reads_snr,
)
from repro.rate.base import RateController

_SEED = 3
_DURATION_S = 4.0
#: Observation noise and a calibration bias, both on.
_NOISY = dict(snr_obs_noise_db=2.5, snr_calibration_error_db=1.0)


def _replay(controller, engine: str, tcp: bool = True, **config):
    trace = cached_trace("office", "mixed", _SEED, _DURATION_S)
    hints = cached_hints("mixed", _SEED, _DURATION_S)
    traffic = TcpSource() if tcp else UdpSource()
    return run_link(trace, controller, traffic=traffic, hint_series=hints,
                    config=SimConfig(seed=_SEED, engine=engine, **config))


class _DuckRecorder:
    """Not a RateController: a CHARM behind a log of observations."""

    def __init__(self) -> None:
        self.inner = CHARM(training_seed=_SEED)
        self.seen: list[tuple[float, float]] = []

    def choose_rate(self, now_ms):
        return self.inner.choose_rate(now_ms)

    def on_result(self, rate_index, success, now_ms):
        self.inner.on_result(rate_index, success, now_ms)

    def observe_snr(self, snr_db, now_ms):
        self.seen.append((snr_db, now_ms))
        self.inner.observe_snr(snr_db, now_ms)

    def on_hint(self, hint):
        self.inner.on_hint(hint)


class _RecordingCHARM(CHARM):
    def __init__(self) -> None:
        super().__init__(training_seed=_SEED)
        self.seen: list[tuple[float, float]] = []

    def observe_snr(self, snr_db, now_ms):
        self.seen.append((snr_db, now_ms))
        super().observe_snr(snr_db, now_ms)


#: Every RATE_PROTOCOLS entry plus a hint-aware switch with an
#: SNR-reading static side.
_FACTORIES = dict(RATE_PROTOCOLS)
_FACTORIES["HintAware-CHARM"] = lambda seed: HintAwareRateController(
    static=CHARM(training_seed=seed))


class TestFastMatchesReference:
    @pytest.mark.parametrize("tcp", [True, False])
    @pytest.mark.parametrize("protocol", sorted(_FACTORIES))
    def test_with_observation_noise(self, protocol, tcp):
        make = _FACTORIES[protocol]
        ref = _replay(make(_SEED), "reference", tcp, **_NOISY)
        fast = _replay(make(_SEED), "fast", tcp, **_NOISY)
        assert_results_identical(ref, fast)

    @pytest.mark.parametrize("snr_feedback", [True, False])
    @pytest.mark.parametrize("make", [_DuckRecorder, _RecordingCHARM])
    def test_readers_see_the_reference_observations(self, make,
                                                    snr_feedback):
        ref_ctrl, fast_ctrl = make(), make()
        ref = _replay(ref_ctrl, "reference", snr_feedback=snr_feedback,
                      **_NOISY)
        fast = _replay(fast_ctrl, "fast", snr_feedback=snr_feedback,
                       **_NOISY)
        assert_results_identical(ref, fast)
        assert fast_ctrl.seen == ref_ctrl.seen
        assert len(fast_ctrl.seen) == (ref.attempts if snr_feedback else 0)


class TestReadsSnrRule:
    @pytest.mark.parametrize("make,reads", [
        (RapidSample, False),
        (SampleRate, False),
        (RRAA, False),
        (lambda: RBAR(training_seed=_SEED), True),
        (lambda: CHARM(training_seed=_SEED), True),
        (HintAwareRateController, False),
        (lambda: HintAwareRateController(static=CHARM()), True),
        (lambda: HintAwareRateController(mobile=RBAR()), True),
        (lambda: HintAwareRateController(static=_DuckRecorder()), True),
        (lambda: FixedRate(3), False),
        (RoundRobin, False),
        (lambda: OracleRate(cached_trace("office", "mixed", _SEED,
                                         _DURATION_S)), False),
        (_RecordingCHARM, True),
        (_DuckRecorder, True),
    ])
    def test_builtin_answers(self, make, reads):
        assert reads_snr(make()) is reads

    @pytest.mark.parametrize("protocol,reads", [
        ("RapidSample", False), ("SampleRate", False), ("RRAA", False),
        ("RBAR", True), ("CHARM", True), ("HintAware", False),
    ])
    def test_registry_answers(self, protocol, reads):
        assert reads_snr(RATE_PROTOCOLS[protocol](_SEED)) is reads

    def test_skip_holds_under_a_base_class_wrapper(self, monkeypatch):
        """A profiler rewrapping ``RateController.observe_snr`` (as
        perfbench's tracer does) leaves the rule's answer alone: the
        fast engine still skips, the reference still observes."""
        calls = []
        original = RateController.__dict__["observe_snr"]

        def observe_snr(self, snr_db, now_ms):
            calls.append(snr_db)
            return original(self, snr_db, now_ms)

        monkeypatch.setattr(RateController, "observe_snr", observe_snr)
        assert not reads_snr(RapidSample())
        fast = _replay(RapidSample(), "fast", **_NOISY)
        assert calls == []
        ref = _replay(RapidSample(), "reference", **_NOISY)
        assert len(calls) == ref.attempts
        assert_results_identical(ref, fast)
