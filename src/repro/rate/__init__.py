"""Bit-rate adaptation protocols (Chapter 3): RapidSample and the
hint-aware switch (contributions) plus SampleRate, RRAA, RBAR, CHARM,
fixed-rate and oracle baselines."""

from .base import (
    BatchRateAdapter,
    RateController,
    make_batch_adapter,
    reads_snr,
)
from .rapidsample import RapidSample
from .samplerate import SampleRate
from .rraa import RRAA
from .rbar import RBAR, snr_to_rate
from .charm import CHARM
from .hintaware import HintAwareRateController
from .fixed import FixedRate, RoundRobin
from .oracle import OracleRate

#: Constructors (name -> seed -> controller) for every protocol in the
#: Chapter 3 comparison.  Lives here, with the protocols, so consumers
#: (experiment drivers, the network simulator) need not import each
#: other to share the registry.
RATE_PROTOCOLS = {
    "RapidSample": lambda seed: RapidSample(),
    "SampleRate": lambda seed: SampleRate(),
    "RRAA": lambda seed: RRAA(),
    "RBAR": lambda seed: RBAR(training_seed=seed),
    "CHARM": lambda seed: CHARM(training_seed=seed),
    "HintAware": lambda seed: HintAwareRateController(),
}

__all__ = [
    "RateController",
    "BatchRateAdapter",
    "make_batch_adapter",
    "reads_snr",
    "RapidSample",
    "SampleRate",
    "RRAA",
    "RBAR",
    "snr_to_rate",
    "CHARM",
    "HintAwareRateController",
    "FixedRate",
    "RoundRobin",
    "OracleRate",
    "RATE_PROTOCOLS",
]
