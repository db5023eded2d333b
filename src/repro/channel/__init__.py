"""Wireless channel substrate: rates, PER models, fading, environments,
trace format and trace generation (replaces the paper's testbed)."""

from .rates import BitRate, N_RATES, RATES_MBPS, RATE_TABLE, rate_index
from .ber import BerPerModel, DEFAULT_PER_MODEL, LogisticPerModel, PerModel
from .fading import (
    CARRIER_HZ_80211A,
    RiceanFadingProcess,
    coherence_time_s,
    doppler_hz,
    wavelength_m,
)
from .environments import (
    ENVIRONMENTS,
    Environment,
    HALLWAY,
    OFFICE,
    OUTDOOR,
    VEHICULAR,
    environment_by_name,
)
from .trace import SLOT_S, ChannelTrace, concat_traces
from .tracegen import TraceGenerator, generate_packet_loss_series, generate_trace
from .store import STORE_VERSION, TraceStore, get_store
from .gilbert import GilbertElliott

__all__ = [
    "BitRate",
    "N_RATES",
    "RATES_MBPS",
    "RATE_TABLE",
    "rate_index",
    "PerModel",
    "LogisticPerModel",
    "BerPerModel",
    "DEFAULT_PER_MODEL",
    "RiceanFadingProcess",
    "coherence_time_s",
    "doppler_hz",
    "wavelength_m",
    "CARRIER_HZ_80211A",
    "Environment",
    "OFFICE",
    "HALLWAY",
    "OUTDOOR",
    "VEHICULAR",
    "ENVIRONMENTS",
    "environment_by_name",
    "ChannelTrace",
    "SLOT_S",
    "concat_traces",
    "TraceGenerator",
    "generate_trace",
    "generate_packet_loss_series",
    "STORE_VERSION",
    "TraceStore",
    "get_store",
    "GilbertElliott",
]
