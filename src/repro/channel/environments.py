"""Radio environment profiles for the paper's four settings (Section 3.3).

The paper collected traces in: (1) an office with no line of sight,
(2) a long hallway with line of sight, (3) a lightly crowded outdoor
pavement, and (4) a vehicular setting (roadside sender, receiver in a
car at 8-72 km/h).  Each :class:`Environment` bundles the propagation
parameters that distinguish these settings: path-loss law, Ricean K,
shadowing statistics and the residual (environmental) Doppler a static
node experiences.

Values are standard literature numbers for 5 GHz indoor/outdoor links,
chosen so mean SNR over the scripted trajectories lands where the
paper's rate-adaptation dynamics live (optimal rate in the middle of
the table, fading moving it around).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Environment",
    "OFFICE",
    "HALLWAY",
    "OUTDOOR",
    "VEHICULAR",
    "ENVIRONMENTS",
    "environment_by_name",
]


@dataclass(frozen=True)
class Environment:
    """Propagation profile of one experimental setting."""

    name: str
    #: Transmit power plus antenna gains (dBm).
    tx_power_dbm: float
    #: Receiver noise floor (dBm) for a 20 MHz 802.11a channel.
    noise_floor_dbm: float
    #: Path loss at the 1 m reference distance (dB); ~46 dB at 5.3 GHz.
    pathloss_ref_db: float
    #: Path-loss exponent (2 = free space; hallways duct below 2).
    pathloss_exponent: float
    #: Ricean K factor (linear). 0 = Rayleigh (dense NLOS).
    k_factor: float
    #: Log-normal shadowing standard deviation (dB).
    shadow_sigma_db: float
    #: Shadowing decorrelation distance (m).
    shadow_corr_m: float
    #: Residual Doppler for a static node (Hz): nearby people/cars.
    residual_doppler_hz: float
    #: Receiver's nominal distance from the sender at script start (m).
    base_distance_m: float

    def pathloss_db(self, distance_m: float) -> float:
        """Log-distance path loss, clamped at 1 m."""
        d = max(1.0, distance_m)
        return self.pathloss_ref_db + 10.0 * self.pathloss_exponent * math.log10(d)

    def mean_snr_db(self, distance_m: float) -> float:
        """Average SNR at a distance, before shadowing and fading."""
        return self.tx_power_dbm - self.pathloss_db(distance_m) - self.noise_floor_dbm

    def mean_snr_db_array(self, distances_m) -> np.ndarray:
        """:meth:`mean_snr_db` per element, bit-identical to the scalar.

        Stays one ``math.log10`` per distinct distance: ``np.log10`` is
        not bit-equal to it on every input, and traces must not move.
        """
        tx, noise = self.tx_power_dbm, self.noise_floor_dbm
        ref, slope = self.pathloss_ref_db, 10.0 * self.pathloss_exponent
        log10 = math.log10
        clamped = np.maximum(np.asarray(distances_m, dtype=np.float64), 1.0)
        distinct, inverse = np.unique(clamped, return_inverse=True)
        snr = np.array([tx - (ref + slope * log10(d)) - noise
                        for d in distinct.tolist()])
        return snr[inverse.reshape(clamped.shape)]

    def with_distance(self, base_distance_m: float) -> "Environment":
        """Copy of this environment at a different nominal range.

        The topology experiments (Chapter 4) place the link near the
        delivery cliff of the low rates; the rate experiments use
        mid-range links.
        """
        return replace(self, base_distance_m=base_distance_m)


# 5.3 GHz free-space loss at 1 m is ~47 dB; indoor fit constants nearby.
OFFICE = Environment(
    name="office",
    tx_power_dbm=15.0,
    noise_floor_dbm=-90.0,
    pathloss_ref_db=47.0,
    pathloss_exponent=3.2,
    k_factor=0.5,            # no line of sight: near-Rayleigh
    shadow_sigma_db=2.5,
    shadow_corr_m=4.0,
    residual_doppler_hz=0.8,  # officemates moving about
    base_distance_m=16.0,
)

HALLWAY = Environment(
    name="hallway",
    tx_power_dbm=15.0,
    noise_floor_dbm=-90.0,
    pathloss_ref_db=47.0,
    pathloss_exponent=2.0,    # mild waveguide effect along the corridor
    k_factor=7.0,             # strong line of sight
    shadow_sigma_db=2.0,
    shadow_corr_m=6.0,
    residual_doppler_hz=0.4,
    base_distance_m=60.0,
)

OUTDOOR = Environment(
    name="outdoor",
    tx_power_dbm=15.0,
    noise_floor_dbm=-90.0,
    pathloss_ref_db=47.0,
    pathloss_exponent=2.8,
    k_factor=3.0,
    shadow_sigma_db=3.0,
    shadow_corr_m=10.0,
    residual_doppler_hz=1.2,  # lightly crowded pavement
    base_distance_m=22.0,
)

VEHICULAR = Environment(
    name="vehicular",
    tx_power_dbm=15.0,
    noise_floor_dbm=-90.0,
    pathloss_ref_db=47.0,
    pathloss_exponent=2.7,
    k_factor=2.0,
    shadow_sigma_db=4.5,
    shadow_corr_m=15.0,
    residual_doppler_hz=1.5,  # passing traffic
    base_distance_m=25.0,
)

ENVIRONMENTS: dict[str, Environment] = {
    env.name: env for env in (OFFICE, HALLWAY, OUTDOOR, VEHICULAR)
}


def environment_by_name(name: str) -> Environment:
    """Look up a predefined environment.

    >>> environment_by_name("office").k_factor
    0.5
    """
    try:
        return ENVIRONMENTS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown environment {name!r}; choose from {sorted(ENVIRONMENTS)}"
        ) from None
