"""repro: a full reproduction of "Improving Wireless Network Performance
Using Sensor Hints" (Ravindranath, Newport, Balakrishnan, Madden;
NSDI 2011 / MIT MS thesis 2010).

Subpackages
-----------
api
    The public entry point: declarative run specs (link replays, grids,
    network scenarios) planned and executed by ``repro.api.Session``.
core
    The paper's contribution: hint types, the jerk movement detector,
    heading/speed hint extraction, the Hint Protocol and the hint bus.
sensors
    Synthetic accelerometer/GPS/compass/gyro/microphone driven by
    shared motion scripts (the paper's hardware substitution).
channel
    802.11a rates, SNR/PER models, Jakes fading, environments, the
    per-5 ms-slot trace format and its generator (testbed substitution),
    and the content-addressed on-disk trace store.
mac
    802.11a timing, traffic models (UDP/simplified TCP) and the
    trace-driven link simulator (modified-ns-3 substitution) with its
    bit-identical fast/reference/batch engines.
rate
    RapidSample + hint-aware switching, and the SampleRate / RRAA /
    RBAR / CHARM baselines (Chapter 3).
topology
    Probing, delivery-probability estimation and the hint-aware
    topology maintenance protocol (Chapter 4).
vehicular
    Road networks, vehicle mobility, link duration and CTE route
    selection (Section 5.1).
network
    Multi-station, multi-AP scenarios: CSMA airtime sharing, hint-aware
    association/handoff, the scenario catalog and its batch engine.
ap
    Access-point policies: association, scheduling, disassociation
    (Section 5.2).
power, phy
    Movement-based power saving (5.4) and outdoor OFDM adaptation (5.3).
analysis
    Loss-lag correlation (Figure 3-1) and statistics helpers.
experiments
    One driver per paper table/figure plus the ordered worker map
    (``experiments.parallel``) and the full-suite runner; the README's
    "Layout" section indexes them.
"""

__version__ = "1.0.0"

from . import core, sensors  # noqa: F401  (lightweight, commonly used)

__all__ = ["api", "core", "sensors", "__version__"]


def __getattr__(name: str):
    # ``repro.api`` pulls in the mac/rate/network stacks, so it is
    # imported lazily: ``import repro`` stays light, while
    # ``repro.api.Session`` works without a separate import statement.
    if name == "api":
        import importlib

        return importlib.import_module(".api", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | {"api"})
