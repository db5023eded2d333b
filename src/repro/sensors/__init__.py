"""Synthetic sensor substrate: accelerometer, GPS, compass, gyro, mic.

Every sensor samples a shared :class:`~repro.sensors.trajectory.MotionScript`
ground truth and corrupts it with a calibrated noise model, replacing the
paper's physical sensors.
"""

from .base import Sensor, SensorReading
from .trajectory import (
    Motion,
    MotionScript,
    MotionSegment,
    MotionState,
    WALKING_SPEED,
    drive_by_script,
    driving_script,
    mixed_mobility_script,
    pacing_script,
    script_from_segments,
    segments_of,
    stationary_script,
    stop_and_go_script,
    walking_script,
)
from .accelerometer import ACCEL_RATE_HZ, Accelerometer
from .compass import COMPASS_RATE_HZ, Compass
from .gps import GPS_RATE_HZ, Gps, GpsReading
from .gyroscope import GYRO_RATE_HZ, Gyroscope
from .microphone import MIC_RATE_HZ, Microphone, noise_variation

__all__ = [
    "Sensor",
    "SensorReading",
    "Motion",
    "MotionScript",
    "MotionSegment",
    "MotionState",
    "WALKING_SPEED",
    "stationary_script",
    "walking_script",
    "driving_script",
    "mixed_mobility_script",
    "pacing_script",
    "stop_and_go_script",
    "drive_by_script",
    "segments_of",
    "script_from_segments",
    "Accelerometer",
    "ACCEL_RATE_HZ",
    "Compass",
    "COMPASS_RATE_HZ",
    "Gps",
    "GpsReading",
    "GPS_RATE_HZ",
    "Gyroscope",
    "GYRO_RATE_HZ",
    "Microphone",
    "MIC_RATE_HZ",
    "noise_variation",
]
