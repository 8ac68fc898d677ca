"""Scaling of timings to the reference host."""

import pytest

from perfbench.calibrate import REFERENCE_S, kernel_s, speed
from perfbench.sample import E2E_UNITS, scale_to_reference

MEASURED = {
    "events_per_s": 30_000.0,
    "cpu_ms_per_kevent": 33.0,
    "peak_rss_mb": 60.0,
    "setup_s": 0.005,
}


def test_speed_is_reference_over_kernel_time():
    assert speed(REFERENCE_S / 2, REFERENCE_S / 2) == pytest.approx(1.0)
    assert speed(REFERENCE_S / 4, REFERENCE_S / 4) == pytest.approx(2.0)
    assert speed(REFERENCE_S, REFERENCE_S) == pytest.approx(0.5)


def test_reference_host_reads_as_measured():
    assert scale_to_reference(MEASURED, 1.0) == MEASURED


def test_a_host_twice_as_fast_halves_rates_and_doubles_times():
    scaled = scale_to_reference(MEASURED, 2.0)
    assert set(scaled) == set(E2E_UNITS)
    assert scaled["events_per_s"] == pytest.approx(15_000.0)
    assert scaled["cpu_ms_per_kevent"] == pytest.approx(66.0)
    assert scaled["setup_s"] == pytest.approx(0.01)
    assert scaled["peak_rss_mb"] == MEASURED["peak_rss_mb"]


def test_the_same_work_in_a_slow_spell_scales_to_the_same_figures():
    # A spell that slows the kernel and the run alike leaves the scaled
    # figures where they were.
    fast = scale_to_reference(MEASURED, speed(0.05, 0.05))
    slowed = dict(MEASURED)
    slowed["events_per_s"] /= 1.7
    slowed["cpu_ms_per_kevent"] *= 1.7
    slowed["setup_s"] *= 1.7
    slow = scale_to_reference(slowed, speed(0.05 * 1.7, 0.05 * 1.7))
    for name in E2E_UNITS:
        assert slow[name] == pytest.approx(fast[name])


def test_kernel_takes_measurable_time():
    assert 0.0 < kernel_s() < 5.0
