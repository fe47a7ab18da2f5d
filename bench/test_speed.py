"""Tests of the benchmark's machine-speed probe.

    python3 -m pytest bench
"""

import signal
import time

import pytest

import speed


def test_scaled_divides_by_the_mean_probe_duration():
    samples = [speed.REFERENCE_S, 3 * speed.REFERENCE_S]
    assert speed.scaled(2.0, samples) == pytest.approx(1.0)
    assert speed.scaled(2.0, [speed.REFERENCE_S]) == pytest.approx(2.0)


def test_sampling_fires_during_the_block_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe().sampling() as samples:
        end = time.perf_counter() + 20 * speed.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(samples) > 2
    assert all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampling_restores_the_alarm_after_an_exception():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with speed.SpeedProbe().sampling():
            raise RuntimeError("boom")
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
