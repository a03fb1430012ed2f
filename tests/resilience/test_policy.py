"""Retry and deadline policy units."""

import time

import pytest

from repro.core.errors import (
    ConfigurationError,
    DeadlineExceeded,
    DeviceError,
    LaunchError,
)
from repro.resilience import Deadline, RetryPolicy


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_default_retryable_classes(self):
        policy = RetryPolicy()
        assert policy.retryable(LaunchError("x"))
        assert policy.retryable(DeviceError("x"))
        assert policy.retryable(DeadlineExceeded("x"))
        assert not policy.retryable(ConfigurationError("x"))

    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.01, multiplier=2.0, jitter=0.1,
                             seed=5)
        again = RetryPolicy(backoff_s=0.01, multiplier=2.0, jitter=0.1,
                            seed=5)
        for attempt in range(1, 6):
            base = 0.01 * 2.0 ** (attempt - 1)
            delay = policy.delay_s(attempt)
            assert delay == again.delay_s(attempt)
            assert base * 0.9 <= delay <= base * 1.1

    def test_jitter_varies_with_seed(self):
        a = RetryPolicy(seed=1).delay_s(1)
        b = RetryPolicy(seed=2).delay_s(1)
        assert a != b

    def test_call_retries_until_success(self):
        slept = []
        policy = RetryPolicy(max_attempts=3, sleep=slept.append)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise LaunchError("transient")
            return "done"

        retries = []
        value = policy.call(flaky,
                            on_retry=lambda i, e: retries.append((i, str(e))))
        assert value == "done"
        assert len(calls) == 3
        assert len(slept) == 2
        assert [i for i, _ in retries] == [1, 2]

    def test_call_gives_up_after_max_attempts(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda s: None)
        calls = []

        def always_fails():
            calls.append(1)
            raise DeviceError("down")

        with pytest.raises(DeviceError):
            policy.call(always_fails)
        assert len(calls) == 2

    def test_non_retryable_raises_immediately(self):
        policy = RetryPolicy(max_attempts=5, sleep=lambda s: None)
        calls = []

        def broken():
            calls.append(1)
            raise ConfigurationError("bad request")

        with pytest.raises(ConfigurationError):
            policy.call(broken)
        assert len(calls) == 1

    def test_as_dict(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.5, seed=9)
        payload = policy.as_dict()
        assert payload["max_attempts"] == 4
        assert payload["backoff_s"] == 0.5
        assert payload["seed"] == 9


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestDeadline:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Deadline(0)
        with pytest.raises(ConfigurationError):
            Deadline(-5)

    def test_check_with_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline(1000.0, clock=clock)
        deadline.check()
        clock.now += 0.5
        assert deadline.elapsed_ms == pytest.approx(500.0)
        assert deadline.remaining_ms == pytest.approx(500.0)
        assert not deadline.expired
        clock.now += 0.6
        assert deadline.expired
        with pytest.raises(DeadlineExceeded) as err:
            deadline.check("probe")
        assert "probe" in str(err.value)
        assert err.value.timeout_ms == 1000.0

    def test_run_returns_value_and_propagates_errors(self):
        assert Deadline(5000.0).run(lambda x: x * 2, 21) == 42
        with pytest.raises(ValueError):
            Deadline(5000.0).run(self._raise)

    @staticmethod
    def _raise():
        raise ValueError("from worker")

    def test_run_times_out_a_hung_function(self):
        with pytest.raises(DeadlineExceeded) as err:
            Deadline(30.0).run(time.sleep, 5.0)
        assert err.value.timeout_ms == 30.0
