"""Tests for retry policies and the synchronous retry wrapper."""

import pytest

from repro.common.errors import RetryExhaustedError, TransientFaultError
from repro.obs import Observability
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import (
    DEFAULT_LIFECYCLE_POLICY,
    RetryPolicy,
    call_with_retries,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=0.3, jitter=0.0,
        )
        delays = [policy.backoff_s(n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_the_fraction(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.1,
                             max_delay_s=10.0)
        rng = FaultInjector(seed=3).rng
        for _ in range(100):
            delay = policy.backoff_s(1, rng=rng)
            assert 0.9 <= delay <= 1.1

    def test_no_rng_means_no_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5,
                             max_delay_s=10.0)
        assert policy.backoff_s(1) == 1.0

    def test_failure_number_is_one_based(self):
        with pytest.raises(ValueError):
            DEFAULT_LIFECYCLE_POLICY.backoff_s(0)

    @pytest.mark.parametrize("kwargs", [
        dict(max_attempts=0),
        dict(base_delay_s=-1.0),
        dict(jitter=1.5),
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestCallWithRetries:
    def test_success_passes_the_result_through(self):
        assert call_with_retries(lambda: 42) == 42

    def test_transient_failures_are_absorbed(self):
        attempts = []

        def flaky():
            attempts.append(True)
            if len(attempts) < 3:
                raise TransientFaultError("flake")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay_s=0.0)
        assert call_with_retries(flaky, policy=policy) == "ok"
        assert len(attempts) == 3

    def test_exhaustion_raises_typed_error_from_the_last_fault(self):
        def always():
            raise TransientFaultError("still broken")

        policy = RetryPolicy(max_attempts=2, base_delay_s=0.0)
        with pytest.raises(RetryExhaustedError) as info:
            call_with_retries(always, op="boot", policy=policy)
        assert "boot failed after 2 attempt(s)" in str(info.value)
        assert isinstance(info.value.__cause__, TransientFaultError)

    def test_permanent_errors_propagate_immediately(self):
        attempts = []

        def broken():
            attempts.append(True)
            raise RuntimeError("not a fault")

        with pytest.raises(RuntimeError):
            call_with_retries(broken)
        assert len(attempts) == 1

    def test_injector_vetoes_consume_attempts(self):
        injector = FaultInjector()
        injector.fail_next("boot", times=2)
        attempts = []
        result = call_with_retries(
            lambda: attempts.append(True) or "up",
            op="boot", injector=injector,
            policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
        )
        assert result == "up"
        assert len(attempts) == 1  # two attempts were vetoed pre-call

    def test_deadline_bounds_total_elapsed_time(self):
        clock = {"now": 0.0}

        def tick_and_fail():
            clock["now"] += 10.0
            raise TransientFaultError("slow flake")

        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.0, deadline_s=15.0,
        )
        with pytest.raises(RetryExhaustedError):
            call_with_retries(
                tick_and_fail, policy=policy,
                clock=lambda: clock["now"],
            )
        # 10 s elapsed after failure 1 (< deadline), 20 s after
        # failure 2 (>= deadline): exactly two attempts ran.
        assert clock["now"] == 20.0

    def test_sleep_receives_each_backoff_delay(self):
        slept = []
        failures = []

        def flaky():
            failures.append(True)
            if len(failures) < 3:
                raise TransientFaultError("flake")
            return True

        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.1, multiplier=2.0,
            max_delay_s=1.0, jitter=0.0,
        )
        call_with_retries(flaky, policy=policy, sleep=slept.append)
        assert slept == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_retry_metrics_are_recorded(self):
        obs = Observability()
        injector = FaultInjector()
        injector.fail_next("boot", times=5)
        with pytest.raises(RetryExhaustedError):
            call_with_retries(
                lambda: True, op="boot", injector=injector,
                policy=RetryPolicy(max_attempts=3, base_delay_s=0.0),
                obs=obs,
            )
        text = obs.to_prometheus()
        assert 'resilience_retries_total{op="boot"} 2' in text
        assert 'resilience_retry_exhausted_total{op="boot"} 1' in text


class TestSuspendResumeRetries:
    """The synchronous facade path through the retry layer."""

    def _platform(self, injector):
        from repro.platform.clickos import PlatformSim

        sim = PlatformSim(
            injector=injector,
            retry_policy=RetryPolicy(max_attempts=3,
                                     base_delay_s=0.01, jitter=0.0),
        )
        sim.register_client("c", stateful=True)
        sim.force_boot("c")
        return sim

    def test_transient_suspend_fault_absorbed(self):
        injector = FaultInjector(seed=1)
        sim = self._platform(injector)
        injector.fail_next("suspend-resume", times=1)
        s_time, r_time = sim.suspend_resume_cycle("c")
        assert s_time > 0 and r_time > 0
        assert sim.switch.client_vms["c"].state == "running"
        assert len(injector.injected) == 1

    def test_exhausted_suspend_faults_surface(self):
        injector = FaultInjector(seed=1)
        sim = self._platform(injector)
        injector.fail_next("suspend-resume", times=3)
        with pytest.raises(RetryExhaustedError):
            sim.suspend_resume_cycle("c")
        # The VM was never touched: every attempt was vetoed upfront.
        assert sim.switch.client_vms["c"].state == "running"

    def test_backoff_advances_the_simulated_clock(self):
        injector = FaultInjector(seed=1)
        sim = self._platform(injector)
        injector.fail_next("suspend-resume", times=2)
        before = sim.loop.now
        sim.suspend_resume_cycle("c")
        # Two backoffs (0.01 + 0.02) plus the cycle itself.
        assert sim.loop.now - before > 0.03


class TestSwitchResumeFaults:
    """The event-driven resume path: a packet for a suspended VM
    starts a resume, and injected ``resume`` faults send the VM back
    to SUSPENDED (``VM.abort_resume``) until the retry budget runs
    out (``SwitchController._resume_failed``)."""

    def _suspended(self, injector):
        from repro.platform.clickos import PlatformSim
        from repro.platform.vm import VM_SUSPENDED

        obs = Observability()
        sim = PlatformSim(
            obs=obs, injector=injector,
            retry_policy=RetryPolicy(max_attempts=3,
                                     base_delay_s=0.01, jitter=0.0),
        )
        sim.register_client("c", stateful=True)
        sim.force_boot("c")
        vm = sim.switch.client_vms["c"]
        sim.switch.suspend_idle(vm)
        sim.loop.run()
        assert vm.state == VM_SUSPENDED
        return sim, vm, obs

    def _send_two(self, sim):
        delivered = []
        sim.switch.packet_for("c", lambda: delivered.append(1))
        # The second packet parks behind the resume already running.
        sim.switch.packet_for("c", lambda: delivered.append(2))
        sim.loop.run()
        return delivered

    def test_one_failure_retries_then_delivers_the_waiters(self):
        from repro.platform.vm import VM_RUNNING

        injector = FaultInjector(seed=1)
        sim, vm, obs = self._suspended(injector)
        injector.fail_next("resume", times=1)
        assert self._send_two(sim) == [1, 2]
        assert vm.state == VM_RUNNING
        assert vm.resume_count == 1
        assert sim.switch.resume_failures_seen == 1
        text = obs.to_prometheus()
        assert 'resilience_retries_total{op="resume"} 1' in text
        assert 'resilience_retry_exhausted_total{op="resume"}' not in text

    def test_exhausted_budget_drops_the_waiters(self):
        from repro.platform.vm import VM_RUNNING, VM_SUSPENDED

        injector = FaultInjector(seed=1)
        sim, vm, obs = self._suspended(injector)
        injector.fail_next("resume", times=3)
        assert self._send_two(sim) == []
        assert vm.state == VM_SUSPENDED  # spooled image kept
        assert vm.resume_count == 0
        assert sim.switch.resume_failures_seen == 3
        text = obs.to_prometheus()
        assert 'resilience_retries_total{op="resume"} 2' in text
        assert 'resilience_retry_exhausted_total{op="resume"} 1' in text
        # The dropped packets stay dropped; the next one resumes it.
        assert self._send_two(sim) == [1, 2]
        assert vm.state == VM_RUNNING

    @pytest.mark.parametrize("state", ["running", "suspended"])
    def test_abort_resume_outside_resuming_raises(self, state):
        from repro.common.errors import SimulationError

        _sim, vm, _obs = self._suspended(FaultInjector(seed=1))
        if state == "running":
            vm.begin_resume()
            vm.finish_resume(0.0)
        with pytest.raises(SimulationError):
            vm.abort_resume()
