"""Unit tests for the fault-injection layer itself (`repro.faults`).

Rule triggers, plan determinism, JSON round-trips, the ambient
activate/fire API, listeners, and the retry/breaker primitives the
hardening layers are built on.
"""

import json
import time

import pytest

from repro import faults
from repro.errors import ReproError
from repro.faults import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    RetryPolicy,
)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestFaultRule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="oracle.query", kind="meteor")

    def test_missing_site_rejected(self):
        with pytest.raises(ValueError):
            FaultRule(site="", kind="error")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fields"):
            FaultRule.from_dict({"site": "s", "kind": "error", "zap": 1})

    def test_on_nth_fires_exactly_once(self):
        plan = FaultPlan(rules=[
            FaultRule(site="s", kind="error", on_nth=3),
        ])
        fired = [plan.decide("s") is not None for _ in range(6)]
        assert fired == [False, False, True, False, False, False]

    def test_every_fires_periodically(self):
        plan = FaultPlan(rules=[FaultRule(site="s", kind="error", every=2)])
        fired = [plan.decide("s") is not None for _ in range(6)]
        assert fired == [False, True, False, True, False, True]

    def test_max_fires_caps_injections(self):
        plan = FaultPlan(rules=[
            FaultRule(site="s", kind="error", every=1, max_fires=2),
        ])
        fired = [plan.decide("s") is not None for _ in range(5)]
        assert fired == [True, True, False, False, False]

    def test_probability_trigger_is_seed_deterministic(self):
        def run(seed):
            plan = FaultPlan(
                rules=[FaultRule(site="s", kind="error", p=0.5)], seed=seed
            )
            return [plan.decide("s") is not None for _ in range(64)]

        assert run(42) == run(42)
        assert run(42) != run(43)  # astronomically unlikely to collide
        assert any(run(42))
        assert not all(run(42))


class TestFaultPlan:
    def test_sites_count_independently(self):
        plan = FaultPlan(rules=[FaultRule(site="b", kind="error", on_nth=1)])
        # Calls to site "a" must not advance site "b"'s counter.
        for _ in range(5):
            assert plan.decide("a") is None
        assert plan.decide("b") is not None
        assert plan.calls("a") == 5
        assert plan.calls("b") == 1

    def test_injection_trace_has_sequence_numbers_not_timestamps(self):
        plan = FaultPlan(rules=[FaultRule(site="s", kind="error", every=1)])
        plan.decide("s")
        plan.decide("s")
        assert plan.trace() == [
            {"seq": 1, "site": "s", "kind": "error", "call": 1},
            {"seq": 2, "site": "s", "kind": "error", "call": 2},
        ]
        assert plan.injected_total() == 2
        assert plan.by_site() == {"s": 2}

    def test_same_seed_same_trace(self):
        def trace(seed):
            plan = FaultPlan(rules=[
                FaultRule(site="a", kind="error", p=0.3),
                FaultRule(site="b", kind="latency", every=3),
            ], seed=seed)
            for _ in range(20):
                plan.decide("a")
                plan.decide("b")
            return plan.trace()

        assert trace(5) == trace(5)

    def test_reset_replays_from_zero(self):
        plan = FaultPlan(rules=[FaultRule(site="s", kind="error", on_nth=2)])
        first = [plan.decide("s") is not None for _ in range(3)]
        plan.reset()
        assert [plan.decide("s") is not None for _ in range(3)] == first

    def test_json_round_trip(self):
        plan = FaultPlan(name="chaos", seed=9, rules=[
            FaultRule(site="cache.flush", kind="torn_write", every=2),
            FaultRule(site="oracle.query", kind="latency",
                      p=0.1, latency_s=0.5, max_fires=3),
        ])
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()
        assert clone.name == "chaos" and clone.seed == 9

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ValueError):
            FaultPlan.from_dict(["not", "a", "dict"])


class TestAmbientApi:
    def test_fire_without_plan_is_a_noop(self):
        assert faults.fire("anything") is None

    def test_error_kind_raises_untyped(self):
        faults.activate(FaultPlan(rules=[
            FaultRule(site="s", kind="error", every=1, message="boom"),
        ]))
        with pytest.raises(InjectedFaultError, match="boom"):
            faults.fire("s")
        # The whole point: injected crashes exercise the *untyped* paths.
        assert not issubclass(InjectedFaultError, ReproError)

    def test_oserror_kind_raises_oserror(self):
        faults.activate(FaultPlan(rules=[
            FaultRule(site="s", kind="oserror", every=1),
        ]))
        with pytest.raises(OSError):
            faults.fire("s")

    def test_latency_kind_sleeps_and_returns(self):
        faults.activate(FaultPlan(rules=[
            FaultRule(site="s", kind="latency", every=1, latency_s=0.02),
        ]))
        t0 = time.monotonic()
        rule = faults.fire("s")
        assert rule is not None and rule.kind == faults.KIND_LATENCY
        assert time.monotonic() - t0 >= 0.015

    def test_corrupt_truncates_payload_on_torn_write(self):
        faults.activate(FaultPlan(rules=[
            FaultRule(site="s", kind="torn_write", every=1),
        ]))
        payload = b"x" * 90
        torn = faults.corrupt("s", payload)
        assert len(torn) < len(payload)
        assert payload.startswith(torn)

    def test_corrupt_passthrough_without_injection(self):
        assert faults.corrupt("s", b"abc") == b"abc"

    def test_injected_context_restores_previous_plan(self):
        outer = faults.activate(FaultPlan(name="outer"))
        with faults.injected(FaultPlan(name="inner")) as plan:
            assert faults.active_plan() is plan
        assert faults.active_plan() is outer

    def test_fire_records_trace_event(self):
        class StubTracer:
            events: list = []

            def event(self, name, **attrs):
                self.events.append((name, attrs))

        faults.activate(FaultPlan(rules=[
            FaultRule(site="s", kind="latency", every=1),
        ]))
        tracer = StubTracer()
        faults.fire("s", tracer=tracer)
        assert tracer.events == [
            ("fault.injected", {"site": "s", "kind": "latency"}),
        ]

    def test_listeners_observe_injections(self):
        seen = []
        faults.add_listener(seen.append)
        try:
            with faults.injected(FaultPlan(rules=[
                FaultRule(site="s", kind="latency", every=1),
            ])):
                faults.fire("s")
        finally:
            faults.remove_listener(seen.append)
        assert [r["site"] for r in seen] == ["s"]

    def test_broken_listener_never_amplifies_a_fault(self):
        def bad(record):
            raise RuntimeError("listener bug")

        faults.add_listener(bad)
        try:
            with faults.injected(FaultPlan(rules=[
                FaultRule(site="s", kind="latency", every=1),
            ])):
                assert faults.fire("s") is not None
        finally:
            faults.remove_listener(bad)


class TestLoadPlan:
    def test_builtin_names(self):
        for name in ("torn-cache", "slow-oracle", "socket-reset",
                     "cachetier-outage", "router-flap"):
            plan = faults.load_plan(name)
            assert plan.name == name and plan.rules

    def test_builtins_are_fresh_instances(self):
        a = faults.load_plan("torn-cache")
        a.decide(faults.SITE_CACHE_FLUSH)
        assert faults.load_plan("torn-cache").calls(
            faults.SITE_CACHE_FLUSH) == 0

    def test_json_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 3,
            "rules": [{"site": "oracle.query", "kind": "latency",
                       "every": 2, "latency_s": 0.1}],
        }))
        plan = faults.load_plan(str(path))
        assert plan.seed == 3 and plan.rules[0].every == 2

    def test_unknown_source_is_a_value_error(self):
        with pytest.raises(ValueError, match="neither a built-in"):
            faults.load_plan("no-such-plan")


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(attempts=5, base_s=0.1, factor=2.0,
                             max_s=0.5, jitter=0.0)
        assert [policy.delay(a) for a in range(5)] == \
            [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_seed_deterministic(self):
        a = RetryPolicy(attempts=3, base_s=0.1, jitter=0.5, seed=1)
        b = RetryPolicy(attempts=3, base_s=0.1, jitter=0.5, seed=1)
        assert [a.delay(i) for i in range(3)] == \
            [b.delay(i) for i in range(3)]


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=10.0):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            threshold=threshold, cooldown_s=cooldown,
            clock=lambda: clock["t"],
        )
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(10.0)

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_admits_one_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()        # wins the probe slot
        assert not breaker.allow()    # slot taken
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.retry_after_s() == pytest.approx(5.0)
        assert breaker.trips == 2

    def test_release_probe_frees_the_slot(self):
        breaker, clock = self.make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock["t"] = 5.0
        assert breaker.allow()
        assert not breaker.allow()
        breaker.release_probe()  # probe was cancelled / timed out
        assert breaker.allow()

    def test_state_changes_announced(self):
        states = []
        breaker = CircuitBreaker(threshold=1, cooldown_s=5.0,
                                 clock=lambda: 100.0,
                                 on_change=states.append)
        breaker.record_failure()
        breaker.record_success()
        assert states == [BREAKER_OPEN, BREAKER_CLOSED]

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=0.0)
