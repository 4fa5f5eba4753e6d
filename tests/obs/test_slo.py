"""Unit tests for the per-tenant SLO engine.

All burn-rate behaviour is driven through an injectable synthetic
clock — no sleeps anywhere.
"""

import pytest

from repro.obs import DEFAULT_SLOS, SLOEngine, SLOSpec


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


ERRORS = SLOSpec(
    name="errors",
    kind="error_rate",
    objective=0.9,
    window_s=600.0,
    short_window_s=60.0,
    burn_alert=2.0,
)
LATENCY = SLOSpec(
    name="slow",
    kind="latency",
    objective=0.5,
    threshold_s=1.0,
    window_s=600.0,
    short_window_s=60.0,
    burn_alert=1.5,
)
REJECTS = SLOSpec(
    name="rejects",
    kind="rejection_rate",
    objective=0.8,
    window_s=600.0,
    short_window_s=60.0,
    burn_alert=2.0,
)


def engine(*specs, clock=None, alerts=None):
    return SLOEngine(
        specs=specs or DEFAULT_SLOS,
        clock=clock or FakeClock(),
        anomaly=(lambda name, detail: alerts.append((name, detail)))
        if alerts is not None
        else (lambda name, detail: None),
    )


class TestSpecValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency_rate", objective=0.9)

    def test_objective_must_be_a_fraction(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                SLOSpec(name="x", kind="error_rate", objective=bad)

    def test_short_window_must_fit_in_long(self):
        with pytest.raises(ValueError):
            SLOSpec(
                name="x", kind="error_rate", objective=0.9,
                window_s=60.0, short_window_s=600.0,
            )

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(ValueError):
            SLOEngine(specs=[ERRORS, ERRORS])


class TestBurnRates:
    def test_no_traffic_is_zero_burn(self):
        eng = engine(ERRORS)
        assert eng.burn_rates("alice", ERRORS) == (0.0, 0.0)

    def test_burn_is_bad_fraction_over_budget(self):
        # objective 0.9 -> 10% error budget; 20% errors -> burn 2.0.
        clk = FakeClock()
        eng = engine(ERRORS, clock=clk)
        for i in range(10):
            eng.record_session("alice", 0.1, ok=(i != 0 and i != 5))
        long_burn, short_burn = eng.burn_rates("alice", ERRORS)
        assert long_burn == pytest.approx(2.0)
        assert short_burn == pytest.approx(2.0)

    def test_short_window_recovers_before_long(self):
        clk = FakeClock()
        eng = engine(ERRORS, clock=clk)
        for _ in range(4):
            eng.record_session("alice", 0.1, ok=False)
        # Move past the short window; fresh healthy traffic dominates it.
        clk.advance(120.0)
        for _ in range(4):
            eng.record_session("alice", 0.1, ok=True)
        long_burn, short_burn = eng.burn_rates("alice", ERRORS)
        assert short_burn == 0.0
        assert long_burn == pytest.approx(5.0)  # 4/8 errors vs 10% budget

    def test_events_age_out_of_the_long_window(self):
        clk = FakeClock()
        eng = engine(ERRORS, clock=clk)
        eng.record_session("alice", 0.1, ok=False)
        clk.advance(ERRORS.window_s + 30.0)
        eng.record_session("alice", 0.1, ok=True)
        long_burn, _ = eng.burn_rates("alice", ERRORS)
        assert long_burn == 0.0

    def test_latency_kind_counts_threshold_breaches(self):
        eng = engine(LATENCY)
        eng.record_session("alice", 0.2)
        eng.record_session("alice", 3.0)  # breaches the 1s threshold
        long_burn, _ = eng.burn_rates("alice", LATENCY)
        # 1/2 slow vs 50% budget -> burn 1.0.
        assert long_burn == pytest.approx(1.0)

    def test_rejection_kind_uses_admissions(self):
        eng = engine(REJECTS)
        for i in range(5):
            eng.record_admission("alice", rejected=(i == 0 or i == 1))
        long_burn, _ = eng.burn_rates("alice", REJECTS)
        # 2/5 rejected vs 20% budget -> burn 2.0.
        assert long_burn == pytest.approx(2.0)

    def test_tenants_are_independent(self):
        eng = engine(ERRORS)
        eng.record_session("alice", 0.1, ok=False)
        eng.record_session("bob", 0.1, ok=True)
        assert eng.burn_rates("alice", ERRORS)[0] > 0.0
        assert eng.burn_rates("bob", ERRORS) == (0.0, 0.0)


class TestAlerting:
    def test_alert_requires_both_windows(self):
        clk = FakeClock()
        alerts = []
        eng = engine(ERRORS, clock=clk, alerts=alerts)
        # Errors only in the distant past: long window burns, short clean.
        for _ in range(4):
            eng.record_session("alice", 0.1, ok=False)
        alerts.clear()
        clk.advance(120.0)
        eng.record_session("alice", 0.1, ok=True)
        # Long burn still 4/5 vs 10% budget = 8 >= 2, short burn 0.
        assert eng.burn_rates("alice", ERRORS)[0] >= ERRORS.burn_alert
        assert alerts == []

    def test_sustained_burn_fires_anomaly(self):
        alerts = []
        eng = engine(ERRORS, alerts=alerts)
        for _ in range(3):
            eng.record_session("alice", 0.1, ok=False)
        assert alerts, "multi-window burn should alert"
        name, detail = alerts[0]
        assert name == "slo.errors"
        assert "tenant=alice" in detail and "burn_long=" in detail

    def test_alerts_are_debounced_per_short_window(self):
        clk = FakeClock()
        alerts = []
        eng = engine(ERRORS, clock=clk, alerts=alerts)
        for _ in range(20):
            eng.record_session("alice", 0.1, ok=False)
        assert len(alerts) == 1
        clk.advance(ERRORS.short_window_s + 1.0)
        eng.record_session("alice", 0.1, ok=False)
        assert len(alerts) == 2

    def test_debounce_is_per_tenant(self):
        alerts = []
        eng = engine(ERRORS, alerts=alerts)
        for _ in range(3):
            eng.record_session("alice", 0.1, ok=False)
            eng.record_session("bob", 0.1, ok=False)
        assert {d.split()[0] for _, d in alerts} == {"tenant=alice", "tenant=bob"}


class TestSnapshot:
    def test_snapshot_shape(self):
        eng = engine(ERRORS, LATENCY)
        eng.record_session("alice", 0.4, ok=True)
        eng.record_session("alice", 2.0, ok=False)
        doc = eng.snapshot()
        assert [s["name"] for s in doc["specs"]] == ["errors", "slow"]
        alice = doc["tenants"]["alice"]
        assert alice["latency"]["count"] == 2
        assert alice["latency"]["p50_s"] == pytest.approx(0.4)
        assert alice["latency"]["p99_s"] == pytest.approx(2.0)
        errors = alice["slos"]["errors"]
        assert errors["bad"] == 1 and errors["total"] == 2
        assert errors["burn_long"] == pytest.approx(5.0)

    def test_snapshot_is_json_safe(self):
        import json

        eng = engine()
        eng.record_session("alice", 0.1)
        eng.record_admission("alice")
        json.dumps(eng.snapshot())

    def test_gauge_registries_expose_burn_and_alerting(self):
        eng = engine(ERRORS)
        for _ in range(3):
            eng.record_session("alice", 0.1, ok=False)
        regs = eng.gauge_registries()
        reg = regs["alice"]
        assert reg.gauge("slo.burn_long.errors").value >= ERRORS.burn_alert
        assert reg.gauge("slo.alerting.errors").value == 1.0
        assert reg.gauge("slo.latency_p50_s").value == pytest.approx(0.1)
