"""Per-tenant SLO tracking: rolling windows and burn-rate alerting.

An :class:`SLOSpec` declares one objective over a rolling window —
"99% of sessions commit in under 5 s", "95% of admission attempts are
not rejected".  The :class:`SLOEngine` consumes the service's raw
events (session completions with latency + outcome, admission
attempts with accept/reject), maintains time-bucketed counts per
tenant, and evaluates each spec as a **burn rate**:

    burn = (bad / total) / (1 - objective)

i.e. how many times faster than budgeted the tenant is consuming its
error budget (1.0 = exactly on budget).  Alerting is multi-window in
the SRE-workbook style: an alert fires only when *both* the long
window and a short window burn above ``burn_alert``, so a brief blip
after a quiet hour cannot fire, and a recovered tenant stops alerting
as soon as the short window cools.  Alerts are routed through the
anomaly channel (:func:`~repro.obs.telemetry.note_anomaly` by
default) and debounced for one short window.

The engine is stdlib-only and clock-injectable — burn-rate tests run
on a synthetic clock with no sleeps.  Like the rest of ``repro.obs``
it is a read-only leaf (dedupcheck DDC007): it observes service events
and never mutates dedup or service state.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from .metrics import MetricsRegistry
from .telemetry import note_anomaly

__all__ = ["SLOSpec", "SLOEngine", "DEFAULT_SLOS"]

#: Valid spec kinds and the event streams they are evaluated over.
_KINDS = ("latency", "error_rate", "rejection_rate")
#: Window bucket granularity (seconds).
_BUCKET_S = 10.0
#: Recent session latencies per tenant behind the reported p50/p99.
_LATENCY_KEEP = 512


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective evaluated per tenant.

    ``kind`` picks the event stream: ``latency`` (bad = session slower
    than ``threshold_s``), ``error_rate`` (bad = session aborted or
    failed), ``rejection_rate`` (bad = admission attempt refused by
    quota/rate/busy).  ``objective`` is the target *good* fraction
    (0.99 → 1% error budget).
    """

    name: str
    kind: str
    objective: float
    threshold_s: float = 1.0  # latency kind only
    window_s: float = 3600.0  # long (budget) window
    short_window_s: float = 300.0  # confirmation window
    burn_alert: float = 6.0  # fire when both windows burn >= this

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {self.kind!r} (expected one of {_KINDS})")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if not 0.0 < self.short_window_s <= self.window_s:
            raise ValueError("short_window_s must be in (0, window_s]")
        if self.burn_alert <= 0.0:
            raise ValueError("burn_alert must be positive")

    def as_dict(self) -> dict[str, Any]:
        """JSON form for the ``/slo`` endpoint."""
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "threshold_s": self.threshold_s,
            "window_s": self.window_s,
            "short_window_s": self.short_window_s,
            "burn_alert": self.burn_alert,
        }


#: The service's objectives: ``DedupServer``'s engine tracks these.
DEFAULT_SLOS: tuple[SLOSpec, ...] = (
    SLOSpec(name="session-latency-p50", kind="latency", objective=0.50, threshold_s=1.0),
    SLOSpec(name="session-latency-p99", kind="latency", objective=0.99, threshold_s=5.0),
    SLOSpec(name="session-errors", kind="error_rate", objective=0.99),
    SLOSpec(name="admission-rejections", kind="rejection_rate", objective=0.95),
)


class _Window:
    """Time-bucketed event counts for one tenant (ring by bucket index)."""

    __slots__ = ("horizon_s", "buckets")

    def __init__(self, horizon_s: float) -> None:
        self.horizon_s = horizon_s
        self.buckets: dict[int, dict[str, float]] = {}

    def add(self, now: float, key: str, amount: float = 1.0) -> None:
        idx = int(now // _BUCKET_S)
        bucket = self.buckets.get(idx)
        if bucket is None:
            bucket = self.buckets[idx] = {}
            self._prune(idx)
        bucket[key] = bucket.get(key, 0.0) + amount

    def _prune(self, newest_idx: int) -> None:
        oldest_live = newest_idx - int(self.horizon_s // _BUCKET_S) - 1
        for idx in [i for i in self.buckets if i < oldest_live]:
            del self.buckets[idx]

    def total(self, now: float, key: str, window_s: float) -> float:
        first = int((now - window_s) // _BUCKET_S) + 1
        return sum(
            counts.get(key, 0.0) for idx, counts in self.buckets.items() if idx >= first
        )


def _percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class SLOEngine:
    """Evaluates :class:`SLOSpec` objectives over per-tenant windows.

    Parameters
    ----------
    specs:
        The objectives to track (same set for every tenant).
    clock:
        Monotonic-seconds source; injectable so tests can drive burn
        rates synthetically, with no sleeps.
    anomaly:
        Alert channel — called as ``anomaly(name, detail)`` when a
        spec's multi-window burn trips; defaults to the process-global
        :func:`~repro.obs.telemetry.note_anomaly`.

    All methods are thread-safe; the service calls them from its event
    loop, tests and benchmarks from arbitrary threads.
    """

    def __init__(
        self,
        specs: Sequence[SLOSpec] = DEFAULT_SLOS,
        clock: Callable[[], float] = time.monotonic,
        anomaly: Callable[[str, str], None] | None = None,
    ) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO spec names in {names}")
        self.specs: tuple[SLOSpec, ...] = tuple(specs)
        self._clock = clock
        self._anomaly: Callable[[str, str], None] = (
            anomaly if anomaly is not None else note_anomaly
        )
        self._horizon_s = max((s.window_s for s in self.specs), default=3600.0)
        self._lock = threading.Lock()
        self._windows: dict[str, _Window] = {}
        self._latencies: dict[str, deque[tuple[float, float]]] = {}
        self._muted_until: dict[tuple[str, str], float] = {}

    # ---- event intake ----------------------------------------------------

    def record_session(self, tenant: str, duration_s: float, ok: bool = True) -> None:
        """One finished session: commit latency and outcome."""
        with self._lock:
            now = self._clock()
            win = self._window(tenant)
            win.add(now, "sessions")
            if not ok:
                win.add(now, "errors")
            for spec in self.specs:
                if spec.kind == "latency" and duration_s > spec.threshold_s:
                    win.add(now, f"slow.{spec.name}")
            lat = self._latencies.setdefault(tenant, deque(maxlen=_LATENCY_KEEP))
            lat.append((now, duration_s))
            self._check_alerts(tenant, now)

    def record_admission(self, tenant: str, rejected: bool = False) -> None:
        """One admission attempt (open or put); ``rejected`` = refused."""
        with self._lock:
            now = self._clock()
            win = self._window(tenant)
            win.add(now, "admissions")
            if rejected:
                win.add(now, "rejections")
            self._check_alerts(tenant, now)

    # ---- evaluation ------------------------------------------------------

    def burn_rates(self, tenant: str, spec: SLOSpec) -> tuple[float, float]:
        """(long-window, short-window) burn rate for one tenant/spec."""
        with self._lock:
            now = self._clock()
            win = self._windows.get(tenant)
            if win is None:
                return (0.0, 0.0)
            return (
                self._burn(win, spec, spec.window_s, now),
                self._burn(win, spec, spec.short_window_s, now),
            )

    def snapshot(self) -> dict[str, Any]:
        """The full ``/slo`` document: specs plus per-tenant evaluation."""
        with self._lock:
            now = self._clock()
            tenants: dict[str, Any] = {}
            for tenant, win in sorted(self._windows.items()):
                cutoff = now - self._horizon_s
                lat = sorted(d for ts, d in self._latencies.get(tenant, ()) if ts >= cutoff)
                slos: dict[str, Any] = {}
                for spec in self.specs:
                    bad, total = self._bad_total(win, spec, spec.window_s, now)
                    long_burn = self._burn(win, spec, spec.window_s, now)
                    short_burn = self._burn(win, spec, spec.short_window_s, now)
                    slos[spec.name] = {
                        "kind": spec.kind,
                        "objective": spec.objective,
                        "bad": bad,
                        "total": total,
                        "burn_long": long_burn,
                        "burn_short": short_burn,
                        "alerting": self._alerting(spec, long_burn, short_burn, total),
                    }
                tenants[tenant] = {
                    "latency": {
                        "count": len(lat),
                        "p50_s": _percentile(lat, 0.50),
                        "p99_s": _percentile(lat, 0.99),
                    },
                    "slos": slos,
                }
            return {"specs": [s.as_dict() for s in self.specs], "tenants": tenants}

    def gauge_registries(self) -> dict[str, MetricsRegistry]:
        """Fresh per-tenant registries of ``slo.*`` gauges for /metrics."""
        doc = self.snapshot()
        out: dict[str, MetricsRegistry] = {}
        for tenant, entry in doc["tenants"].items():
            reg = MetricsRegistry()
            reg.gauge("slo.latency_p50_s").set(entry["latency"]["p50_s"])
            reg.gauge("slo.latency_p99_s").set(entry["latency"]["p99_s"])
            for name, ev in entry["slos"].items():
                reg.gauge(f"slo.burn_long.{name}").set(ev["burn_long"])
                reg.gauge(f"slo.burn_short.{name}").set(ev["burn_short"])
                reg.gauge(f"slo.alerting.{name}").set(1.0 if ev["alerting"] else 0.0)
            out[tenant] = reg
        return out

    # ---- internals -------------------------------------------------------

    def _window(self, tenant: str) -> _Window:
        win = self._windows.get(tenant)
        if win is None:
            win = self._windows[tenant] = _Window(self._horizon_s)
        return win

    @staticmethod
    def _bad_total(
        win: _Window, spec: SLOSpec, window_s: float, now: float
    ) -> tuple[float, float]:
        if spec.kind == "latency":
            return win.total(now, f"slow.{spec.name}", window_s), win.total(
                now, "sessions", window_s
            )
        if spec.kind == "error_rate":
            return win.total(now, "errors", window_s), win.total(now, "sessions", window_s)
        return win.total(now, "rejections", window_s), win.total(now, "admissions", window_s)

    def _burn(self, win: _Window, spec: SLOSpec, window_s: float, now: float) -> float:
        bad, total = self._bad_total(win, spec, window_s, now)
        if total <= 0.0:
            return 0.0
        return (bad / total) / (1.0 - spec.objective)

    @staticmethod
    def _alerting(spec: SLOSpec, long_burn: float, short_burn: float, total: float) -> bool:
        return total > 0.0 and long_burn >= spec.burn_alert and short_burn >= spec.burn_alert

    def _check_alerts(self, tenant: str, now: float) -> None:
        # Caller holds the lock.  Debounced one short window per
        # (tenant, spec) so a sustained burn logs once per window, not
        # once per event.
        win = self._windows[tenant]
        for spec in self.specs:
            long_burn = self._burn(win, spec, spec.window_s, now)
            short_burn = self._burn(win, spec, spec.short_window_s, now)
            _, total = self._bad_total(win, spec, spec.window_s, now)
            if not self._alerting(spec, long_burn, short_burn, total):
                continue
            muted = self._muted_until.get((tenant, spec.name), 0.0)
            if now < muted:
                continue
            self._muted_until[(tenant, spec.name)] = now + spec.short_window_s
            self._anomaly(
                f"slo.{spec.name}",
                f"tenant={tenant} burn_long={long_burn:.1f} "
                f"burn_short={short_burn:.1f} objective={spec.objective}",
            )
