"""Security isolation (§3.4): state protection and DoS containment.

Two attacks are handled:

* **Actor state corruption** — the DMO layer already denies cross-actor
  object access (a software-TLB trap on LiquidIO, hardware paging under a
  full OS).  :class:`IsolationPolicy` centralizes the accounting and the
  firmware/OS distinction.
* **Denial of service** — a handler that exceeds its execution budget is
  detected by the per-core hardware timer (firmware) or a POSIX-signal
  timeout (full OS); the runtime then deregisters the actor, removes it
  from dispatch/runnable queues, and frees its resources.

Handlers in this reproduction are cooperative generators, so "timeout"
means the runtime checks elapsed virtual time at each yield point and
aborts the offender — the same observable outcome as the paper's timer
interrupt, with detection granularity of one yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .actor import Actor


class ActorKilledError(Exception):
    """Raised inside a handler aborted by the DoS watchdog."""


@dataclass
class IsolationPolicy:
    """Per-deployment isolation configuration."""

    #: "firmware" → software-managed TLB + hardware timer rings (LiquidIO);
    #: "full-os"  → process address spaces + POSIX signal timeouts.
    mode: str = "firmware"
    #: Execution budget per handler invocation, µs.  The LiquidIO hardware
    #: timer has 16 rings, one dedicated per core.
    timeout_us: float = 1000.0
    #: Per-tenant overrides of ``timeout_us`` (docs/TENANCY.md): the
    #: watchdog reads the armed actor's tenant.  Empty = every tenant
    #: gets the flat budget (bit-identical to the untenanted policy).
    tenant_timeout_us: Dict[str, float] = field(default_factory=dict)
    kills: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in ("firmware", "full-os"):
            raise ValueError(f"unknown isolation mode: {self.mode}")
        if self.timeout_us <= 0:
            raise ValueError("timeout must be positive")
        for tenant, timeout in self.tenant_timeout_us.items():
            if timeout <= 0:
                raise ValueError(
                    f"tenant {tenant!r} timeout must be positive")

    @property
    def protection_mechanism(self) -> str:
        return ("software-TLB trap" if self.mode == "firmware"
                else "hardware paging")

    @property
    def timeout_mechanism(self) -> str:
        return ("hardware timer ring" if self.mode == "firmware"
                else "POSIX signal")


class Watchdog:
    """Per-core execution timer (one of the 16 LiquidIO timer rings).

    The scheduler arms the watchdog before running a handler and feeds it
    elapsed time at every yield; :meth:`expired` turning true means the
    actor violated availability and must be deregistered.
    """

    def __init__(self, policy: IsolationPolicy):
        self.policy = policy
        self._armed_at: Optional[float] = None
        self._actor: Optional[Actor] = None
        #: budget of the armed actor's tenant, resolved by :meth:`arm`
        self._timeout_us = policy.timeout_us

    def arm(self, now: float, actor: Actor) -> None:
        self._armed_at = now
        self._actor = actor
        self._timeout_us = self.policy.tenant_timeout_us.get(
            actor.tenant, self.policy.timeout_us)

    def disarm(self) -> None:
        self._armed_at = None
        self._actor = None

    def expired(self, now: float) -> bool:
        if self._armed_at is None:
            return False
        return now - self._armed_at > self._timeout_us

    def kill(self, table) -> Optional[Actor]:
        """Deregister the offending actor: dispatch-table removal + state
        teardown is the caller's job via the returned actor."""
        actor = self._actor
        if actor is None:
            return None
        self.policy.kills.append(actor.name)
        table.deregister(actor.name)
        self.disarm()
        return actor


class QuotaEnforcer:
    """Per-actor share accounting against core-hogging (fairness facet of
    the DoS guarantee): tracks busy µs consumed per actor and flags actors
    exceeding a configurable share of recent NIC compute.

    Each actor gets its own tumbling accounting window anchored at its
    first charge; an entry whose last charge is older than ``window_us``
    is evicted on the next :meth:`charge` (the map stays bounded by the
    set of actors active in the last window, however long the run).

    ``tenant_shares`` adds per-tenant budgets on top (docs/TENANCY.md):
    charges carrying a ``tenant`` also accumulate per tenant, and
    :meth:`tenant_over_quota` flags a tenant whose busy time exceeds its
    configured share of recent NIC compute.
    """

    def __init__(self, window_us: float = 100_000.0, max_share: float = 0.9,
                 tenant_shares: Optional[Dict[str, float]] = None):
        self.window_us = window_us
        self.max_share = max_share
        self.tenant_shares: Dict[str, float] = dict(tenant_shares or {})
        #: name -> [window anchor, last charge time, busy µs]
        self._entries: Dict[str, List[float]] = {}
        self._tenant_entries: Dict[str, List[float]] = {}

    def _charge_into(self, entries: Dict[str, List[float]], name: str,
                     busy_us: float, now: float) -> None:
        stale = [n for n, e in entries.items()
                 if now - e[1] > self.window_us]
        for n in stale:
            del entries[n]
        entry = entries.get(name)
        if entry is None or now - entry[0] > self.window_us:
            # fresh (or rolled-over) window: the busy time necessarily
            # accrued over at least busy_us of wall time before now
            entries[name] = [max(now - busy_us, 0.0), now, busy_us]
            return
        entry[1] = now
        entry[2] += busy_us

    def charge(self, actor: str, busy_us: float, now: float,
               tenant: str = "") -> None:
        self._charge_into(self._entries, actor, busy_us, now)
        if tenant:
            self._charge_into(self._tenant_entries, tenant, busy_us, now)

    def _share_of(self, entries: Dict[str, List[float]], name: str,
                  now: float, total_cores: int) -> float:
        entry = entries.get(name)
        if entry is None or now - entry[1] > self.window_us:
            return 0.0
        elapsed = max(now - entry[0], 1.0)
        return entry[2] / (elapsed * total_cores)

    def over_quota(self, actor: str, now: float, total_cores: int) -> bool:
        return self._share_of(self._entries, actor, now,
                              total_cores) > self.max_share

    def share(self, actor: str, now: float, total_cores: int) -> float:
        return self._share_of(self._entries, actor, now, total_cores)

    def tenant_share(self, tenant: str, now: float,
                     total_cores: int) -> float:
        return self._share_of(self._tenant_entries, tenant, now, total_cores)

    def tenant_over_quota(self, tenant: str, now: float,
                          total_cores: int) -> bool:
        cap = self.tenant_shares.get(tenant, self.max_share)
        return self.tenant_share(tenant, now, total_cores) > cap

    def tracked_actors(self) -> int:
        """Live charge-map entries (regression hook for the eviction)."""
        return len(self._entries)
