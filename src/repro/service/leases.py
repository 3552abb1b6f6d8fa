"""Run-key leases: fleet-wide single-flight for pulled work.

Every run the scheduler executes is pulled through here: consumers --
the scheduler's in-process ``local-<i>`` tasks, or ``repro worker``
processes over HTTP (``POST /v1/leases``) -- lease batches of pending
:class:`~repro.engine.spec.RunSpec`\\ s, execute them through the same
``execute_spec`` path as a local sweep, and settle the outcomes back
(``POST /v1/leases/{id}/settle`` for workers).  The lease is the unit
of exclusivity:

* a run key sits in exactly one place at a time -- the **pending**
  queue, one active **lease**, or settled -- so two workers can never
  simulate the same key, no matter how many jobs coalesced onto it;
* every lease carries a **TTL**.  A worker that crashes (or just stalls)
  past its TTL forfeits the lease: the scheduler's reaper expires it
  and moves the unsettled keys back to pending, where the next worker
  picks them up.  Settling refreshes the TTL, so long batches stay
  alive as long as the worker keeps making progress;
* keys that bounce through :data:`MAX_ATTEMPTS` leases without ever
  being settled (a poison run that kills every worker that touches it)
  are **abandoned**: settled as errors so the owning jobs finish
  instead of hanging forever.

Everything here runs on the scheduler's event loop (no locks); the
manager is pure bookkeeping and knows nothing about HTTP or jobs --
the scheduler wires expiry/abandon callbacks into its own settle path.
"""

from __future__ import annotations

import time
import uuid
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "DEFAULT_LEASE_RUNS", "DEFAULT_LEASE_TTL_S", "Lease", "LeaseManager",
    "MAX_ATTEMPTS", "MAX_LEASE_RUNS", "MAX_LEASE_TTL_S",
]

#: default/maximum runs granted per lease request
DEFAULT_LEASE_RUNS = 8
MAX_LEASE_RUNS = 64

#: default/maximum lease TTL in seconds
DEFAULT_LEASE_TTL_S = 60.0
MAX_LEASE_TTL_S = 3600.0

#: a key re-leased this many times without settling is abandoned
#: (settled as an error) so its jobs never hang on a poison run
MAX_ATTEMPTS = 5


class Lease:
    """One worker's claim on a batch of run keys until ``expires``."""

    __slots__ = ("lease_id", "worker", "ttl", "expires", "runs", "granted")

    def __init__(
        self, worker: str, ttl: float, runs: Dict[str, object], now: float
    ) -> None:
        self.lease_id = uuid.uuid4().hex[:16]
        self.worker = worker
        self.ttl = ttl
        self.expires = now + ttl
        #: unsettled digests -> spec (runs drop out as they settle)
        self.runs = runs
        self.granted = len(runs)

    def refresh(self, now: float) -> None:
        self.expires = now + self.ttl

    def expired(self, now: float) -> bool:
        return now >= self.expires


class LeaseManager:
    """Pending-queue + active-lease bookkeeping for one scheduler.

    Keys enter via :meth:`add` (FIFO, deduplicated -- a key already
    pending, leased or settled is never enqueued twice), leave through
    a :meth:`lease` grant, and either settle (the scheduler calls
    :meth:`settle_key`) or boomerang back to pending when
    :meth:`expire` reaps their lease.  ``clock`` is injectable for
    tests; production uses :func:`time.monotonic`.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        #: FIFO of (digest -> spec) awaiting a worker
        self._pending: Dict[str, object] = {}
        self._leases: Dict[str, Lease] = {}
        #: digest -> (re-)lease count, kept until the key settles
        self._attempts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def add(self, digest: str, spec: object) -> bool:
        """Queue a key for workers; ``False`` when already tracked."""
        if digest in self._pending or self._leased_digest(digest):
            return False
        self._pending[digest] = spec
        return True

    def _leased_digest(self, digest: str) -> Optional[Lease]:
        for lease in self._leases.values():
            if digest in lease.runs:
                return lease
        return None

    # ------------------------------------------------------------------
    def lease(
        self,
        worker: str,
        max_runs: int = DEFAULT_LEASE_RUNS,
        ttl: float = DEFAULT_LEASE_TTL_S,
    ) -> Optional[Lease]:
        """Grant a lease over up to ``max_runs`` pending keys (FIFO
        order), or ``None`` when nothing is pending."""
        max_runs = max(1, min(MAX_LEASE_RUNS, int(max_runs)))
        ttl = max(1.0, min(MAX_LEASE_TTL_S, float(ttl)))
        if not self._pending:
            return None
        batch: Dict[str, object] = {}
        for digest in list(self._pending):
            if len(batch) >= max_runs:
                break
            batch[digest] = self._pending.pop(digest)
            self._attempts[digest] = self._attempts.get(digest, 0) + 1
        lease = Lease(worker, ttl, batch, self._clock())
        self._leases[lease.lease_id] = lease
        return lease

    def get(self, lease_id: str) -> Optional[Lease]:
        return self._leases.get(lease_id)

    # ------------------------------------------------------------------
    def settle_key(self, lease_id: str, digest: str) -> Optional[object]:
        """Mark one leased key settled; returns its spec, or ``None``
        when the lease is unknown or the key is not (any longer) in it.

        A fully-settled lease is retired; a partial settle refreshes
        the lease's TTL (the worker is alive and making progress).
        """
        lease = self._leases.get(lease_id)
        if lease is None:
            return None
        spec = lease.runs.pop(digest, None)
        if spec is None:
            return None
        self._attempts.pop(digest, None)
        if lease.runs:
            lease.refresh(self._clock())
        else:
            del self._leases[lease.lease_id]
        return spec

    def settle_pending(self, digest: str) -> Optional[object]:
        """Settle a key straight out of the pending queue (a worker
        whose lease was reaped may still report the outcome -- the
        result is real, so it counts)."""
        spec = self._pending.pop(digest, None)
        if spec is not None:
            self._attempts.pop(digest, None)
        return spec

    # ------------------------------------------------------------------
    def expire(self) -> Tuple[List[Lease], List[Tuple[str, object]]]:
        """Reap expired leases (scheduler tick).

        Unsettled keys under :data:`MAX_ATTEMPTS` attempts re-enter the
        pending queue; the rest are returned as abandoned ``(digest,
        spec)`` pairs for the scheduler to settle as errors.
        """
        now = self._clock()
        reaped: List[Lease] = []
        abandoned: List[Tuple[str, object]] = []
        for lease_id in [
            lid for lid, lease in self._leases.items() if lease.expired(now)
        ]:
            lease = self._leases.pop(lease_id)
            reaped.append(lease)
            for digest, spec in lease.runs.items():
                if self._attempts.get(digest, 0) >= MAX_ATTEMPTS:
                    self._attempts.pop(digest, None)
                    abandoned.append((digest, spec))
                else:
                    self._pending[digest] = spec
        return reaped, abandoned

    def drop_key(self, digest: str) -> None:
        """Forget a key wherever it is (job torn down / error path)."""
        self._pending.pop(digest, None)
        self._attempts.pop(digest, None)
        lease = self._leased_digest(digest)
        if lease is not None:
            lease.runs.pop(digest, None)
            if not lease.runs:
                self._leases.pop(lease.lease_id, None)

    # ------------------------------------------------------------------
    @property
    def pending_runs(self) -> int:
        return len(self._pending)

    @property
    def active_leases(self) -> int:
        return len(self._leases)

    def attempts(self, digest: str) -> int:
        return self._attempts.get(digest, 0)

    def snapshot(self) -> Dict[str, object]:
        """Operator-facing view for ``GET /v1/leases``."""
        now = self._clock()
        return {
            "pending_runs": len(self._pending),
            "active": [
                {
                    "lease": lease.lease_id,
                    "worker": lease.worker,
                    "granted": lease.granted,
                    "unsettled": len(lease.runs),
                    "ttl": lease.ttl,
                    "expires_in": round(max(0.0, lease.expires - now), 3),
                }
                for lease in self._leases.values()
            ],
        }
