"""Admission control: price requests before they run, bound what runs at once.

A long-lived server answering many clients at once has three resources to
protect — CPU seconds, the per-request sample budget, and concurrency slots
— and it must refuse work *up front* (a structured ``admission-rejected``
error the client can act on) rather than let an oversized request starve
everyone else mid-flight.

The pricing reuses the planner's calibrated
:class:`~repro.analysis.cost.BackendCostModel`
(:func:`~repro.analysis.cost.estimate_backend_costs`): a request is charged
the *cheapest* backend that could serve it — rejecting on an expensive
backend the planner would never pick would be wrong — and requests that
ride the server's warm per-query prototypes are charged only the marginal
per-sample term, because the O(rows) setup they would otherwise pay is
already resident.  Samples the cache tier already holds
(``cached_samples``) are likewise free: re-consuming a materialized block
is an array gather, not a draw, so a fully cached warm request prices at
(near) zero.  Priced seconds are model units, not a wall-clock promise;
they only need to rank requests consistently, exactly like the planner.
The statistics behind a price are per-snapshot memo tenants, so only the
first request after a mutation pays their O(rows) pass.

Accounting is transactional: :meth:`AdmissionController.admit` checks every
limit and reserves the slot *and* the priced seconds in one locked step,
returning an :class:`AdmissionTicket` whose :meth:`~AdmissionTicket.release`
the service calls in a ``finally`` — so a request that fails (or dies) after
admission always returns its slot and its priced seconds, and ``/stats``
inflight drains back to zero no matter how requests end.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.cost import BackendCostModel, estimate_backend_costs
from repro.joins.query import JoinQuery
from repro.server.protocol import RequestError


@dataclass(frozen=True)
class AdmissionLimits:
    """The knobs of one :class:`AdmissionController`.

    ``max_request_seconds``
        Priced-cost ceiling per request, in cost-model seconds.
    ``max_samples``
        Per-request sample budget (aggregate requests are priced at the
        sample demand their error target implies, and that demand is
        bounded too).
    ``max_inflight``
        Concurrent sample/aggregate requests allowed inside the service;
        request N+1 is rejected, not queued — a client that wants queueing
        semantics can retry on ``admission-rejected``.
    """

    max_request_seconds: float = 30.0
    max_samples: int = 1_000_000
    max_inflight: int = 32


class AdmissionTicket:
    """One admitted request's reservation: a slot plus its priced seconds.

    ``release()`` is idempotent — the service calls it in a ``finally`` so
    double-release on a convoluted error path can never drive the inflight
    accounting negative.
    """

    __slots__ = ("priced_seconds", "_controller", "_released")

    def __init__(self, controller: "AdmissionController", priced_seconds: float) -> None:
        self.priced_seconds = priced_seconds
        self._controller = controller
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._controller._release(self)


class AdmissionController:
    """Price-and-count gatekeeper in front of the sampling service."""

    def __init__(
        self,
        limits: Optional[AdmissionLimits] = None,
        model: Optional[BackendCostModel] = None,
    ) -> None:
        self.limits = limits or AdmissionLimits()
        self.model = model
        self._lock = threading.Lock()
        self._inflight = 0
        self._inflight_seconds = 0.0
        self.admitted = 0
        self.rejected = 0

    # ------------------------------------------------------------------ price
    def price(
        self,
        queries: Sequence[JoinQuery],
        sample_size: int,
        *,
        warm: bool = False,
        cached_samples: int = 0,
    ) -> float:
        """Cheapest-backend cost of the request, in cost-model seconds.

        Unions are priced as the sum of their per-join minima (the union
        sampler visits every join).  ``warm=True`` subtracts the setup term
        — ``estimate_backend_costs(q, 0)`` is exactly the setup-only price —
        because requests served from a warm prototype never pay it.
        ``cached_samples`` discounts the sample demand: draws the cache
        tier already materialized under the current epoch cost a gather,
        not a walk, so a fully cached warm request prices at zero.
        """
        effective = max(int(sample_size) - max(int(cached_samples), 0), 0)
        total = 0.0
        for query in queries:
            costs = estimate_backend_costs(query, effective, model=self.model)
            if warm:
                setup = estimate_backend_costs(query, 0, model=self.model)
                costs = {name: cost - setup[name] for name, cost in costs.items()}
            total += min(costs.values())
        return total

    # ------------------------------------------------------------------ admit
    def admit(
        self,
        queries: Sequence[JoinQuery],
        sample_size: int,
        *,
        warm: bool = False,
        cached_samples: int = 0,
        priced: Optional[float] = None,
    ) -> AdmissionTicket:
        """Admit the request or raise ``admission-rejected``.

        Checks the sample budget, the priced-seconds ceiling, and the
        inflight cap, then reserves the slot and the priced seconds in one
        locked step.  The returned ticket MUST be released in a ``finally``:
        the reservation survives any exception the request raises later, and
        only ``release()`` gives it back.

        ``priced`` short-circuits the pricing step with a cost the caller
        already computed (the overload gate prices first) — the cost model
        is deterministic, so pricing once and reusing is exact, not a
        shortcut.  Transient rejections (the inflight cap) carry a
        ``retry_after`` hint — the mean priced seconds per inflight request
        approximates the time until a slot frees; budget/ceiling rejections
        are permanent for that request and carry none.
        """
        limits = self.limits
        if sample_size > limits.max_samples:
            with self._lock:
                self.rejected += 1
            raise RequestError(
                "admission-rejected",
                f"request wants {sample_size} samples but the per-request "
                f"budget is {limits.max_samples}; split the request or ask "
                "the operator to raise max_samples",
                limit="max_samples",
                max_samples=limits.max_samples,
                requested_samples=sample_size,
            )
        if priced is None:
            priced = self.price(
                queries, sample_size, warm=warm, cached_samples=cached_samples
            )
        if priced > limits.max_request_seconds:
            with self._lock:
                self.rejected += 1
            raise RequestError(
                "admission-rejected",
                f"request priced at {priced:.3f} cost-model seconds exceeds "
                f"the {limits.max_request_seconds:g}s admission ceiling; "
                "reduce the sample count or loosen the error target",
                limit="max_request_seconds",
                max_request_seconds=limits.max_request_seconds,
                priced_seconds=priced,
            )
        with self._lock:
            if self._inflight >= limits.max_inflight:
                self.rejected += 1
                raise RequestError(
                    "admission-rejected",
                    f"server already has {self._inflight} requests in flight "
                    f"(limit {limits.max_inflight}); retry later",
                    limit="max_inflight",
                    max_inflight=limits.max_inflight,
                    retry_after=self._retry_hint_locked(),
                )
            self._inflight += 1
            self._inflight_seconds += priced
            self.admitted += 1
        return AdmissionTicket(self, priced)

    # --------------------------------------------------------------- internals
    def _retry_hint_locked(self) -> int:
        """Seconds until a slot plausibly frees; caller holds ``_lock``.

        The mean priced seconds per inflight request is the expected drain
        time of one slot under FIFO-ish completion — a hint, not a promise,
        floored at 1s so clients never busy-spin on a zero.
        """
        if self._inflight <= 0:
            return 1
        return max(1, int(math.ceil(self._inflight_seconds / self._inflight)))

    def _release(self, ticket: AdmissionTicket) -> None:
        with self._lock:
            if self._inflight > 0:
                self._inflight -= 1
            self._inflight_seconds = max(
                self._inflight_seconds - ticket.priced_seconds, 0.0
            )
            if self._inflight == 0:
                # Snap float accumulation drift: an idle controller reports
                # exactly 0.0 priced seconds inflight, not 1e-18.
                self._inflight_seconds = 0.0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def inflight_seconds(self) -> float:
        """Priced seconds currently reserved by admitted, unfinished requests."""
        with self._lock:
            return self._inflight_seconds


__all__ = ["AdmissionController", "AdmissionLimits", "AdmissionTicket"]
