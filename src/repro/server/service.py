"""The sampling service: warm state, epoch-consistent snapshots, one draw path.

:class:`SamplingService` is the server's brain, independent of any
transport: it loads the workload's relations **once**, keeps the expensive
per-query structures warm, and answers ``sample``/``aggregate``/``mutate``/
``health``/``stats`` request dictionaries (see :mod:`repro.server.protocol`)
from any number of concurrent threads.  :mod:`repro.server.http` bolts an
HTTP front-end on top; tests call :meth:`SamplingService.handle` directly.

Warm state
----------

The seed-level costs of a request are the O(rows) structures: weight
functions, level plans, root and per-segment alias tables.  The service
keeps one **warm prototype** :class:`~repro.sampling.join_sampler.JoinSampler`
per ``(query, weights)`` and serves each request from an O(levels) clone
(``split(1, seed=request_seed, share_plans=True)``) that draws from the
snapshot's shared, fully built descent through all-built views.  Clones draw from their own
request-seeded stream without consuming the prototype's, so a request's
answer is a pure function of ``(request, snapshot)`` — bit-identical whether
it runs alone or besides 16 others (pinned by ``tests/test_server.py``).
Its price reads the snapshot's memoized statistics and its values leave
column by column (:func:`json_rows`): a warm request pays for its draw.

Every ``sample`` request runs one chunk loop
(:func:`repro.aqp.sources.draw_chunks`, which ``repro sample`` runs
too); a route only supplies the draw of the next chunk.  A join draws from
``workers`` clones of its warm prototype, a union from ``workers``
:class:`~repro.aqp.sources.UnionCoverSource` streams (the sources a union
``aggregate`` gets); each clone or source draws its even share of every
chunk, on its own thread when there are several, and the shares join in
their order.

Epoch consistency
-----------------

Mutations (``mutate`` requests, or any writer sharing the process) bump
``Relation.version``.  A request must never blend snapshots: the chunk loop
snapshots every base-relation version before drawing, re-checks after every
chunk, and on any bump **discards** the draw wholesale and restarts against
the new snapshot (bounded by ``max_epoch_restarts``, then
``epoch-restart-exhausted``); a response reports its own restarts.  Join
values are projected only after the final check, so a shape-changing
mutation can never be read through stale row positions.

Deadlines map onto the PR 6 resilience contract: ``deadline`` without
``allow_partial`` fails with ``deadline-exceeded``; with ``allow_partial``
the completed part comes back marked ``degraded`` — unless *nothing* was
accepted, which is refused as ``empty-result``
(:class:`~repro.resilience.errors.EmptyResultError`) rather than dressed up
as an estimate.
"""

from __future__ import annotations

import contextlib
import threading
import time
from functools import partial
from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.aqp import AggregateSpec, OnlineAggregator
from repro.aqp.online import planning_budget
from repro.aqp.planner import BACKEND_WEIGHTS
from repro.aqp.sources import SAMPLE_CHUNK, CoverDraw, draw_chunks, surplus_first, union_takes
from repro.cache.store import SampleCache
from repro.joins.query import JoinQuery
from repro.resilience import EmptyResultError, JobDeadlineExceeded
from repro.resilience.errors import EpochRestartsExhausted
from repro.sampling.blocks import SampleBlock
from repro.sampling.join_sampler import JoinSampler
from repro.server.admission import AdmissionController, AdmissionLimits, AdmissionTicket
from repro.server.overload import (
    BREAKER_FAILURE_CODES,
    HEALTHY,
    BreakerRegistry,
    Clock,
    HealthMonitor,
    OverloadConfig,
    OverloadGate,
    Watchdog,
)
from repro.server.protocol import (
    MAX_REQUEST_WORKERS,
    RequestError,
    get_bool,
    get_float,
    get_int,
    get_str,
    ok_response,
)
from repro.tpch.workloads import UnionWorkload, build_workload
from repro.utils.rng import spawn_rngs

#: weights string of each warm-capable backend (inverse of BACKEND_WEIGHTS)
_WEIGHTS_TO_BACKEND = {w: b for b, w in BACKEND_WEIGHTS.items()}

_KINDS = ("sample", "aggregate", "mutate", "health", "stats")
#: error codes that mean "the request never ran" — they carry no latency
#: signal and must not poison the health monitor's EWMAs.
_UNEXECUTED_CODES = frozenset(
    {"admission-rejected", "overloaded", "circuit-open",
     "invalid-request", "unknown-query"}
)
_SHED_CODES = frozenset({"admission-rejected", "overloaded", "circuit-open"})
_AGGREGATES = ("count", "sum", "avg")
_METHODS = ("auto", "exact-weight", "olken", "wander-join", "online-union")


def _json_columns(columns: Sequence[np.ndarray], length: int) -> List[List[object]]:
    """Rows of value columns, converted per column: a typed column leaves
    through ``tolist()``, which is JSON-native already, and only an
    ``object`` column goes value by value, a NumPy scalar through ``item()``."""
    lists = [
        [v.item() if isinstance(v, np.generic) else v for v in c.tolist()]
        if c.dtype == object else c.tolist()
        for c in columns
    ]
    return list(map(list, zip(*lists))) if lists else [[] for _ in range(length)]


def json_rows(block: SampleBlock, query: JoinQuery) -> List[List[object]]:
    """``block.values(query)`` as JSON-native rows, converted per column."""
    return _json_columns(block.value_columns(query), len(block))


def _request_error(error: Exception) -> RequestError:
    """The structured protocol error an exception is reported (and counted
    by the circuit breakers) as."""
    if isinstance(error, RequestError):
        return error
    if isinstance(error, JobDeadlineExceeded):
        return RequestError("deadline-exceeded", str(error))
    if isinstance(error, EmptyResultError):
        return RequestError("empty-result", str(error))
    if isinstance(error, ValueError):
        return RequestError("invalid-request", str(error))
    if isinstance(error, EpochRestartsExhausted):
        return RequestError("epoch-restart-exhausted", str(error), restarts=error.restarts)
    if isinstance(error, RuntimeError):
        return RequestError("internal", str(error))
    return RequestError("internal", f"{type(error).__name__}: {error}")


class SamplingService:
    """Long-lived, thread-safe request broker over one loaded workload.

    Parameters
    ----------
    workload:
        A prebuilt :class:`~repro.tpch.workloads.UnionWorkload`; when absent
        one is built from ``workload_name``/``scale_factor``/
        ``overlap_scale``/``seed`` (paid once, at startup — never per
        request).
    limits / admission:
        Admission-control knobs (see :class:`AdmissionLimits`) or a
        prebuilt controller.
    warm_on_start:
        Build the ``"ew"`` warm prototype and pricing statistics of every
        query at startup so the first request is as fast as the thousandth.  Lazy otherwise.
    sample_chunk:
        Draw granularity of the warm sample path; each chunk boundary is an
        epoch checkpoint and a deadline checkpoint, so smaller chunks react
        faster to mutations at slightly more bookkeeping.
    cache:
        Optional :class:`~repro.cache.store.SampleCache` shared by every
        warm aggregate request (see ``docs/cache.md``).  Off by default:
        a shared cache makes a response depend on which requests ran
        before it, so it is strictly opt-in — without it every response
        stays a pure function of ``(request, snapshot)``.  Individual
        requests opt out with ``"cache": false`` even on a caching server.
    overload:
        The overload-robustness layer (see :mod:`repro.server.overload` and
        ``docs/overload.md``): health state machine, priced-seconds
        backpressure/shedding, per-(query, weights) circuit breakers, and
        the stuck-request watchdog.  ``True`` (default) enables it with
        :class:`OverloadConfig` defaults, ``False`` disables it (PR 7
        behavior), or pass a config to tune the thresholds.
    clock:
        Monotonic clock the overload layer runs on; tests inject a manual
        clock to pin state transitions deterministically.
    """

    def __init__(
        self,
        workload: Optional[UnionWorkload] = None,
        *,
        workload_name: str = "UQ1",
        scale_factor: float = 0.001,
        overlap_scale: float = 0.3,
        seed: int = 2023,
        limits: Optional[AdmissionLimits] = None,
        admission: Optional[AdmissionController] = None,
        max_epoch_restarts: int = 3,
        warm_on_start: bool = True,
        sample_chunk: int = SAMPLE_CHUNK,
        cache: Optional[SampleCache] = None,
        overload: Union[OverloadConfig, bool, None] = True,
        clock: Optional[Clock] = None,
    ) -> None:
        if sample_chunk < 1:
            raise ValueError(f"sample_chunk must be >= 1, got {sample_chunk}")
        self.workload = workload or build_workload(
            workload_name, scale_factor, overlap_scale, seed
        )
        self.admission = admission or AdmissionController(limits)
        self.cache = cache
        self.max_epoch_restarts = int(max_epoch_restarts)
        self.sample_chunk = int(sample_chunk)
        # ---- overload layer (docs/overload.md): the injected clock makes
        # every health/breaker/watchdog transition unit-testable; `True`
        # enables the layer with defaults, `False`/`None` disables it (the
        # gate then hands out free no-op tickets so the handler shape —
        # admit in, release in a finally — is identical either way).
        self._clock: Clock = clock if clock is not None else time.monotonic
        if overload is True:
            overload_config: Optional[OverloadConfig] = OverloadConfig()
        elif not overload:
            overload_config = None
        else:
            overload_config = overload
        self.overload_config = overload_config
        base_config = overload_config or OverloadConfig()
        self._monitor = HealthMonitor(base_config, self._clock)
        self._overload = OverloadGate(overload_config, self._monitor, self._clock)
        self._breakers = BreakerRegistry(
            base_config, self._clock, enabled=overload_config is not None
        )
        self._watchdog = Watchdog(base_config, self._clock)
        self._prototypes: Dict[Tuple[str, str], JoinSampler] = {}
        self._proto_lock = threading.Lock()
        self._proto_builds: Dict[Tuple[str, str], threading.Lock] = {}
        self._stats_lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "requests": 0,
            "ok": 0,
            "errors": 0,
            "samples_served": 0,
            "epoch_restarts": 0,
            "warm_requests": 0,
            "cold_requests": 0,
            "prototype_builds": 0,
            "cache_requests": 0,
            "cache_invalidations": 0,
            "shed_requests": 0,
            "transport_errors": 0,
        }
        self._closed = False
        #: test hook: called after every sample chunk with the request's
        #: queries, before its epoch check — deterministic mid-flight fault
        #: injection, same spirit as resilience.faults.FaultPlan.
        self._after_chunk: Optional[
            Callable[["SamplingService", Sequence[JoinQuery]], None]
        ] = None
        if warm_on_start:
            for query in self.workload.queries:
                self._prototype(query, "ew")
                self.admission.price([query], 0)  # primes the pricing statistics

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Refuse further requests; idempotent."""
        self._closed = True

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- warm state
    def _prototype(self, query: JoinQuery, weights: str) -> JoinSampler:
        """The warm, fully-built sampler of ``(query, weights)``.

        The prototype's own stream is never drawn from — request clones are
        seeded explicitly — so its RNG state carries no cross-request
        coupling.

        Builds are guarded per key: the global registry lock only maps a key
        to its build lock (O(1)), and the O(rows) warm build itself runs
        under the key's own lock.  Concurrent first requests for the *same*
        (query, weights) serialize — exactly one builds, the rest adopt it —
        while first requests for *different* keys build in parallel instead
        of queueing on one global lock.
        """
        key = (query.name, weights)
        with self._proto_lock:
            proto = self._prototypes.get(key)
            if proto is not None:
                return proto
            build_lock = self._proto_builds.setdefault(key, threading.Lock())
        with build_lock:
            with self._proto_lock:
                proto = self._prototypes.get(key)
            if proto is not None:
                return proto
            proto = JoinSampler(query, weights=weights, seed=0).warm()
            with self._stats_lock:
                self._counters["prototype_builds"] += 1
            with self._proto_lock:
                self._prototypes[key] = proto
            return proto

    @property
    def warm_prototypes(self) -> int:
        with self._proto_lock:
            return len(self._prototypes)

    # --------------------------------------------------------------- dispatch
    def handle(self, request: Mapping[str, object]) -> Dict[str, object]:
        """Answer one request dict; never raises — errors become payloads."""
        with self._stats_lock:
            self._counters["requests"] += 1
        started = self._clock()
        kind: Optional[str] = None
        try:
            if not isinstance(request, Mapping):
                raise RequestError("invalid-request", "request must be a JSON object")
            if self._closed:
                raise RequestError("internal", "server is shutting down")
            kind = get_str(request, "kind", required=True, choices=_KINDS)
            if kind == "health":
                result = self._handle_health()
            elif kind == "stats":
                result = self._handle_stats()
            elif kind == "mutate":
                result = self._handle_mutate(request)
            elif kind == "sample":
                # sample/aggregate admit themselves: the ticket (slot +
                # priced seconds) is reserved atomically once the request is
                # fully priced and released in the handler's own finally.
                result = self._handle_sample(request)
            else:
                result = self._handle_aggregate(request)
        except Exception as error:  # noqa: BLE001 - the server must not die
            return self._finish(self._error(_request_error(error)), kind, started)
        with self._stats_lock:
            self._counters["ok"] += 1
        return self._finish(ok_response(result), kind, started)

    def _finish(
        self,
        payload: Dict[str, object],
        kind: Optional[str],
        started: float,
    ) -> Dict[str, object]:
        """Feed the health monitor from the finished request's outcome.

        Only executed ``sample``/``aggregate`` work carries a latency
        signal; sheds and caller mistakes return in microseconds and would
        drag the p99/miss EWMAs toward rosy, so they only bump counters.
        """
        if kind not in ("sample", "aggregate"):
            return payload
        code: Optional[str] = None
        if not payload.get("ok"):
            error = payload.get("error")
            code = error.get("code") if isinstance(error, dict) else "internal"
        if code in _SHED_CODES:
            with self._stats_lock:
                self._counters["shed_requests"] += 1
        if code in _UNEXECUTED_CODES:
            return payload
        self._monitor.record(
            self._clock() - started,
            deadline_missed=code in ("deadline-exceeded", "empty-result"),
        )
        return payload

    def _error(self, error: RequestError) -> Dict[str, object]:
        with self._stats_lock:
            self._counters["errors"] += 1
        return error.to_payload()

    def _resolve_queries(self, name: str) -> Tuple[str, List[JoinQuery]]:
        if name == "union":
            return f"union of {len(self.workload)} joins", list(self.workload.queries)
        try:
            return name, [self.workload.query(name)]
        except KeyError:
            raise RequestError(
                "unknown-query",
                f"workload {self.workload.name!r} has no join {name!r}; "
                f"choose from {self.workload.query_names} or 'union'",
                queries=self.workload.query_names,
            ) from None

    @contextlib.contextmanager
    def _admitted(
        self, kind: str, label: str, breaker_key: Tuple[str, str],
        queries: Sequence[JoinQuery], samples: int, *, warm: bool,
        deadline: Optional[float], cached_samples: int = 0, uses_cache: bool = False,
    ) -> Iterator[AdmissionTicket]:
        """The envelope every ``sample``/``aggregate`` body runs inside.

        Breaker check → price (once: the gate and admission account the
        same seconds; inside the ``try``, so a failed price hands a half-open
        probe slot back) → gate → admission → watchdog → counters → body,
        released in reverse.  The reservations must drain even when the body
        fails mid-flight: leaking one would wedge the inflight count until
        restart.  Yields the ticket, whose ``priced_seconds`` is returned.
        """
        self._breakers.check(breaker_key)
        outcome = "neutral"
        try:
            priced = self.admission.price(
                queries, samples, warm=warm, cached_samples=cached_samples
            )
            gate_ticket = self._overload.admit(priced)
            try:
                ticket = self.admission.admit(
                    queries, samples, warm=warm,
                    cached_samples=cached_samples, priced=priced,
                )
                try:
                    watch = self._watchdog.watch(kind, label, deadline)
                    try:
                        with self._stats_lock:
                            self._counters[
                                "warm_requests" if warm else "cold_requests"
                            ] += 1
                            if uses_cache:
                                self._counters["cache_requests"] += 1
                        yield ticket
                        outcome = "success"
                    finally:
                        watch.release()
                finally:
                    ticket.release()
            finally:
                gate_ticket.release()
        except Exception as error:
            if _request_error(error).code in BREAKER_FAILURE_CODES:
                outcome = "failure"
            raise
        finally:
            # Pairs with the check() above: success closes a half-open
            # probe, deadline/epoch failures trip the breaker, sheds hand
            # the probe slot back untouched.
            self._breakers.record(breaker_key, outcome)

    # ----------------------------------------------------------------- sample
    def _handle_sample(self, request: Mapping[str, object]) -> Dict[str, object]:
        label, queries = self._resolve_queries(
            get_str(request, "query", required=True)
        )
        count = get_int(request, "count", required=True, minimum=1)
        seed = get_int(request, "seed", 0, minimum=0)
        weights = get_str(request, "weights", "ew", choices=tuple(_WEIGHTS_TO_BACKEND))
        workers = get_int(request, "workers", 1, minimum=1, maximum=MAX_REQUEST_WORKERS)
        deadline = get_float(request, "deadline", minimum=0.0)
        allow_partial = get_bool(request, "allow_partial", False)
        max_attempts = get_int(request, "max_attempts", 1_000_000, minimum=1)
        union = len(queries) > 1
        if union:
            weights = "ew"  # the cover sources draw with exact weights only
        warm = not union and workers == 1
        with self._admitted(
            "sample", label, (label, weights), queries, count,
            warm=warm, deadline=deadline,
        ) as ticket:
            drawn = self._sample(
                queries, count, seed, weights, workers, deadline,
                allow_partial, max_attempts,
            )
        with self._stats_lock:
            self._counters["samples_served"] += drawn["accepted"]
        return {
            "count": count,
            "backend": "online-union" if union else _WEIGHTS_TO_BACKEND[weights],
            "weights": weights,
            "warm": warm,
            "workers": workers,
            **drawn,
            "kind": "sample",
            "query": label,
            "seed": seed,
            "priced_seconds": ticket.priced_seconds,
        }

    def _chunk_draws(
        self,
        queries: Sequence[JoinQuery],
        seed: int,
        weights: str,
        workers: int,
        max_attempts: int,
    ) -> List[Callable[[int], Any]]:
        """One draw per worker, each taking its share of a chunk: a join's
        warm prototype clones (each serving its last share's surplus
        first), or a union's cover sources."""
        if len(queries) > 1:
            return union_takes(queries, seed, workers, max_attempts)
        # split() warms (refresh + build) the prototype; if a mutation
        # slipped in between the snapshot and the clones, the chunk loop's
        # epoch check catches the mismatch and restarts — never blends.
        clones = self._prototype(queries[0], weights).split(workers, seed=seed, share_plans=True)
        return [surplus_first(clone, max_attempts) for clone in clones]

    def _sample(
        self,
        queries: Sequence[JoinQuery],
        count: int,
        seed: int,
        weights: str,
        workers: int,
        deadline: Optional[float],
        allow_partial: bool,
        max_attempts: int,
    ) -> Dict[str, Any]:
        """Draw ``count`` values through the shared chunk loop."""
        hook = self._after_chunk
        run = draw_chunks(
            queries,
            partial(self._chunk_draws, queries, seed, weights, workers, max_attempts),
            count,
            chunk=self.sample_chunk,
            deadline=deadline,
            allow_partial=allow_partial,
            max_epoch_restarts=self.max_epoch_restarts,
            after_chunk=None if hook is None else partial(hook, self, queries),
            on_restart=self._count_restart,
        )
        if len(queries) > 1:
            union = CoverDraw.concat(run.parts)
            values = _json_columns(union.columns, run.drawn)
            sources = [queries[owner].name for owner in union.owners.tolist()]
            attempts = union.attempts
        else:
            # Values are projected only now, after the final epoch check:
            # the relations provably match the snapshot every block was
            # drawn from, so stale row positions can never be read through.
            query = queries[0]
            values = [row for block in run.parts for row in json_rows(block, query)]
            sources = [query.name] * len(values)
            attempts = sum(block.attempts for block in run.parts)
        return {
            "attempts": int(attempts),
            "accepted": len(values),
            "epoch_restarts": run.restarts,
            "degraded": run.degraded,
            "values": values,
            "sources": sources,
        }

    def _count_restart(self) -> None:
        with self._stats_lock:
            self._counters["epoch_restarts"] += 1

    # -------------------------------------------------------------- aggregate
    def _handle_aggregate(self, request: Mapping[str, object]) -> Dict[str, object]:
        label, queries = self._resolve_queries(
            get_str(request, "query", required=True)
        )
        aggregate = get_str(request, "aggregate", required=True, choices=_AGGREGATES)
        attribute = get_str(request, "attribute")
        group_by = get_str(request, "group_by")
        method = get_str(request, "method", "auto", choices=_METHODS)
        rel_error = get_float(request, "rel_error", 0.05, minimum=0.0,
                              exclusive_minimum=True)
        confidence = get_float(request, "confidence", 0.95, minimum=0.0,
                               exclusive_minimum=True)
        ci_method = get_str(request, "ci", "clt", choices=("clt", "bootstrap"))
        workers = get_int(request, "workers", 1, minimum=1, maximum=MAX_REQUEST_WORKERS)
        seed = get_int(request, "seed", 0, minimum=0)
        deadline = get_float(request, "deadline", minimum=0.0)
        allow_partial = get_bool(request, "allow_partial", False)
        max_attempts = get_int(request, "max_attempts", 1_000_000, minimum=1)
        if aggregate in ("sum", "avg") and not attribute:
            raise RequestError(
                "invalid-request", "field 'attribute' is required for sum/avg"
            )
        union = len(queries) > 1
        if union and method not in ("auto", "online-union"):
            raise RequestError(
                "invalid-request",
                f"method {method!r} cannot sample a union; use auto or online-union",
            )
        if not union and method == "online-union":
            raise RequestError(
                "invalid-request",
                "method 'online-union' samples a union of joins; use query='union'",
            )
        # Aggregate requests are priced at the sample demand their error
        # target implies — the same budget the planner amortizes setup over.
        budget = planning_budget(rel_error, confidence)
        warm = not union and workers == 1 and method in BACKEND_WEIGHTS
        use_cache = get_bool(request, "cache", self.cache is not None)
        if use_cache and self.cache is None:
            raise RequestError(
                "invalid-request",
                "this server runs without a sample cache; start it with "
                "--cache to enable cached aggregates",
            )
        # The cache tier rides the warm path only: shared-weight prototype
        # backends over a single join.  Anything else runs uncached.
        cache = self.cache if (use_cache and warm) else None
        cached_available = 0
        if cache is not None:
            entry = cache.peek(queries[0], BACKEND_WEIGHTS[method])
            if entry is not None:
                cached_available = min(entry.samples, budget)
        with self._admitted(
            "aggregate", label, (label, BACKEND_WEIGHTS.get(method, method)),
            queries, budget, warm=warm, deadline=deadline,
            cached_samples=cached_available, uses_cache=cache is not None,
        ) as ticket:
            spec = AggregateSpec(aggregate, attribute=attribute, group_by=group_by)
            clone, agg_seed = None, seed
            if warm:
                # Two independent streams: one seeds the prototype clone, one
                # the aggregator's own draws — deterministic per request, and
                # the prototype's stream is untouched either way.
                clone_rng, agg_seed = spawn_rngs(seed, 2)
                clone = self._prototype(
                    queries[0], BACKEND_WEIGHTS[method]
                ).split(1, seed=clone_rng, share_plans=True)[0]
            aggregator = OnlineAggregator(
                queries,
                spec,
                method=method,
                seed=agg_seed,
                confidence=confidence,
                ci_method=ci_method,
                parallelism=workers,  # 1 on the warm path
                target_samples=budget,
                join_sampler=clone,
                cache=cache,  # None off the warm path
            )
            report = aggregator.until(
                rel_error,
                max_attempts=max_attempts,
                deadline=deadline,
                allow_partial=allow_partial,
            )
        result = {
            "kind": "aggregate",
            "query": label,
            "aggregate": spec.describe(),
            "method": method,
            "backend": aggregator.backend,
            "weights": aggregator.plan.weights,
            "warm": warm,
            "workers": workers,
            "seed": seed,
            "rel_error": rel_error,
            "epochs_restarted": aggregator.epochs_restarted,
            "priced_seconds": ticket.priced_seconds,
            "report": report.to_dict(),
        }
        if cache is not None:
            result["cache"] = {
                "cached_samples": aggregator.cached_samples,
                "fresh_samples": aggregator.fresh_samples,
            }
        return result

    # ----------------------------------------------------------------- mutate
    def _handle_mutate(self, request: Mapping[str, object]) -> Dict[str, object]:
        name = get_str(request, "relation", required=True)
        raw = request.get("delete_positions")
        if (
            not isinstance(raw, list)
            or not raw
            or not all(isinstance(p, int) and not isinstance(p, bool) and p >= 0
                       for p in raw)
        ):
            raise RequestError(
                "invalid-request",
                "field 'delete_positions' must be a non-empty list of "
                "non-negative integers",
            )
        positions = sorted(set(raw))
        # The same relation name may back several joins as distinct filtered
        # objects (UQ1's regional partitions); mutate every instance so the
        # workload stays union-consistent.
        instances: Dict[int, object] = {}
        for query in self.workload.queries:
            relation = query.relations.get(name)
            if relation is not None:
                instances[id(relation)] = relation
        if not instances:
            raise RequestError(
                "unknown-query",
                f"workload {self.workload.name!r} has no relation {name!r}",
            )
        deleted = 0
        versions: List[int] = []
        for relation in instances.values():
            if positions[-1] >= len(relation):
                raise RequestError(
                    "invalid-request",
                    f"delete position {positions[-1]} out of range for "
                    f"relation {name!r} with {len(relation)} rows",
                )
            deleted += relation.delete_rows(positions)
            versions.append(relation.version)
        if self.cache is not None:
            # Eager, incremental invalidation: only streams whose join
            # touches the mutated relation drop; the epoch pin would catch
            # them lazily anyway, this just frees the bytes now.
            dropped = self.cache.drop_relation(name)
            with self._stats_lock:
                self._counters["cache_invalidations"] += dropped
        return {
            "kind": "mutate",
            "relation": name,
            "instances": len(instances),
            "rows_deleted": deleted,
            "versions": versions,
        }

    # ----------------------------------------------------------- health/stats
    def note_transport_error(self) -> None:
        """Count one transport-level failure (reset/timeout on a client)."""
        with self._stats_lock:
            self._counters["transport_errors"] += 1

    def _handle_health(self) -> Dict[str, object]:
        # Health is the one endpoint that must answer even while everything
        # else is being shed: it never enters the gate or admission, and it
        # reads only lock-protected snapshots.
        state = self._overload.state()
        stuck = self._watchdog.scan()
        status = "ok" if state == HEALTHY else state
        if stuck and status == "ok":
            status = "degraded"
        return {
            "kind": "health",
            "status": status,
            "state": state,
            "workload": self.workload.name,
            "queries": self.workload.query_names,
            "warm_prototypes": self.warm_prototypes,
            "inflight": self.admission.inflight,
            "stuck_requests": len(stuck),
        }

    def _handle_stats(self) -> Dict[str, object]:
        with self._stats_lock:
            counters = dict(self._counters)
        return {
            "kind": "stats",
            "workload": self.workload.name,
            "counters": counters,
            "admission": {
                "admitted": self.admission.admitted,
                "rejected": self.admission.rejected,
                "inflight": self.admission.inflight,
                "inflight_seconds": self.admission.inflight_seconds,
                "max_request_seconds": self.admission.limits.max_request_seconds,
                "max_samples": self.admission.limits.max_samples,
                "max_inflight": self.admission.limits.max_inflight,
            },
            "cache": (
                {"enabled": True, **self.cache.stats_dict()}
                if self.cache is not None
                else {"enabled": False}
            ),
            "overload": self._overload.snapshot(),
            "breakers": self._breakers.snapshot(),
            "watchdog": self._watchdog.snapshot(),
        }


__all__ = ["SamplingService", "json_rows"]
