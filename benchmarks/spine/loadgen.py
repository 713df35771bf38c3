"""The load loops of the serve stage.

The server is the shipped ``python -m repro serve``, started by
:mod:`child`; this module generates its load.

Requests come from a seeded *catalogue* of distinct, fully seeded requests
(mix 4/8 warm ``sample``, 3/8 SUM ``aggregate``, 1/8 GROUP BY ``aggregate``).
Arrivals pick catalogue entries, so every response can be checked against
``SamplingService.handle`` of the same request without replaying hundreds of
them; the server keeps no cache, so a repeated request is recomputed.

* open loop: one generator walks a seeded Poisson schedule (independent
  users); latency is timed from the *due* time, so a stall charges every
  request it delays, and the generator's own lateness is recorded;
* closed loop: ``clients`` threads each wait for their reply before sending
  the next request (callers that wait); throughput is completed / wall.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from http.client import HTTPException
from typing import Dict, List, Optional, Sequence, Tuple

import paths  # noqa: F401 - puts src on sys.path
from profiles import Profile
from spans import Tracer

from repro.server import ServerClient
from repro.utils.rng import keyed_rng

#: error codes that mean the server refused the work (load shedding)
SHED_CODES = frozenset({"admission-rejected", "overloaded", "circuit-open"})
#: position in the 8-cycle -> request kind (4/8 sample, 3/8 SUM, 1/8 GROUP BY)
MIX = ("sample",) * 4 + ("sum",) * 3 + ("groupby",)


def kind_of(pick: int) -> str:
    """The request kind of catalogue entry ``pick``."""
    return MIX[pick % len(MIX)]


# ------------------------------------------------------------------ requests
def request_of(kind: str, profile: Profile, query: str, seed: int) -> Dict[str, object]:
    """One fully seeded request of ``kind`` (``sample`` / ``sum`` / ``groupby``)."""
    if kind == "sample":
        return {"kind": "sample", "query": query, "count": profile.sample_count,
                "seed": seed}
    request: Dict[str, object] = {
        "kind": "aggregate", "query": query, "aggregate": "sum",
        "attribute": profile.sum_attribute, "rel_error": profile.serve_rel_error,
        "method": "exact-weight", "seed": seed,
    }
    if kind == "groupby":
        request["group_by"] = profile.group_attribute
    return request


def build_catalogue(profile: Profile, query: str, seed: int) -> List[Dict[str, object]]:
    """``profile.catalogue`` distinct requests; entry ``k`` has kind ``MIX[k % 8]``."""
    seeds = keyed_rng(seed, 1).integers(0, 2**31 - 1, size=profile.catalogue)
    return [
        request_of(kind_of(k), profile, query, int(seeds[k]))
        for k in range(profile.catalogue)
    ]


def arrival_schedule(
    rate: float, count: int, catalogue_size: int, seed: int
) -> Tuple[List[float], List[int]]:
    """Seeded Poisson arrivals: ``(due offsets in seconds, catalogue picks)``.

    Picks are a permutation folded onto the catalogue, so with ``count`` and
    ``catalogue_size`` multiples of 8 the 4/3/1 mix holds exactly in every
    slice, whatever the seed.
    """
    rng = keyed_rng(seed, 2)
    offsets = rng.exponential(1.0 / rate, size=count).cumsum()
    picks = rng.permutation(count) % catalogue_size
    return [float(o) for o in offsets], [int(p) for p in picks]


@dataclass
class Reply:
    """One request's outcome as the client saw it."""

    pick: int
    latency: float  # seconds; open loop: from the due time
    late: float  # seconds the send ran behind its due time (0 in closed loop)
    payload: Optional[Dict[str, object]]  # None on a transport failure

    @property
    def kind(self) -> str:
        return kind_of(self.pick)

    @property
    def ok(self) -> bool:
        return bool(self.payload and self.payload.get("ok"))

    @property
    def shed(self) -> bool:
        error = (self.payload or {}).get("error") or {}
        return error.get("code") in SHED_CODES


def _send(client: ServerClient, request: Dict[str, object]) -> Optional[Dict[str, object]]:
    try:
        return client.request(request)
    except (OSError, HTTPException, ValueError):  # refused/reset/timeout, bad reply
        return None


def open_loop(
    port: int,
    catalogue: Sequence[Dict[str, object]],
    offsets: Sequence[float],
    picks: Sequence[int],
    tracer: Tracer,
) -> List[Reply]:
    """Send each request at its due time; never earlier, later only if blocked."""
    client = ServerClient(port=port, timeout=30.0)
    replies: List[Reply] = []
    origin = time.perf_counter()
    for offset, pick in zip(offsets, picks):
        due = origin + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        sent = time.perf_counter()
        with tracer.span("server.http_request"):
            payload = _send(client, catalogue[pick])
        done = time.perf_counter()
        replies.append(Reply(pick, done - due, sent - due, payload))
    return replies


def closed_loop(
    port: int,
    catalogue: Sequence[Dict[str, object]],
    picks: Sequence[int],
    clients: int,
    tracer: Tracer,
) -> Tuple[List[Reply], float]:
    """``clients`` waiting callers drain ``picks``; returns replies and wall."""
    replies: List[Reply] = []
    cursor = iter(picks)
    lock = threading.Lock()

    def worker() -> None:
        client = ServerClient(port=port, timeout=30.0)
        while True:
            with lock:
                pick = next(cursor, None)
            if pick is None:
                return
            sent = time.perf_counter()
            with tracer.span("server.http_request"):
                payload = _send(client, catalogue[pick])
            reply = Reply(pick, time.perf_counter() - sent, 0.0, payload)
            with lock:
                replies.append(reply)

    threads = [threading.Thread(target=worker, name=f"spine-client-{i}")
               for i in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - started


__all__ = [
    "MIX",
    "Reply",
    "arrival_schedule",
    "build_catalogue",
    "closed_loop",
    "kind_of",
    "open_loop",
    "request_of",
]
