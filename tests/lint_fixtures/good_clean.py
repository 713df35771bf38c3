"""Known-good fixture: every contract honoured — the linter must stay silent.

Mirrors the registered classes by *name* (that is how contracts bind) with
minimal bodies that do everything right: locked access to guarded state,
refresh-before-serve, fsum-only accumulation, sorted set iteration, tickets
released in ``finally``, executors in ``with`` blocks.
"""

import math
import threading
from concurrent.futures import ThreadPoolExecutor


class SampleCache:
    def __init__(self):
        self._lock = threading.Lock()
        self._entries = {}
        self.hits = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self.hits += 1
                return self._entries[key]
            return None

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value
            self._evict()

    def _evict(self):
        # Reached only from lock-holding call sites: inherits the context.
        while len(self._entries) > 4:
            self._entries.pop(next(iter(self._entries)))


class AggregateAccumulator:
    def __init__(self):
        self.attempts = 0
        self.accepted = 0
        self._weights = []

    def extend(self, weights):
        self.attempts += len(weights)
        self.accepted += len(weights)
        self._weights.extend(weights)

    def estimate(self):
        return math.fsum(self._weights)


class JoinSampler:
    def __init__(self):
        self._descent = [1.0, 2.0]

    def refresh(self):
        return False

    def sample_block(self, count):
        self.refresh()
        return self._descent[:count]

    def sample_many(self, count):
        # Delegating to another checked entry point counts as refreshing.
        return self.sample_block(count)


def shape_key(queries):
    names = {query.name for query in queries}
    return tuple(sorted(names))


def handle_request(controller, work):
    ticket = controller.admit(1.0)
    try:
        return work()
    finally:
        ticket.release()


def probe(controller):
    ticket = controller.admit(0.0)
    ticket.release()
    return True


def run_parallel(tasks):
    with ThreadPoolExecutor(max_workers=2) as pool:
        return [future.result() for future in map(pool.submit, tasks)]
