"""The machine-readable contracts the checkers enforce.

Each registry is keyed by *name* (class or function), not by module path,
so the contracts follow the code through refactors, scratch copies, and
test fixtures alike.  They are seeded from the real classes that carry the
invariants today; a new class opts in by adding an entry here — which is
the point: the contract is written down once, in one reviewable place,
instead of living in five docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Tuple


# --------------------------------------------------------------------- locks
@dataclass(frozen=True)
class LockContract:
    """Which attributes of a class may only be touched under which lock.

    ``locks`` maps a lock attribute (``_lock``) to the attributes it
    guards.  ``locked_decorators`` maps a decorator name to the lock it
    acquires for the whole method body (``@_locked`` on ``JoinSampler``).
    Private helpers reached *only* from lock-holding call sites inherit the
    context (the checker computes that closure); ``__init__``/``__new__``
    are exempt — the object is not shared during construction.
    """

    locks: Mapping[str, FrozenSet[str]]
    locked_decorators: Mapping[str, str] = field(default_factory=dict)

    def guarded_by(self, attr: str) -> Tuple[str, ...]:
        return tuple(lock for lock, attrs in self.locks.items() if attr in attrs)


LOCK_REGISTRY: Dict[str, LockContract] = {
    # PR 7: transactional admission accounting — a slot or priced second
    # touched outside the lock can drift negative and wedge the server.
    "AdmissionController": LockContract(
        locks={
            "_lock": frozenset(
                {"_inflight", "_inflight_seconds", "admitted", "rejected"}
            )
        }
    ),
    # PR 8: LRU byte accounting and epoch-pinned entries — an unguarded
    # publish/evict race corrupts `_bytes` or serves a half-dropped entry.
    "SampleCache": LockContract(
        locks={
            "_lock": frozenset(
                {
                    "_entries",
                    "_bytes",
                    "_tick",
                    "hits",
                    "misses",
                    "evictions",
                    "invalidations",
                    "stale_drops",
                }
            )
        }
    ),
    # Concurrent run()/aggregate() callers of one pool share its
    # executor lifecycle, supervision counters and last-run bookkeeping.
    "ParallelSamplerPool": LockContract(
        locks={
            "_lock": frozenset(
                {
                    "_thread_executor",
                    "_closed",
                    "stats",
                    "epochs_restarted",
                    "_last_outcome",
                }
            )
        }
    ),
    # PR 7/8: warm-prototype registry under `_proto_lock`, request counters
    # under `_stats_lock` — two locks, disjoint state.
    "SamplingService": LockContract(
        locks={
            "_proto_lock": frozenset({"_prototypes", "_proto_builds"}),
            "_stats_lock": frozenset({"_counters"}),
        }
    ),
    # PR 7: a shared sampler serves concurrent server requests; the buffer
    # and the sampler's views (its build decisions) move on every draw.
    "JoinSampler": LockContract(
        locks={"_lock": frozenset({"_block_buffer", "_views"})},
        locked_decorators={"_locked": "_lock"},
    ),
    # Every sampler of a snapshot reads one descent: its plans are built
    # once, by whoever asks first.
    "_Descent": LockContract(locks={"_lock": frozenset({"_plans"})}),
    # The snapshot memo: threads reaching a new snapshot together must
    # publish one descent per key, not one each.
    "JoinQuery": LockContract(
        locks={"_derived_lock": frozenset({"_derived"})}
    ),
    # The shared alias tables: views of concurrent samplers build segments
    # into one prob/alias pair, so builds (and patch copies) serialize.
    "SegmentTables": LockContract(
        locks={"_lock": frozenset({"built", "prob", "alias"})}
    ),
    # PR 7: step/estimate interleave from concurrent callers; the
    # accumulator and epoch bookkeeping move together under the lock.
    "OnlineAggregator": LockContract(
        locks={"_lock": frozenset({"accumulator", "epochs_restarted"})}
    ),
    # PR 10: every handler thread records latencies into the health EWMAs;
    # a torn p99/state pair mis-triggers (or misses) a shed transition.
    "HealthMonitor": LockContract(
        locks={
            "_lock": frozenset(
                {"_p99", "_miss_rate", "_state", "_state_since", "_observations"}
            )
        }
    ),
    # PR 10: the priced-seconds reservation ledger; reserved/queued drifting
    # out from under the condition variable wedges the backpressure queue.
    "OverloadGate": LockContract(
        locks={
            "_cond": frozenset({"_reserved", "_queued", "admitted", "sheds"})
        }
    ),
    # PR 10: breaker states shared by every handler; an unguarded half-open
    # probe count lets concurrent probes stampede a recovering query.
    "BreakerRegistry": LockContract(
        locks={"_lock": frozenset({"_breakers", "rejections"})}
    ),
    # PR 10: watch/release tickets come from handler threads while scan()
    # runs from anywhere; the active table must move atomically.
    "Watchdog": LockContract(
        locks={"_lock": frozenset({"_active", "_next_id", "stuck_seen"})}
    ),
}


# --------------------------------------------------------------------- epoch
@dataclass(frozen=True)
class EpochContract:
    """The PR 2 staleness protocol of one versioned class.

    ``entry_points`` must call a ``refresh_method`` unconditionally; any
    *other* public method that reads a ``cached_attr`` directly must call a
    refresh method first (by line order).  ``exempt`` methods are the
    protocol's own machinery.
    """

    refresh_methods: FrozenSet[str]
    cached_attrs: FrozenSet[str]
    entry_points: FrozenSet[str] = frozenset()
    exempt: FrozenSet[str] = frozenset()


EPOCH_REGISTRY: Dict[str, EpochContract] = {
    # Every public draw path must re-sync weights/alias tables and discard
    # stale buffers before serving — the PR 2 protocol.
    "JoinSampler": EpochContract(
        refresh_methods=frozenset({"refresh"}),
        cached_attrs=frozenset({"_descent", "_views", "_block_buffer"}),
        entry_points=frozenset(
            {"sample_many", "sample_block", "attempt_block", "warm", "pop_buffered_blocks"}
        ),
        # ``weight_function`` names the snapshot last synced with, as the
        # attribute it replaced did; readers that need it current refresh.
        exempt=frozenset({"weight_function"}),
    ),
    # The per-snapshot state, exactly what ``_start_snapshot`` sets (the
    # membership memo sits behind ``membership``).
    "OnlineUnionSampler": EpochContract(
        refresh_methods=frozenset({"refresh"}),
        cached_attrs=frozenset({
            "parameters", "_probabilities", "confidence_level", "_pools", "membership",
            "_records", "_inside", "_records_since_update", "_ledger", "_value_queues",
            "_versions",
        }),
        entry_points=frozenset({"sample"}),
    ),
    # A sampler's view of the shared tables has no staleness check of its
    # own: its owner's does it (``JoinSampler.refresh`` replaces the view or
    # calls ``resync``, which restarts the cold-draw count), and its draw
    # methods are reached only through that owner's checked entry points.
    # Registered so that the view's build decisions and its count toward
    # promotion stay named as per-snapshot state: a new public reader must
    # be listed here.
    "SegmentedAliasTable": EpochContract(
        refresh_methods=frozenset({"resync"}),
        cached_attrs=frozenset({"_built", "_all_built", "_cold_draws"}),
        exempt=frozenset({"sample", "build_all"}),
    ),
    # The aggregator restarts its accumulator on epoch bumps; step() is the
    # only path that ingests draws, and it must sync first.
    "OnlineAggregator": EpochContract(
        refresh_methods=frozenset({"_sync_epoch"}),
        cached_attrs=frozenset(),
        entry_points=frozenset({"step"}),
    ),
}


# ----------------------------------------------------------------- merge law
@dataclass(frozen=True)
class MergeContract:
    """The merge law of one mergeable accumulator class.

    Statistical contributions are *kept*, and rounded float partials are
    never folded: ``+=`` on a rounded float destroys chunk-order
    invariance.  Totals are exact integers, rounded once at estimate time;
    they and the integer tallies are named in ``int_counters``, exact under
    ``+=`` and exempt.
    """

    int_counters: FrozenSet[str]


MERGE_REGISTRY: Dict[str, MergeContract] = {
    "AggregateAccumulator": MergeContract(
        int_counters=frozenset({"attempts", "accepted"})
    ),
    "_GroupData": MergeContract(int_counters=frozenset({"count"})),
    # The exact sum: an integer in units of 2**-1126, plus the non-finite
    # terms set aside in a list.
    "_ExactSum": MergeContract(int_counters=frozenset({"total"})),
}


# -------------------------------------------------------------- determinism
#: functions whose output keys caches or shard plans: any wall-clock,
#: entropy, or unordered-set dependence makes answers non-reproducible.
DETERMINISM_FUNCTIONS: FrozenSet[str] = frozenset(
    {
        "shape_key",
        "plan_tasks",
        "observed_versions",
        "shard_seed_sequences",
        "keyed_rng",
        # PR 10: the Retry-After hint must be a pure function of queue
        # state, and client backoff a pure function of (seed, attempt) —
        # wall-clock in either makes overload runs unreplayable.
        "retry_after_hint",
        "backoff_for",
    }
)

#: dotted call names that read wall clocks or OS entropy
NONDETERMINISTIC_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)


# ---------------------------------------------------------------- resources
#: acquisition method name -> method names that release it.  The PR 8 leak
#: class: an `admit()` ticket not released in a `finally` wedges the
#: server's inflight accounting when a request dies mid-flight.
RESOURCE_ACQUISITIONS: Dict[str, FrozenSet[str]] = {
    "admit": frozenset({"release"}),
    # PR 10: a watchdog ticket not released leaves a phantom "stuck"
    # request that keeps /health degraded forever.
    "watch": frozenset({"release"}),
}

#: executor factories that own OS threads/processes: every construction
#: must be a `with` block or a close()-managed instance attribute.
EXECUTOR_FACTORIES: FrozenSet[str] = frozenset(
    {
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
    }
)

#: method names whose presence marks a class as lifecycle-managing
LIFECYCLE_METHODS: FrozenSet[str] = frozenset({"close", "shutdown", "__exit__"})


# ----------------------------------------------------------------------- rng
#: the one module allowed to construct generators directly
RNG_MODULE_SUFFIX = "repro/utils/rng.py"

#: numpy.random module-state / legacy-global functions — forbidden anywhere
NUMPY_MODULE_STATE = frozenset(
    {
        "seed",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "poisson",
        "exponential",
        "get_state",
        "set_state",
    }
)

#: direct generator constructors — allowed only inside RNG_MODULE_SUFFIX
RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
    }
)


__all__ = [
    "DETERMINISM_FUNCTIONS",
    "EPOCH_REGISTRY",
    "EXECUTOR_FACTORIES",
    "EpochContract",
    "LIFECYCLE_METHODS",
    "LOCK_REGISTRY",
    "LockContract",
    "MERGE_REGISTRY",
    "MergeContract",
    "NONDETERMINISTIC_CALLS",
    "NUMPY_MODULE_STATE",
    "RESOURCE_ACQUISITIONS",
    "RNG_CONSTRUCTORS",
    "RNG_MODULE_SUFFIX",
]
