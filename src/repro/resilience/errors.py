"""Structured error taxonomy of the fault-tolerant sampling service.

Every failure the shard supervisor can observe maps to one of these classes,
and every one of them carries **shard attribution** — shard id, seed, backend,
attempt count, execution rung — so a failed parallel job names the exact unit
of work that died instead of losing the context in a blanket
``pool.terminate()``.  Where an original Python exception exists it is chained
(``raise ... from original``), preserving the worker traceback.

The taxonomy:

``ShardError``
    Base class; one shard attempt failed.  Subclasses refine the cause.
``ShardCrash``
    The shard raised an exception (thread/inline rungs, original chained) or
    its worker process died (process rung, exit code recorded).  Transient
    until proven otherwise — the supervisor retries it.
``ShardTimeout``
    One shard attempt exceeded its per-shard timeout.  Process workers are
    terminated; thread workers are *abandoned* cooperatively (a thread cannot
    be forcibly cancelled — the supervisor warns and discards the late
    result).
``CorruptShardResult``
    A shard result failed the pre-merge integrity check (shard-id echo,
    epoch echo, payload checksum).  Treated as transient: the shard re-runs
    with the same seed and must reproduce the identical payload.
``PoisonShardError``
    The same shard failed twice with an *identical* failure signature —
    deterministic poison, so further retries are pointless and the ladder
    cannot help.  Raised immediately (or recorded, under ``allow_partial``).
``JobDeadlineExceeded``
    The job-level deadline expired before every shard completed.  Subclasses
    ``RuntimeError`` so existing ``except RuntimeError`` callers keep
    working; carries the completed/planned shard counts for partial-result
    decisions.
``EpochRestartsExhausted``
    A sample draw kept meeting mutation epochs and gave up; carries its
    restart count.

All classes subclass ``RuntimeError``: pre-existing callers that guarded the
parallel service with ``except RuntimeError`` observe the new, attributed
failures without code changes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def describe_seed(seed: object) -> str:
    """Compact, stable description of a shard seed for error messages."""
    entropy = getattr(seed, "entropy", None)
    spawn_key = getattr(seed, "spawn_key", None)
    if entropy is None and spawn_key is None:
        return repr(seed)
    return f"SeedSequence(entropy={entropy}, spawn_key={tuple(spawn_key or ())})"


class ShardError(RuntimeError):
    """One shard attempt failed; carries full shard attribution."""

    def __init__(
        self,
        message: str,
        *,
        shard_id: int,
        backend: str = "?",
        seed: object = None,
        attempt: int = 0,
        rung: Optional[str] = None,
    ) -> None:
        self.shard_id = int(shard_id)
        self.backend = backend
        self.seed_description = describe_seed(seed) if seed is not None else "?"
        self.attempt = int(attempt)
        self.rung = rung
        detail = (
            f"[shard {self.shard_id} backend={self.backend} "
            f"attempt={self.attempt + 1}"
            + (f" rung={self.rung}" if self.rung else "")
            + f" seed={self.seed_description}]"
        )
        super().__init__(f"{message} {detail}")

    def signature(self) -> Tuple[str, str]:
        """(class name, message) pair used for poison-shard classification."""
        return (type(self).__name__, str(self.args[0]))


class ShardCrash(ShardError):
    """A shard raised, or its worker process died."""

    def __init__(self, message: str, *, exitcode: Optional[int] = None, **attribution) -> None:
        self.exitcode = exitcode
        if exitcode is not None:
            message = f"{message} (worker exit code {exitcode})"
        super().__init__(message, **attribution)


class ShardTimeout(ShardError):
    """One shard attempt exceeded its per-shard timeout."""

    def __init__(self, message: str, *, timeout: Optional[float] = None, **attribution) -> None:
        self.timeout = timeout
        if timeout is not None:
            message = f"{message} (timeout {timeout:g}s)"
        super().__init__(message, **attribution)


class CorruptShardResult(ShardError):
    """A shard result failed the pre-merge integrity check."""


class PoisonShardError(ShardError):
    """A shard failed identically twice: deterministic, retry-proof failure."""

    def __init__(self, message: str, *, failure_signature: Tuple[str, str] = ("", ""),
                 **attribution) -> None:
        self.failure_signature = failure_signature
        super().__init__(message, **attribution)


class EmptyResultError(RuntimeError):
    """A partial return was requested but *zero* samples were accepted.

    ``allow_partial`` promises a degraded-but-honest answer: fewer samples,
    wider CI.  When the deadline (or attempt budget) expires before a single
    sample is accepted there is no honest answer — ``achieved_rel_error``
    would divide by zero, and the all-rejected accumulator would report a
    zero-width CI around 0.0, which reads as *perfect* confidence.  Rather
    than emit that overconfident report, the engine raises this error.
    Schedulers should treat it like a deadline failure: retry with more time
    or a larger attempt budget.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline: Optional[float] = None,
        attempts: int = 0,
    ) -> None:
        self.deadline = deadline
        self.attempts = int(attempts)
        detail = f" (0 samples accepted after {self.attempts} attempts"
        if deadline is not None:
            detail += f", deadline {deadline:g}s"
        detail += ")"
        super().__init__(f"{message}{detail}")


class JobDeadlineExceeded(RuntimeError):
    """The job deadline expired with shards still outstanding.

    ``completed``/``planned`` record how much of the shard plan finished;
    ``incomplete_shards`` names the shards that did not.  Callers that want
    principled partial results pass ``allow_partial=True`` instead of
    catching this.
    """

    def __init__(
        self,
        message: str,
        *,
        deadline: Optional[float] = None,
        completed: int = 0,
        planned: int = 0,
        incomplete_shards: Sequence[int] = (),
    ) -> None:
        self.deadline = deadline
        self.completed = int(completed)
        self.planned = int(planned)
        self.incomplete_shards = tuple(incomplete_shards)
        detail = ""
        if planned:
            detail = (
                f" ({completed}/{planned} shards completed; "
                f"incomplete: {list(self.incomplete_shards)})"
            )
        super().__init__(f"{message}{detail}")


class EpochRestartsExhausted(RuntimeError):
    """A draw restarted on mutation epochs more often than it may."""

    def __init__(self, message: str, *, restarts: int) -> None:
        self.restarts = int(restarts)
        super().__init__(message)


__all__ = [
    "CorruptShardResult",
    "EmptyResultError",
    "EpochRestartsExhausted",
    "JobDeadlineExceeded",
    "PoisonShardError",
    "ShardCrash",
    "ShardError",
    "ShardTimeout",
    "describe_seed",
]
