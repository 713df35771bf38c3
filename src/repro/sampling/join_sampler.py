"""Uniform, independent sampling from a single join (Zhao et al., revisited).

:class:`JoinSampler` draws i.i.d. uniform samples from the result of one join
query without materializing it, by walking the join tree root-to-leaves:

1. pick a root row with probability proportional to its weight;
2. at every child relation, look up the joinable rows via the hash index,
   accept the descent with probability ``realized weight / bound`` (always 1
   for exact weights), and pick one joinable row proportionally to its weight;
3. for cyclic joins, verify the residual (cycle-breaking) conditions on the
   assembled assignment;
4. optionally verify selection predicates that were not pushed down (§8.3).

Every accepted result has probability ``1 / W`` where ``W`` is the weight
function's total weight, hence results are uniform over the join; acceptance
probability is ``|J| / W``.

One block path produces every sample; one scalar walker checks it:

* :meth:`JoinSampler.sample_block` runs whole batches of walks
  level-by-level over the columnar/CSR storage layer.  The root row and
  every per-level child choice are O(1) Walker/Vose alias-table draws (two
  array lookups per draw — see :mod:`repro.sampling.alias`) instead of
  O(log n) ``searchsorted`` probes, and accepted walks come back as one
  struct-of-arrays :class:`~repro.sampling.blocks.SampleBlock` — no per-draw
  Python objects anywhere on the sampler → aggregator → shard-merge path.
  Surplus accepted walks wait in one buffer of blocks (:func:`draw_and_drain`
  is the draw-then-drain idiom every consumer shares).
* :meth:`JoinSampler.sample_many` is the one boxing view: the same block,
  boxed into :class:`SampleDraw` objects after the fact.
* :meth:`JoinSampler.try_sample` performs one root-to-leaf walk at a time —
  the reference implementation of the paper's algorithm, kept as the oracle
  the tests compare the block path against.

Thread fan-out is the consumer's business: :meth:`split` hands out shard
samplers and :func:`repro.aqp.sources.fan_out` drives them.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery
from repro.sampling.alias import AliasTable, SegmentedAliasTable
from repro.sampling.blocks import SampleBlock
from repro.sampling.weights import (
    ExactWeightFunction,
    WeightFunction,
    make_weight_function,
)
from repro.utils.rng import RandomState, ensure_rng, spawn_rngs


@dataclass
class SampleDraw:
    """One accepted sample from a join.

    Attributes
    ----------
    value:
        The output value (``t.val``): projection onto the output attributes.
    assignment:
        Relation name -> row position of the underlying join result.
    attempts:
        Number of root-to-leaf walks needed to produce this accepted sample
        (always 1 for samples produced by the batched path, which accounts
        rejected walks in the sampler-level stats instead).
    """

    value: Tuple
    assignment: Dict[str, int]
    attempts: int = 1


@dataclass
class JoinSamplerStats:
    """Cumulative accept/reject counters of a :class:`JoinSampler`."""

    attempts: int = 0
    accepted: int = 0
    rejected_weight: int = 0
    rejected_empty: int = 0
    rejected_residual: int = 0
    rejected_predicate: int = 0

    @property
    def acceptance_rate(self) -> float:
        if self.attempts == 0:
            return 0.0
        return self.accepted / self.attempts


def _locked(method: Callable) -> Callable:
    """Serialize a public entry point on the sampler's reentrant lock.

    Draw calls mutate shared state (buffers, stats, lazily-built plans, the
    generator) — the lock makes one sampler safe for concurrent callers (the
    server's shared-state path).  Reentrant so ``sample_block -> refresh``
    nests; distinct samplers (e.g. ``split()`` shards) have
    distinct locks and never contend.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


@dataclass
class _LevelPlan:
    """Precomputed per-node arrays for the batched descent.

    For the non-root node ``node`` with parent ``parent``:

    * ``parent_keys[p]`` is the join-key value of parent row ``p``;
    * ``csr`` groups the node's row positions by key (CSR layout);
    * ``alias`` holds one Walker/Vose alias table per key segment (drawn
      from cold until building pays — see
      :class:`~repro.sampling.alias.SegmentedAliasTable`), whose
      ``segment_totals`` double as the realized weight sums driving the
      accept/reject test.
    """

    node: JoinTreeNode
    parent: JoinTreeNode
    parent_keys: np.ndarray
    csr: object  # SortedIndex
    alias: SegmentedAliasTable
    bound: Optional[float]


class JoinSampler:
    """Accept/reject uniform sampler over one join query.

    Parameters
    ----------
    query:
        The join to sample from.
    weights:
        ``"ew"`` (exact weights), ``"eo"`` (extended Olken), ``"auto"``
        (cost-based choice between the two via
        :func:`repro.aqp.planner.choose_weights`), or a prebuilt
        :class:`~repro.sampling.weights.WeightFunction`.
    seed:
        Seed or generator for reproducible draws.
    enforce_predicates:
        When True and the query carries predicates that were *not* pushed
        down, each assembled result is additionally checked against them and
        rejected on failure (§8.3 second alternative).
    max_batch_size:
        Upper bound on the number of simultaneous walks of one batched pass.
    """

    def __init__(
        self,
        query: JoinQuery,
        weights: str | WeightFunction = "ew",
        seed: RandomState = None,
        enforce_predicates: bool = True,
        max_batch_size: int = 8192,
        _prototype: Optional["JoinSampler"] = None,
    ) -> None:
        self.query = query
        if isinstance(weights, WeightFunction):
            self.weight_function = weights
            # A prebuilt weight function may predate mutations of the base
            # relations; re-sync before caching anything derived from it.
            self.weight_function.refresh()
        else:
            if weights == "auto":
                # Deferred import: the planner lives above the sampling layer.
                from repro.aqp.planner import choose_weights

                weights = choose_weights(query)
            self.weight_function = make_weight_function(weights, query)
        #: the tree the weights were computed over (a clone made by
        #: :meth:`split` thereby walks its prototype's tree)
        self.tree = self.weight_function.tree
        self.rng = ensure_rng(seed)
        self.enforce_predicates = enforce_predicates
        self.stats = JoinSamplerStats()
        #: pre-order node list (root first) for the descent
        self._order = self.tree.descent()
        self._relation_order = tuple(node.relation for node, _ in self._order)
        self._relations = [self.query.relation(name) for name in self._relation_order]
        self._db_versions = tuple(r.version for r in self._relations)
        self._plans: Optional[List[_LevelPlan]] = None
        #: surplus accepted work in struct-of-arrays form (the one buffer)
        self._block_buffer: List[SampleBlock] = []
        self._min_batch_size = 32
        self._max_batch_size = max(int(max_batch_size), 1)
        self._lock = threading.RLock()
        #: True when ``_root_alias``/``_plans`` are borrowed read-only from a
        #: warm prototype (see :meth:`split`); a refresh must then drop the
        #: borrowed structures instead of mutating them in place.
        self._shared_plans = False
        if _prototype is not None:
            # Borrow the prototype's (fully built, read-only) structures
            # instead of paying the O(root rows) alias construction per clone.
            self._root_weights = _prototype._root_weights
            self._root_total = _prototype._root_total
            self._root_alias = _prototype._root_alias
            self._root_cumulative = _prototype._root_cumulative
            self._plans = _prototype._plans
            self._shared_plans = True
        else:
            self._load_root_weights()

    def _load_root_weights(self) -> None:
        self._root_weights = np.asarray(self.weight_function.root_weights(), dtype=float)
        self._root_total = float(self._root_weights.sum())
        self._root_alias = (
            AliasTable(self._root_weights) if self._root_total > 0 else None
        )
        # Cumulative weights serve only the scalar reference path; built
        # lazily so the hot block path never pays for them.
        self._root_cumulative: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- public
    @property
    def stale(self) -> bool:
        """True when a base relation mutated since the last (re)build."""
        return tuple(r.version for r in self._relations) != self._db_versions

    @_locked
    def refresh(self) -> bool:
        """Re-sync with mutated base relations; returns True when stale.

        The epoch protocol: every effective mutation bumps
        :attr:`Relation.version`; each draw entry point compares those
        counters (a handful of int comparisons) and, on staleness, refreshes
        the weight function (which patches only the affected segments),
        rebuilds the root alias table, re-syncs the level plans **per edge**
        (an edge whose own relations mutated is rebuilt from the
        delta-maintained CSR indexes; an untouched edge keeps its CSR, key
        arrays, and alias tables, invalidating only the segments whose child
        weights actually moved — drawn cold from the new weights), and —
        critically — discards buffered draws, which describe the *previous*
        database state.
        """
        versions = tuple(r.version for r in self._relations)
        if versions == self._db_versions:
            return False
        stale_names = {
            name
            for name, relation, version in zip(
                self._relation_order, self._relations, self._db_versions
            )
            if relation.version != version
        }
        self.weight_function.refresh()
        self._load_root_weights()
        if self._shared_plans:
            # The plans belong to the warm prototype; never mutate them from
            # a borrower.  Drop the reference and rebuild lazily on demand.
            self._plans = None
            self._shared_plans = False
        else:
            self._refresh_plans(stale_names)
        self._block_buffer.clear()
        self._db_versions = versions
        return True

    @property
    def size_bound(self) -> float:
        """The weight function's total weight (upper bound on the join size)."""
        self.refresh()
        return self.weight_function.total_weight

    def exact_size(self) -> Optional[float]:
        """Exact (skeleton) join size when exact weights are in use, else None."""
        if isinstance(self.weight_function, ExactWeightFunction):
            self.refresh()
            return self.weight_function.total_weight
        return None

    @_locked
    def try_sample(self) -> Optional[SampleDraw]:
        """One root-to-leaf attempt; ``None`` when the walk is rejected.

        This is the scalar reference path; :meth:`sample_block` runs the same
        accept/reject process vectorized over whole batches of walks.
        """
        self.refresh()
        self.stats.attempts += 1
        if self._root_total <= 0:
            self.stats.rejected_empty += 1
            return None
        assignment: Dict[str, int] = {}
        root = self.tree.root
        root_pos = self._weighted_root_choice()
        if root_pos is None:
            self.stats.rejected_empty += 1
            return None
        assignment[root.relation] = root_pos

        for node, parent in self._order:
            if parent is None:
                continue
            parent_rel = self.query.relation(parent.relation)
            child_rel = self.query.relation(node.relation)
            key = parent_rel.project_row(assignment[parent.relation], node.parent_attributes)
            lookup = key if len(key) > 1 else key[0]
            index = child_rel.index_on_columns(node.child_attributes)
            joinable = index.positions(lookup)
            if len(joinable) == 0:
                self.stats.rejected_empty += 1
                return None
            weights = self.weight_function.weights_for(node, joinable)
            realized = float(weights.sum())
            if realized <= 0:
                self.stats.rejected_empty += 1
                return None
            bound = self.weight_function.acceptance_bound(node)
            if bound is not None and bound > 0:
                if self.rng.random() >= realized / bound:
                    self.stats.rejected_weight += 1
                    return None
            chosen = int(self.rng.choice(len(joinable), p=weights / realized))
            assignment[node.relation] = int(joinable[chosen])

        if not self.tree.residual_satisfied(assignment):
            self.stats.rejected_residual += 1
            return None
        if self.enforce_predicates and not self._predicates_satisfied(assignment):
            self.stats.rejected_predicate += 1
            return None

        self.stats.accepted += 1
        return SampleDraw(
            value=self.query.project_assignment(assignment),
            assignment=dict(assignment),
            attempts=1,
        )

    def sample_many(self, count: int, max_attempts: int = 1_000_000) -> List[SampleDraw]:
        """``count`` accepted samples as boxed :class:`SampleDraw` objects.

        The one boxing view over :meth:`sample_block`: the block is drawn
        first (consuming the identical random stream) and boxed afterwards,
        so for a fixed seed ``sample_many(n)`` and ``sample_block(n)``
        describe the same samples.
        """
        return self.sample_block(count, max_attempts=max_attempts).to_draws(self.query)

    @_locked
    def sample_block(self, count: int, max_attempts: int = 1_000_000) -> SampleBlock:
        """``count`` accepted samples in struct-of-arrays form (zero-object).

        Rejected walks are retried in adaptively-sized batches; a stretch of
        ``max_attempts`` consecutive rejected walks raises ``RuntimeError``
        (bound too loose or empty join).  On that error the samples accepted
        so far are parked in the internal buffer — never dropped — so a
        retry (or a later call) picks them up.  Surplus accepted walks are
        likewise kept in the buffer for subsequent calls.  ``count=0``
        returns an empty block without consuming random state or touching
        the buffer.

        The returned block's ``attempts`` counts the draw attempts consumed
        by *this call* (buffered samples were accounted when drawn, so they
        add none), and its ``weight`` is the weight function's total weight.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.refresh()
        total_weight = self.weight_function.total_weight
        if count == 0:
            return SampleBlock.empty(self._relation_order, weight=total_weight)
        parts: List[SampleBlock] = []
        have = 0
        while self._block_buffer and have < count:
            parked = self._block_buffer.pop(0)
            if have + len(parked) > count:
                head, tail = parked.split(count - have)
                self._block_buffer.insert(0, tail)
                parked = head
            parts.append(parked)
            have += len(parked)
        attempts = 0
        attempts_since_accept = 0
        while have < count:
            need = count - have
            size = min(self._next_batch_size(need), max(1, max_attempts - attempts_since_accept))
            accepted = self._attempt_block(size)
            attempts += size
            if accepted is not None and len(accepted):
                attempts_since_accept = 0
                parts.append(accepted)
                have += len(accepted)
            else:
                attempts_since_accept += size
                if attempts_since_accept >= max_attempts:
                    # Park the accepted work instead of losing it: the buffer
                    # stays consistent, so a later call (e.g. after the
                    # caller raises its budget) continues cleanly.
                    self._park(parts)
                    raise RuntimeError(
                        f"JoinSampler on {self.query.name!r} failed to accept a sample "
                        f"after {max_attempts} attempts (bound too loose or empty join)"
                    )
        block = SampleBlock.concat(parts) if parts else SampleBlock.empty(self._relation_order)
        block.weight = total_weight
        block.attempts = attempts
        if len(block) > count:
            block, tail = block.split(count)
            self._block_buffer.append(tail)
        return block

    def _park(self, parts: List[SampleBlock]) -> None:
        for part in parts:
            part.attempts = 0  # already accounted in self.stats
            if len(part):
                self._block_buffer.append(part)

    @_locked
    def pop_buffered_blocks(self) -> List[SampleBlock]:
        """Drain and return the buffered surplus of the last batched pass.

        The AQP layer consumes every accepted draw of a batch so that its
        attempt-level accounting (accepted vs. rejected walks) stays aligned
        with the draws it ingested.  Runs the staleness check first: surplus
        buffered under a previous mutation epoch must be discarded, not
        served.
        """
        self.refresh()
        drained = self._block_buffer
        self._block_buffer = []
        return drained

    @_locked
    def warm(self) -> "JoinSampler":
        """Eagerly build every descent structure; returns self for chaining.

        After warming, the root alias table, every level plan, and every
        per-segment alias table exist and are fully built, so subsequent
        draws (and :meth:`split` clones that borrow the structures) never
        pay lazy-construction cost — and, because a fully built
        :class:`~repro.sampling.alias.SegmentedAliasTable` is read-only, the
        structures are safe to share across threads.  The server calls this
        once per (query, weights, epoch).
        """
        self.refresh()
        for plan in self._level_plans():
            plan.alias.build_all()
        return self

    @_locked
    def split(
        self,
        count: int,
        seed: RandomState = None,
        share_plans: bool = False,
    ) -> List["JoinSampler"]:
        """``count`` independent shard samplers over the same join.

        The shards share this sampler's weight function and join tree (so the
        expensive weight computation is paid once) but draw from independent
        streams derived via :func:`~repro.utils.rng.spawn_rngs` — by default
        from this sampler's own stream, so a fixed parent seed yields a fixed
        family of shards; with an explicit ``seed`` the parent's stream is
        left untouched (the server's per-request clones rely on this).
        Shards are safe to run on concurrent threads as long as the base
        relations do not mutate mid-batch (the coordinator epoch guard in
        :mod:`repro.parallel` handles mutations between batches).

        With ``share_plans=True`` this sampler is warmed first and the clones
        borrow its root alias table and level plans **read-only** (a fully
        built table never mutates on draw), so a clone costs O(1) instead of
        O(root rows).  A borrowing clone that observes a mutation epoch drops
        the borrowed structures and rebuilds its own.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if share_plans:
            self.warm()
        streams = spawn_rngs(self.rng if seed is None else seed, count)
        shards = [
            JoinSampler(
                self.query,
                weights=self.weight_function,
                seed=stream,
                enforce_predicates=self.enforce_predicates,
                max_batch_size=self._max_batch_size,
                _prototype=self if share_plans else None,
            )
            for stream in streams
        ]
        return shards

    # ------------------------------------------------------------- block path
    def _next_batch_size(self, need: int) -> int:
        """Batch size that should yield ``need`` accepted samples in one pass."""
        if self.stats.attempts > 0 and self.stats.accepted > 0:
            rate = self.stats.accepted / self.stats.attempts
            estimate = int(need / rate * 1.25) + 1
        else:
            estimate = need * 4
        return max(self._min_batch_size, min(estimate, self._max_batch_size))

    def _level_plans(self) -> List[_LevelPlan]:
        """Per-node CSR/alias structures, built once on first batched call."""
        if self._plans is None:
            self._plans = [
                self._build_plan(node, parent)
                for node, parent in self._order
                if parent is not None
            ]
        return self._plans

    def _build_plan(self, node: JoinTreeNode, parent: JoinTreeNode) -> _LevelPlan:
        parent_rel = self.query.relation(parent.relation)
        child_rel = self.query.relation(node.relation)
        csr = child_rel.sorted_index_on_columns(node.child_attributes)
        csr_weights = np.asarray(
            self.weight_function.weights_for(node, csr.row_positions),
            dtype=float,
        )
        return _LevelPlan(
            node=node,
            parent=parent,
            parent_keys=parent_rel.join_key_array(node.parent_attributes),
            csr=csr,
            alias=SegmentedAliasTable(csr_weights, csr.offsets),
            bound=self.weight_function.acceptance_bound(node),
        )

    def _refresh_plans(self, stale_names: set) -> None:
        """Re-sync built level plans with a new mutation epoch, per edge.

        An edge whose own relations mutated gets a fresh plan (its CSR layout
        and/or parent key arrays changed shape).  An edge whose endpoints are
        untouched keeps everything by reference — but its child weights
        summarize the child's whole *subtree*, so a delta further down can
        move them: those are diffed in one vectorized compare and only the
        dirtied segments' alias tables are invalidated
        (:meth:`SegmentedAliasTable.rebuild_segments`; they are drawn cold
        until the table next builds itself).  Unbuilt plans stay unbuilt.
        """
        if self._plans is None:
            return
        refreshed: List[_LevelPlan] = []
        for plan in self._plans:
            if plan.node.relation in stale_names or plan.parent.relation in stale_names:
                refreshed.append(self._build_plan(plan.node, plan.parent))
                continue
            new_weights = np.asarray(
                self.weight_function.weights_for(plan.node, plan.csr.row_positions),
                dtype=float,
            )
            plan.bound = self.weight_function.acceptance_bound(plan.node)
            changed = np.flatnonzero(new_weights != plan.alias.weights)
            if changed.size:
                slots = np.unique(
                    np.searchsorted(plan.csr.offsets, changed, side="right") - 1
                )
                plan.alias.rebuild_segments(slots.tolist(), new_weights)
            refreshed.append(plan)
        self._plans = refreshed

    def _attempt_block(self, size: int) -> Optional[SampleBlock]:
        """Run ``size`` root-to-leaf walks simultaneously; return the accepted."""
        self.stats.attempts += size
        if self._root_total <= 0 or self._root_alias is None:
            self.stats.rejected_empty += size
            return None

        chosen: Dict[str, np.ndarray] = {
            name: np.full(size, -1, dtype=np.intp) for name in self._relation_order
        }
        chosen[self.tree.root.relation] = self._batch_root_choice(size)
        walks = np.arange(size, dtype=np.intp)

        for plan in self._level_plans():
            if walks.size == 0:
                break
            parent_positions = chosen[plan.parent.relation][walks]
            keys = plan.parent_keys[parent_positions]
            slots = plan.csr.slots_for(keys)
            present = slots >= 0
            if not present.all():
                self.stats.rejected_empty += int((~present).sum())
                walks = walks[present]
                slots = slots[present]
                if walks.size == 0:
                    break
            realized = plan.alias.segment_totals[slots]
            positive = realized > 0
            if not positive.all():
                self.stats.rejected_empty += int((~positive).sum())
                walks = walks[positive]
                slots = slots[positive]
                realized = realized[positive]
                if walks.size == 0:
                    break
            if plan.bound is not None and plan.bound > 0:
                accept = self.rng.random(walks.size) < realized / plan.bound
                if not accept.all():
                    self.stats.rejected_weight += int((~accept).sum())
                    walks = walks[accept]
                    slots = slots[accept]
                    if walks.size == 0:
                        break
            # Weighted child choice: one alias-table draw per walk (a dart
            # and a coin — two array lookups, no binary search).
            idx = plan.alias.sample(self.rng, slots)
            chosen[plan.node.relation][walks] = plan.csr.row_positions[idx]

        if walks.size and self.tree.residual_conditions:
            walks = self._filter_residuals(chosen, walks)
        if walks.size and self.enforce_predicates and self.query.unpushed_predicates:
            walks = self._filter_predicates(chosen, walks)
        if walks.size == 0:
            return None

        self.stats.accepted += int(walks.size)
        return SampleBlock(
            relation_order=self._relation_order,
            positions={
                name: chosen[name][walks] for name in self._relation_order
            },
            attempts=size,
            weight=self.weight_function.total_weight,
        )

    def _batch_root_choice(self, size: int) -> np.ndarray:
        """``size`` root rows via the root alias table (O(1) per draw)."""
        assert self._root_alias is not None
        return self._root_alias.sample(self.rng, size)

    def _filter_residuals(self, chosen: Dict[str, np.ndarray], walks: np.ndarray) -> np.ndarray:
        """Drop walks whose assembled assignment violates a residual condition."""
        ok = self.tree.residual_mask(
            {name: positions[walks] for name, positions in chosen.items()}
        )
        rejected = int((~ok).sum())
        if rejected:
            self.stats.rejected_residual += rejected
            walks = walks[ok]
        return walks

    def _filter_predicates(self, chosen: Dict[str, np.ndarray], walks: np.ndarray) -> np.ndarray:
        """Drop walks violating predicates that were not pushed down (§8.3)."""
        keep = np.ones(walks.size, dtype=bool)
        for rel_name in self.query.unpushed_predicates:
            positions = chosen[rel_name][walks]
            for i, pos in enumerate(positions.tolist()):
                if keep[i] and not self.query.admits_row(rel_name, pos):
                    keep[i] = False
        rejected = int((~keep).sum())
        if rejected:
            self.stats.rejected_predicate += rejected
            walks = walks[keep]
        return walks

    # --------------------------------------------------------------- internals
    def _weighted_root_choice(self) -> Optional[int]:
        if self._root_total <= 0:
            return None
        if self._root_cumulative is None:
            self._root_cumulative = np.cumsum(self._root_weights)
        target = self.rng.random() * self._root_total
        pos = int(np.searchsorted(self._root_cumulative, target, side="right"))
        if pos >= len(self._root_weights):
            pos = len(self._root_weights) - 1
        if self._root_weights[pos] <= 0:
            # Landed on a zero-weight row due to floating point edge effects;
            # fall back to an explicit renormalized choice.
            positive = np.flatnonzero(self._root_weights > 0)
            if positive.size == 0:
                return None
            probabilities = self._root_weights[positive] / self._root_weights[positive].sum()
            pos = int(self.rng.choice(positive, p=probabilities))
        return pos

    def _predicates_satisfied(self, assignment: Dict[str, int]) -> bool:
        return all(
            self.query.admits_row(rel_name, assignment[rel_name])
            for rel_name in self.query.unpushed_predicates
        )


def draw_and_drain(
    sampler: JoinSampler, count: int, max_attempts: int = 1_000_000
) -> List[SampleBlock]:
    """``[sample_block(count), *surplus]``: every accepted walk of the pass,
    for consumers that account attempts (the AQP sources) or want values as
    cheaply as possible (the union samplers' per-join queues)."""
    return [
        sampler.sample_block(count, max_attempts=max_attempts),
        *sampler.pop_buffered_blocks(),
    ]


__all__ = ["JoinSampler", "JoinSamplerStats", "SampleBlock", "SampleDraw", "draw_and_drain"]
