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

import dataclasses
import functools
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Set, Tuple, TypeVar, cast

import numpy as np
import numpy.typing as npt

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery
from repro.relational.index import SortedIndex
from repro.sampling.alias import AliasTable, SegmentedAliasTable, SegmentTables
from repro.sampling.blocks import PositionArray, SampleBlock
from repro.sampling.weights import (
    ExactWeightFunction,
    WeightFunction,
    make_weight_function,
    weight_kind,
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


_Method = TypeVar("_Method", bound=Callable[..., Any])


def _locked(method: _Method) -> _Method:
    """Serialize a public entry point on the sampler's reentrant lock.

    Draw calls mutate shared state (buffers, stats, lazily-built plans, the
    generator) — the lock makes one sampler safe for concurrent callers (the
    server's shared-state path).  Reentrant so ``sample_block -> refresh``
    nests; distinct samplers (e.g. ``split()`` shards) have
    distinct locks and never contend.
    """

    @functools.wraps(method)
    def wrapper(self: "JoinSampler", *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return method(self, *args, **kwargs)

    return cast(_Method, wrapper)


@dataclass(frozen=True)
class _LevelPlan:
    """Precomputed per-node arrays for the batched descent.

    For the non-root node ``node`` with parent ``parent``:

    * ``parent_keys[p]`` is the join-key value of parent row ``p``;
    * ``csr`` groups the node's row positions by key (CSR layout);
    * ``tables`` holds one Walker/Vose alias table per key segment, shared
      by every sampler of the snapshot (each draws through its own
      :class:`~repro.sampling.alias.SegmentedAliasTable` view); its
      ``segment_totals`` double as the realized weight sums driving the
      accept/reject test.
    """

    node: JoinTreeNode
    parent: JoinTreeNode
    parent_keys: npt.NDArray[Any]
    csr: SortedIndex
    tables: SegmentTables
    bound: Optional[float]


class _Descent:
    """What every sampler of one snapshot shares for one (query, weight
    kind, join-tree shape): the weight function, the root alias table and
    the per-edge level plans.

    Held in ``query.derived`` (a caller's own weight function gets an
    unmemoized one), built once per snapshot, and never rewritten once
    published: the root alias is built eagerly, the plans once, on the
    first batched draw, under ``_lock``, and the next snapshot's descent is
    :meth:`patched` from this one.
    """

    def __init__(
        self, weight_function: WeightFunction, previous: Optional["_Descent"] = None
    ) -> None:
        self.weight_function = weight_function
        self.tree = weight_function.tree
        #: the snapshot the structures describe (a caller may refresh its
        #: own weight function in place; the plans still describe this one)
        self.versions = {
            node.relation: weight_function.query.relation(node.relation).version
            for node in self.tree.nodes()
        }
        self.root_weights = np.asarray(weight_function.root_weights(), dtype=float)
        self.root_total = float(self.root_weights.sum())
        self.root_alias: Optional[AliasTable]
        if previous is not None and np.array_equal(previous.root_weights, self.root_weights):
            self.root_alias = previous.root_alias
        else:
            self.root_alias = (
                AliasTable(self.root_weights) if self.root_total > 0 else None
            )
        self._lock = threading.Lock()
        # Cumulative weights serve only the scalar reference path; built
        # lazily so the hot block path never pays for them.
        self._root_cumulative: Optional[npt.NDArray[np.float64]] = None
        self._plans: Optional[List[_LevelPlan]] = None

    def plans(self) -> List[_LevelPlan]:
        """Per-edge CSR/alias structures in descent order, built once."""
        with self._lock:
            if self._plans is None:
                self._plans = [
                    self._build_plan(node, parent)
                    for node, parent in self.tree.descent()
                    if parent is not None
                ]
            return self._plans

    def root_cumulative(self) -> npt.NDArray[np.float64]:
        with self._lock:
            if self._root_cumulative is None:
                self._root_cumulative = np.cumsum(self.root_weights)
            return self._root_cumulative

    def _build_plan(self, node: JoinTreeNode, parent: JoinTreeNode) -> _LevelPlan:
        query = self.weight_function.query
        csr = query.relation(node.relation).sorted_index_on_columns(node.child_attributes)
        return _LevelPlan(
            node=node,
            parent=parent,
            parent_keys=query.relation(parent.relation).join_key_array(
                node.parent_attributes
            ),
            csr=csr,
            tables=SegmentTables(self._csr_weights(node, csr), csr.offsets),
            bound=self.weight_function.acceptance_bound(node),
        )

    def _csr_weights(self, node: JoinTreeNode, csr: SortedIndex) -> npt.NDArray[np.float64]:
        return np.asarray(
            self.weight_function.weights_for(node, csr.row_positions), dtype=float
        )

    def patched(self) -> "_Descent":
        """The current snapshot's descent, built from this one per edge.

        The weights are refreshed incrementally
        (:meth:`~repro.sampling.weights.WeightFunction.refreshed`) and the
        root alias is reused when the root weights did not move.  An edge
        whose own relations mutated gets a fresh plan (its CSR layout and/or
        parent key arrays changed).  An edge whose endpoints are untouched
        keeps its CSR and key arrays by reference — but its child weights
        summarize the child's whole *subtree*, so a delta further down can
        move them: :meth:`SegmentTables.patched` copies its tables, resetting
        only the dirtied segments.  Plans never built stay unbuilt.
        """
        successor = _Descent(self.weight_function.refreshed(), previous=self)
        dirty = {
            name for name, version in successor.versions.items()
            if version != self.versions[name]
        }
        with self._lock:
            plans = self._plans
        if plans is not None:
            successor._plans = [successor._patched_plan(plan, dirty) for plan in plans]
        return successor

    def _patched_plan(self, plan: _LevelPlan, dirty: Set[str]) -> _LevelPlan:
        if plan.node.relation in dirty or plan.parent.relation in dirty:
            return self._build_plan(plan.node, plan.parent)
        return dataclasses.replace(
            plan,
            tables=plan.tables.patched(self._csr_weights(plan.node, plan.csr)),
            bound=self.weight_function.acceptance_bound(plan.node),
        )


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
    ) -> None:
        descent_key: Optional[Hashable] = None
        if isinstance(weights, WeightFunction):
            # A caller's own weight function may predate mutations of the
            # base relations; its descent is this sampler's (and its
            # clones') alone.
            descent = _Descent(weights.refreshed())
        else:
            if weights == "auto":
                # Deferred import: the planner lives above the sampling layer.
                from repro.aqp.planner import choose_weights

                weights = choose_weights(query)
            kind = weight_kind(weights)
            descent_key = ("descent", kind, query.join_tree().shape())
            descent = query.derived(
                descent_key,
                lambda: _Descent(make_weight_function(kind, query)),
                patch=_Descent.patched,
            )
        self._start(query, descent, descent_key, seed, enforce_predicates, max_batch_size)

    def _start(
        self,
        query: JoinQuery,
        descent: _Descent,
        descent_key: Optional[Hashable],
        seed: RandomState,
        enforce_predicates: bool,
        max_batch_size: int,
        views: Optional[List[SegmentedAliasTable]] = None,
    ) -> None:
        self.query = query
        #: the tree the weights were computed over, for life (a sampler
        #: refreshed after a mutation keeps drawing over it)
        self.tree = descent.tree
        self.rng = ensure_rng(seed)
        self.enforce_predicates = enforce_predicates
        self.stats = JoinSamplerStats()
        #: pre-order node list (root first) for the descent
        self._order = self.tree.descent()
        self._relation_order = tuple(node.relation for node, _ in self._order)
        self._relations = [self.query.relation(name) for name in self._relation_order]
        self._db_versions = tuple(r.version for r in self._relations)
        #: the snapshot's shared structures, and the memo key they are
        #: fetched under again after a mutation (None: never published)
        self._descent = descent
        self._descent_key = descent_key
        #: this sampler's build decisions, one view per level plan (made on
        #: the first batched call)
        self._views = views
        #: surplus accepted work in struct-of-arrays form (the one buffer)
        self._block_buffer: List[SampleBlock] = []
        self._min_batch_size = 32
        self._max_batch_size = max(int(max_batch_size), 1)
        self._lock = threading.RLock()

    @property
    def weight_function(self) -> WeightFunction:
        """The weights of the snapshot this sampler last synced with."""
        return self._descent.weight_function

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
        counters (a handful of int comparisons) and, on staleness, fetches
        the snapshot's descent again — from the query's memo, where the first
        sampler to need it patched the last one (weights refreshed
        incrementally, tables copied only where a delta dirtied them) — and
        re-syncs this sampler's views **per edge**: an edge whose own
        relations mutated gets a fresh view, an untouched edge keeps its
        build decisions except on the segments whose child weights moved
        (drawn cold from the new weights).  Then — critically — it discards
        buffered draws, which describe the *previous* database state.
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
        previous = self._descent
        if self._descent_key is None:
            descent = previous.patched()
        else:
            descent = self.query.derived(
                self._descent_key, previous.patched, patch=_Descent.patched
            )
        if self._views is not None:
            self._views = [
                SegmentedAliasTable(plan.tables)
                if plan.node.relation in stale_names or plan.parent.relation in stale_names
                else view.resync(plan.tables)
                for plan, view in zip(descent.plans(), self._views)
            ]
        self._descent = descent
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

        After warming, this sampler's views are all built, and so is every
        per-segment alias table of the snapshot's shared descent: subsequent
        draws never pay lazy-construction cost, and — because a fully built
        view only reads — :meth:`split` clones drawing from the same tables
        are safe on concurrent threads.  The server calls this once per
        (query, weights, epoch); whatever another sampler of the snapshot
        built already is not built again.
        """
        self.refresh()
        for view in self._level_views():
            view.build_all()
        return self

    @_locked
    def split(
        self,
        count: int,
        seed: RandomState = None,
        share_plans: bool = False,
    ) -> List["JoinSampler"]:
        """``count`` independent shard samplers over the same join.

        The shards share this sampler's descent — weights, join tree, root
        alias and level plans, so the expensive structures are paid once —
        but draw from independent streams derived via
        :func:`~repro.utils.rng.spawn_rngs`: by default from this sampler's
        own stream, so a fixed parent seed yields a fixed family of shards;
        with an explicit ``seed`` the parent's stream is left untouched (the
        server's per-request clones rely on this).  Shards are safe to run
        on concurrent threads as long as the base relations do not mutate
        mid-batch (the coordinator epoch guard in :mod:`repro.parallel`
        handles mutations between batches).

        A shard makes its own build decisions, as a new sampler would.  With
        ``share_plans=True`` this sampler is warmed first and every shard
        starts from all-built views, which only read the shared tables, so a
        clone costs O(levels).  After a mutation a shard fetches the next
        snapshot's descent like any sampler.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if share_plans:
            self.warm()
        else:
            self.refresh()
        plans = self._descent.plans() if share_plans else []
        shards: List[JoinSampler] = []
        for stream in spawn_rngs(self.rng if seed is None else seed, count):
            shard = JoinSampler.__new__(JoinSampler)
            views = [SegmentedAliasTable(plan.tables, all_built=True) for plan in plans]
            shard._start(
                self.query,
                self._descent,
                self._descent_key,
                stream,
                self.enforce_predicates,
                self._max_batch_size,
                views=views if share_plans else None,
            )
            shards.append(shard)
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

    def _level_views(self) -> List[SegmentedAliasTable]:
        """This sampler's view of each level plan's tables, made on the
        first batched call (fresh views: nothing built but the uniform)."""
        if self._views is None:
            self._views = [SegmentedAliasTable(plan.tables) for plan in self._descent.plans()]
        return self._views

    def _attempt_block(self, size: int) -> Optional[SampleBlock]:
        """Run ``size`` root-to-leaf walks simultaneously; return the accepted."""
        self.stats.attempts += size
        descent = self._descent
        if descent.root_alias is None:
            self.stats.rejected_empty += size
            return None

        chosen: Dict[str, PositionArray] = {
            name: np.full(size, -1, dtype=np.intp) for name in self._relation_order
        }
        # The root row: one draw from the root alias table (O(1) per draw).
        chosen[self.tree.root.relation] = descent.root_alias.sample(self.rng, size)
        walks = np.arange(size, dtype=np.intp)

        for plan, view in zip(descent.plans(), self._level_views()):
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
            realized = plan.tables.segment_totals[slots]
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
            idx = view.sample(self.rng, slots)
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
            weight=descent.weight_function.total_weight,
        )

    def _filter_residuals(
        self, chosen: Dict[str, PositionArray], walks: PositionArray
    ) -> PositionArray:
        """Drop walks whose assembled assignment violates a residual condition."""
        ok = self.tree.residual_mask(
            {name: positions[walks] for name, positions in chosen.items()}
        )
        rejected = int((~ok).sum())
        if rejected:
            self.stats.rejected_residual += rejected
            walks = walks[ok]
        return walks

    def _filter_predicates(
        self, chosen: Dict[str, PositionArray], walks: PositionArray
    ) -> PositionArray:
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
        descent = self._descent
        weights, total = descent.root_weights, descent.root_total
        if total <= 0:
            return None
        target = self.rng.random() * total
        pos = int(np.searchsorted(descent.root_cumulative(), target, side="right"))
        if pos >= len(weights):
            pos = len(weights) - 1
        if weights[pos] <= 0:
            # Landed on a zero-weight row due to floating point edge effects;
            # fall back to an explicit renormalized choice.
            positive = np.flatnonzero(weights > 0)
            if positive.size == 0:
                return None
            probabilities = weights[positive] / weights[positive].sum()
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
