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

One block path produces every sample:

* :meth:`JoinSampler.sample_block` runs whole batches of walks
  level-by-level over the columnar/CSR storage layer.  The root row and
  every per-level child choice are O(1) Walker/Vose alias-table draws (two
  array lookups per draw — see :mod:`repro.sampling.alias`) instead of
  O(log n) ``searchsorted`` probes, and accepted walks come back as one
  struct-of-arrays :class:`~repro.sampling.blocks.SampleBlock` — no per-draw
  Python objects anywhere on the sampler → aggregator → shard-merge path.
  A call's surplus accepted walks wait in one buffer of blocks until it is
  drained or the next call discards it (:func:`draw_and_drain` is the
  draw-then-drain idiom every consumer shares).
* :meth:`JoinSampler.sample_many` is the one boxing view: the same block,
  boxed into :class:`SampleDraw` objects after the fact.

The tests hold it to the enumerated join
(:func:`~repro.joins.executor.execute_join`): support, uniformity and the
acceptance rate ``|J| / W``, not a second walker over the same weights.

Thread fan-out is the consumer's business: :meth:`split` hands out shard
samplers and :func:`repro.aqp.sources.fan_out` drives them.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Set,
    Tuple,
    TypeVar,
    cast,
)

import numpy as np
import numpy.typing as npt

from repro.joins.join_tree import JoinTreeNode
from repro.joins.query import JoinQuery
from repro.relational.index import IntArray, SortedIndex
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
        Always 1: the block path accounts rejected walks in the sampler-level
        stats instead.
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

    * ``parent_slots[p]`` is the ``csr`` slot parent row ``p`` joins to, -1
      when none (the query's per-snapshot edge map,
      :meth:`~repro.joins.query.JoinQuery.edge_slots`): a walk's hop resolves
      its joinable rows with one gather, no key lookup;
    * ``csr`` groups the node's row positions by key (CSR layout);
    * ``tables`` holds one Walker/Vose alias table per key segment, shared
      by every sampler of the snapshot (each draws through its own
      :class:`~repro.sampling.alias.SegmentedAliasTable` view); its
      ``segment_totals`` double as the realized weight sums driving the
      accept/reject test;
    * ``compactions`` is the count of ``csr``'s compactions the tables were
      laid out under: while it holds, their slot ids are still ``csr``'s;
    * ``constant`` is the weight every row of ``node`` carries when the
      weight function names one (:meth:`WeightFunction.constant_weight`),
      the tables then being uniform ones laid out from the offsets alone.
    """

    node: JoinTreeNode
    parent: JoinTreeNode
    parent_slots: IntArray
    csr: SortedIndex
    tables: SegmentTables
    bound: Optional[float]
    compactions: int
    constant: Optional[float]


def _read_versions(query: JoinQuery) -> Dict[str, int]:
    return {name: relation.version for name, relation in query.relations.items()}


class _Descent:
    """What every sampler of one snapshot shares for one (query, weight
    kind, join-tree shape): the weight function, the root alias table and
    the per-edge level plans.

    Held in ``query.derived``, built once per snapshot, and never rewritten
    once published: the root alias is built eagerly, the plans once, on the
    first batched draw, under ``_lock``, and the next snapshot's descent is
    :meth:`patched` from this one.
    """

    def __init__(
        self,
        weight_function: WeightFunction,
        versions: Dict[str, int],
        previous: Optional["_Descent"] = None,
    ) -> None:
        self.weight_function = weight_function
        self.tree = weight_function.tree
        #: the snapshot the weights and structures describe: the one record
        #: of it, read before the weight pass, so a mutation landing during
        #: the pass counts as not included and the next patch recomputes it
        self.versions = versions
        self.root_weights = np.asarray(weight_function.root_weights(), dtype=float)
        self.root_alias: Optional[AliasTable]
        if previous is not None and np.array_equal(previous.root_weights, self.root_weights):
            self.root_alias = previous.root_alias
        else:
            self.root_alias = (
                AliasTable(self.root_weights) if self.root_weights.sum() > 0 else None
            )
        self._lock = threading.Lock()
        self._plans: Optional[List[_LevelPlan]] = None

    @classmethod
    def built(cls, kind: str, query: JoinQuery) -> "_Descent":
        """The current snapshot's descent, from a full weight pass."""
        versions = _read_versions(query)
        return cls(make_weight_function(kind, query), versions)

    def plans(self) -> List[_LevelPlan]:
        """Per-edge CSR/alias structures in descent order, built once."""
        with self._lock:
            if self._plans is not None:
                return self._plans
        # The edge maps are fetched before taking the lock: they live in the
        # query's memo, whose lock a concurrent patched() of this descent
        # holds while it waits for this one.
        query = self.weight_function.query
        edges = [
            (node, parent, query.edge_slots(parent.relation, node))
            for node, parent in self.tree.descent()
            if parent is not None
        ]
        with self._lock:
            if self._plans is None:
                self._plans = [self._build_plan(*edge) for edge in edges]
            return self._plans

    def _build_plan(
        self,
        node: JoinTreeNode,
        parent: JoinTreeNode,
        parent_slots: IntArray,
        previous: Optional[_LevelPlan] = None,
    ) -> _LevelPlan:
        """The level plan of one edge; ``previous`` is the edge's plan of an
        earlier snapshot, whose tables are reshaped when the CSR they were
        laid out over is still the relation's, with the same slot ids.  A
        constant-weight node's tables come from the offsets alone."""
        query = self.weight_function.query
        csr = query.relation(node.relation).sorted_index_on_columns(node.child_attributes)
        constant = self.weight_function.constant_weight(node)
        if constant is not None:
            tables = SegmentTables.constant(constant, csr.offsets)
        elif (
            previous is not None
            and previous.csr is csr
            and previous.compactions == csr.compactions
        ):
            tables = previous.tables.reshaped(self._csr_weights(node, csr), csr.offsets)
        else:
            tables = SegmentTables(self._csr_weights(node, csr), csr.offsets)
        return _LevelPlan(
            node=node,
            parent=parent,
            parent_slots=parent_slots,
            csr=csr,
            tables=tables,
            bound=self.weight_function.acceptance_bound(node),
            compactions=csr.compactions,
            constant=constant,
        )

    def _csr_weights(self, node: JoinTreeNode, csr: SortedIndex) -> npt.NDArray[np.float64]:
        return np.asarray(
            self.weight_function.weights_for(node, csr.row_positions), dtype=float
        )

    def patched(self) -> "_Descent":
        """The current snapshot's descent, built from this one per edge.

        The relations whose versions moved since :attr:`versions` are the
        dirty ones, read before the weights move forward incrementally past
        them (:meth:`~repro.sampling.weights.WeightFunction.successor`); the
        root alias is reused when the root weights did not move.  An edge
        whose own relations mutated gets a new plan (its CSR layout and/or
        edge map changed), with its tables reshaped from the last ones
        (:meth:`SegmentTables.reshaped`) while the CSR's slot ids survive,
        built anew after a compaction or a rebuilt index, and laid out from
        the offsets over a constant-weight node.  An edge whose endpoints
        are untouched keeps its CSR and edge map by reference — but its
        child weights summarize the child's whole *subtree*, so a delta
        further down can move them: :meth:`SegmentTables.patched` copies its
        tables, resetting only the dirtied segments, and a constant-weight
        node keeps its tables unless the constant moved.  Plans never built
        stay unbuilt.
        """
        versions = _read_versions(self.weight_function.query)
        dirty = {name for name, version in versions.items() if version != self.versions[name]}
        successor = _Descent(self.weight_function.successor(dirty), versions, previous=self)
        with self._lock:
            plans = self._plans
        if plans is not None:
            successor._plans = [successor._patched_plan(plan, dirty) for plan in plans]
        return successor

    def _patched_plan(self, plan: _LevelPlan, dirty: Set[str]) -> _LevelPlan:
        if plan.node.relation in dirty or plan.parent.relation in dirty:
            query = self.weight_function.query
            return self._build_plan(
                plan.node,
                plan.parent,
                query.edge_slots(plan.parent.relation, plan.node),
                previous=plan,
            )
        constant = self.weight_function.constant_weight(plan.node)
        if constant is None:
            tables = plan.tables.patched(self._csr_weights(plan.node, plan.csr))
        elif constant == plan.constant:
            tables = plan.tables
        else:
            tables = SegmentTables.constant(constant, plan.csr.offsets)
        return dataclasses.replace(
            plan,
            tables=tables,
            bound=self.weight_function.acceptance_bound(plan.node),
            constant=constant,
        )


def _patch_descent(last: _Descent, changed: FrozenSet[str]) -> _Descent:
    # The descent diffs the versions against its own record, the one
    # record of what its weights include.
    return last.patched()


class JoinSampler:
    """Accept/reject uniform sampler over one join query.

    Parameters
    ----------
    query:
        The join to sample from.
    weights:
        ``"ew"`` (exact weights), ``"eo"`` (extended Olken) or ``"auto"``
        (cost-based choice between the two via
        :func:`repro.aqp.planner.choose_weights`).
    seed:
        Seed or generator for reproducible draws.
    max_batch_size:
        Upper bound on the number of simultaneous walks of one batched pass.
    """

    def __init__(
        self,
        query: JoinQuery,
        weights: str = "ew",
        seed: RandomState = None,
        max_batch_size: int = 8192,
    ) -> None:
        if weights == "auto":
            # Deferred import: the planner lives above the sampling layer.
            from repro.aqp.planner import choose_weights

            weights = choose_weights(query)
        kind = weight_kind(weights)
        descent_key = ("descent", kind, query.join_tree().shape())
        descent = query.derived(
            descent_key, lambda: _Descent.built(kind, query), patch=_patch_descent
        )
        self._start(query, descent, descent_key, seed, max_batch_size)

    def _start(
        self,
        query: JoinQuery,
        descent: _Descent,
        descent_key: Hashable,
        seed: RandomState,
        max_batch_size: int,
        views: Optional[List[SegmentedAliasTable]] = None,
    ) -> None:
        self.query = query
        #: the tree the weights were computed over, for life (a sampler
        #: refreshed after a mutation keeps drawing over it)
        self.tree = descent.tree
        self.rng = ensure_rng(seed)
        self.stats = JoinSamplerStats()
        #: pre-order node list (root first) for the descent
        self._order = self.tree.descent()
        self._relation_order = tuple(node.relation for node, _ in self._order)
        #: the snapshot's shared structures (their versions are this
        #: sampler's one record of what it synced with), and the memo key
        #: they are fetched under again after a mutation
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
    @_locked
    def refresh(self) -> bool:
        """Re-sync with mutated base relations; returns True when stale.

        The epoch protocol: every effective mutation bumps
        :attr:`Relation.version`; each draw entry point fetches the current
        snapshot's descent from the query's memo, which hands back this
        sampler's own descent while no relation moved.  Otherwise the first
        sampler to need it patched the last one (weights refreshed
        incrementally, tables copied only where a delta dirtied them), and
        this sampler re-syncs its views **per edge**, by the relations whose
        versions differ between the two descents: an edge whose own
        relations mutated gets a fresh view, an untouched edge keeps its
        build decisions except on the segments whose child weights moved
        (drawn cold from the new weights).  Then — critically — it discards
        buffered draws, which describe the *previous* database state.
        """
        descent = self.query.derived(
            self._descent_key, self._descent.patched, patch=_patch_descent
        )
        if descent is self._descent:
            return False
        stale_names = {
            name
            for name, version in descent.versions.items()
            if version != self._descent.versions[name]
        }
        if self._views is not None:
            self._views = [
                SegmentedAliasTable(plan.tables)
                if plan.node.relation in stale_names or plan.parent.relation in stale_names
                else view.resync(plan.tables)
                for plan, view in zip(descent.plans(), self._views)
            ]
        self._descent = descent
        self._block_buffer.clear()
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
        (bound too loose or empty join) and drops the walks the call
        accepted, which the stats still count.  ``count=0`` returns an empty
        block without consuming random state or touching the buffer.

        Every block a call returns was drawn by that call, so its
        ``attempts`` (the walks this call ran) is at least its length; its
        ``weight`` is the weight function's total weight.  The pass's
        surplus accepted walks wait in the buffer for
        :meth:`pop_buffered_blocks`; the next call discards them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.refresh()
        total_weight = self.weight_function.total_weight
        if count == 0:
            return SampleBlock.empty(self._relation_order, weight=total_weight)
        self._block_buffer.clear()
        parts: List[SampleBlock] = []
        have = 0
        attempts = 0
        attempts_since_accept = 0
        while have < count:
            need = count - have
            size = min(self._next_batch_size(need), max(1, max_attempts - attempts_since_accept))
            accepted = self._attempt_block(size)
            attempts += size
            if len(accepted):
                attempts_since_accept = 0
                parts.append(accepted)
                have += len(accepted)
            else:
                attempts_since_accept += size
                if attempts_since_accept >= max_attempts:
                    raise RuntimeError(
                        f"JoinSampler on {self.query.name!r} failed to accept a sample "
                        f"after {max_attempts} attempts (bound too loose or empty join)"
                    )
        block = SampleBlock.concat(parts)
        block.weight = total_weight
        block.attempts = attempts
        if len(block) > count:
            block, tail = block.split(count)
            self._block_buffer.append(tail)
        return block

    @_locked
    def attempt_block(self, size: int) -> SampleBlock:
        """Exactly ``size`` walks, in batches of at most ``max_batch_size``;
        the accepted ones as one block with ``attempts == size`` and
        ``weight == W`` (an attempt-level HT chunk).  The surplus buffer of
        :meth:`sample_block` is neither read nor filled."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self.refresh()
        step = self._max_batch_size
        empty = SampleBlock.empty(self._relation_order, self.weight_function.total_weight)
        chunks = [self._attempt_block(min(step, size - start)) for start in range(0, size, step)]
        return SampleBlock.concat([empty, *chunks])

    @_locked
    def pop_buffered_blocks(self) -> List[SampleBlock]:
        """Drain and return the surplus of the last :meth:`sample_block` pass.

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

    def _attempt_block(self, size: int) -> SampleBlock:
        """Run ``size`` root-to-leaf walks simultaneously; return the accepted.

        ``chosen`` holds one position array per bound relation, aligned with
        the walks still alive: a level where some walk fails compresses them
        all with one mask, and a level where none does gathers nothing but
        its own hop.
        """
        self.stats.attempts += size
        descent = self._descent
        if descent.root_alias is None:
            self.stats.rejected_empty += size
            return self._rejected_block(size)

        # The root row: one draw from the root alias table (O(1) per draw).
        chosen: Dict[str, PositionArray] = {
            self.tree.root.relation: descent.root_alias.sample(self.rng, size)
        }
        for plan, view in zip(descent.plans(), self._level_views()):
            slots = plan.parent_slots[chosen[plan.parent.relation]]
            live = slots >= 0
            if not live.all():
                slots = slots[live]
            realized = plan.tables.segment_totals[slots]
            positive = realized > 0
            if not positive.all():
                live[live] = positive
                slots, realized = slots[positive], realized[positive]
            self.stats.rejected_empty += live.size - slots.size
            if plan.bound is not None and plan.bound > 0 and slots.size:
                accept = self.rng.random(slots.size) < realized / plan.bound
                if not accept.all():
                    self.stats.rejected_weight += int(slots.size - accept.sum())
                    live[live] = accept
                    slots = slots[accept]
            if slots.size < live.size:
                if slots.size == 0:
                    return self._rejected_block(size)
                chosen = {name: positions[live] for name, positions in chosen.items()}
            # Weighted child choice: one alias-table draw per walk (a dart
            # and a coin — two array lookups, no binary search).
            picks = plan.csr.row_positions[view.sample(self.rng, slots)]
            chosen[plan.node.relation] = picks.astype(np.intp, copy=False)

        if self.tree.residual_conditions:
            chosen = self._filter_residuals(chosen)
        # Predicates not pushed down (§8.3): a gather from each filtered
        # relation's per-snapshot row mask.
        for name, admitted in self.query.row_masks().items():
            keep = admitted[chosen[name]]
            if not keep.all():
                self.stats.rejected_predicate += int(keep.size - keep.sum())
                chosen = {name: positions[keep] for name, positions in chosen.items()}

        accepted = chosen[self.tree.root.relation].size
        self.stats.accepted += accepted
        if accepted == 0:
            return self._rejected_block(size)
        return SampleBlock(
            relation_order=self._relation_order,
            positions={name: chosen[name] for name in self._relation_order},
            attempts=size,
            weight=descent.weight_function.total_weight,
        )

    def _rejected_block(self, size: int) -> SampleBlock:
        """The block of ``size`` walks none of which was accepted."""
        empty = SampleBlock.empty(self._relation_order, self._descent.weight_function.total_weight)
        return dataclasses.replace(empty, attempts=size)

    def _filter_residuals(self, chosen: Dict[str, PositionArray]) -> Dict[str, PositionArray]:
        """Drop walks whose assembled assignment violates a residual condition."""
        ok = self.tree.residual_mask(chosen)
        if ok.all():
            return chosen
        self.stats.rejected_residual += int(ok.size - ok.sum())
        return {name: positions[ok] for name, positions in chosen.items()}


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
