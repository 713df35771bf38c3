"""Streaming Horvitz–Thompson aggregate estimators over join/union samples.

The samplers in :mod:`repro.sampling` and :mod:`repro.core` produce *samples*;
this module turns them into approximate **aggregate answers with error bars**
(the online-aggregation layer the paper's samplers exist to serve).

The unifying view is attempt-level Horvitz–Thompson estimation.  Every draw
attempt ``i`` of an accept/reject sampler either fails (contribution 0) or
yields a join result ``t_i`` together with a known inverse inclusion weight
``w_i``:

* accept/reject backends (:class:`~repro.sampling.join_sampler.JoinSampler`
  with EW or EO weights): each attempt is accepted with probability ``1/W``
  per skeleton result, so ``w_i = W`` (the weight function's total weight);
* wander join: a successful walk carries probability ``p(t_i)``, so
  ``w_i = 1/p(t_i)``;
* union samplers: each returned sample is uniform over the set union ``U``,
  so ``w_i = |U|``.

For any per-result function ``g`` the mean of ``X_i = w_i · g(t_i)`` over all
attempts (failed attempts contribute 0) is an unbiased estimate of
``Σ_{t ∈ J} g(t)``, which covers COUNT (``g = 1``), SUM (``g`` = an output
attribute), filtered variants (``g`` masked by a predicate), and GROUP-BY
(``g`` masked by the group key).  AVG is the self-normalized (Hájek) ratio of
the SUM and COUNT estimators.  Confidence intervals come from the CLT over the
attempt-level contributions, or from a binomial-thinned bootstrap.

Aggregates over a **single join** follow SQL bag semantics (every join result
counts, duplicates included); aggregates over a **union of joins** follow the
paper's set semantics (each distinct output tuple of ``J_1 ∪ ... ∪ J_n``
counts once), because that is what the union samplers draw uniformly from.

Accumulators are mergeable and incremental.  Each group keeps its
contributions as float64 chunk arrays and, per chunk, adds the two totals its
aggregate needs into exact integers (:class:`_ExactSum`); an estimate rounds
each total once, which gives exactly what :func:`math.fsum` over every
contribution gives.  So merging partial accumulators in *any* chunking order
yields bit-identical estimates — a property the test suite verifies with
Hypothesis — and a COUNT/SUM estimate costs O(groups), not O(contributions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.sampling.wander_join import z_value
from repro.utils.rng import RandomState, ensure_rng

AGGREGATE_KINDS = ("count", "sum", "avg")

#: Group key used when no GROUP BY is requested.
GLOBAL_GROUP: Tuple = ()


@dataclass(frozen=True)
class AggregateSpec:
    """What to compute over the sampled join/union results.

    Attributes
    ----------
    kind:
        ``"count"``, ``"sum"`` or ``"avg"``.
    attribute:
        Output attribute the aggregate runs over (required for SUM/AVG,
        ignored for COUNT).
    where:
        Optional predicate over ``{output attribute: value}`` dicts; results
        failing it contribute nothing (``COUNT(*) FILTER (WHERE ...)``).
    group_by:
        Optional output attribute (or tuple of attributes) to group by.
    """

    kind: str
    attribute: Optional[str] = None
    where: Optional[Callable[[Mapping[str, object]], bool]] = None
    group_by: Optional[Tuple[str, ...] | str] = None

    def __post_init__(self) -> None:
        if self.kind not in AGGREGATE_KINDS:
            raise ValueError(f"kind must be one of {AGGREGATE_KINDS}, got {self.kind!r}")
        if self.kind in ("sum", "avg") and not self.attribute:
            raise ValueError(f"{self.kind} aggregate needs an attribute")

    @property
    def group_attributes(self) -> Tuple[str, ...]:
        if self.group_by is None:
            return ()
        if isinstance(self.group_by, str):
            return (self.group_by,)
        return tuple(self.group_by)

    def describe(self) -> str:
        parts = [self.kind.upper(), "(", self.attribute or "*", ")"]
        if self.group_by:
            parts += [" BY ", ",".join(self.group_attributes)]
        return "".join(parts)


@dataclass(frozen=True)
class AggregateEstimate:
    """One aggregate estimate with its confidence interval."""

    group: Tuple
    estimate: float
    ci_low: float
    ci_high: float
    confidence: float
    accepted: int
    attempts: int
    ci_method: str = "clt"

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def relative_half_width(self) -> float:
        if self.estimate == 0:
            return float("inf")
        return self.half_width / abs(self.estimate)

    def covers(self, truth: float) -> bool:
        return self.ci_low <= truth <= self.ci_high

    def to_dict(self) -> Dict[str, object]:
        return {
            "group": list(self.group) if self.group else None,
            "estimate": self.estimate,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "accepted": self.accepted,
            "attempts": self.attempts,
            "ci_method": self.ci_method,
        }


@dataclass
class AggregateReport:
    """Per-group estimates of one accumulator snapshot.

    ``degraded=True`` marks a *partial* answer: the job hit its deadline (or
    shards exhausted their retries under ``allow_partial``) and the report
    merges only the shards/steps that completed — still unbiased, just wider.
    ``completed_shards``/``planned_shards`` quantify the shortfall for
    parallel jobs; consumers should report the *achieved* relative error
    (:meth:`max_relative_half_width`), not the one that was requested.
    """

    spec: AggregateSpec
    estimates: Dict[Tuple, AggregateEstimate]
    attempts: int
    accepted: int
    confidence: float
    ci_method: str
    degraded: bool = False
    completed_shards: Optional[int] = None
    planned_shards: Optional[int] = None

    @property
    def overall(self) -> AggregateEstimate:
        """The global (non-grouped) estimate; for GROUP BY, the worst group
        would be queried individually via :attr:`estimates`."""
        if GLOBAL_GROUP in self.estimates:
            return self.estimates[GLOBAL_GROUP]
        # Grouped report: surface the widest interval (drives stopping rules).
        return max(self.estimates.values(), key=lambda e: e.half_width)

    def groups(self) -> List[Tuple]:
        return sorted(self.estimates, key=lambda g: tuple(map(str, g)))

    def max_relative_half_width(self) -> float:
        if not self.estimates:
            return float("inf")
        return max(e.relative_half_width for e in self.estimates.values())

    def to_dict(self) -> Dict[str, object]:
        achieved = self.max_relative_half_width()
        payload: Dict[str, object] = {
            "aggregate": self.spec.describe(),
            "confidence": self.confidence,
            "ci_method": self.ci_method,
            "attempts": self.attempts,
            "accepted": self.accepted,
            "degraded": self.degraded,
            "achieved_rel_error": None if math.isinf(achieved) else achieved,
            "groups": [self.estimates[g].to_dict() for g in self.groups()],
        }
        if self.completed_shards is not None:
            payload["completed_shards"] = self.completed_shards
            payload["planned_shards"] = self.planned_shards
        return payload


#: Exact totals count in units of ``2**-_SCALE``: ``np.frexp`` writes a finite
#: float64 as ``M * 2**(e - 53)`` with an integer mantissa ``|M| < 2**53`` and
#: ``e >= -1073``.
_SCALE = 1126
_UNIT = 1 << _SCALE
#: Mantissas are bincounted as two halves of at most 27 bits: float64 bin sums
#: of up to ``2**26`` halves are exact integers.
_HALF_BITS = 26
#: Terms per kernel run: far below ``2**26``, and small enough that a run's
#: temporaries (64 KiB each) stay in cache and below malloc's mmap threshold
#: instead of being mapped and faulted in afresh for every call.
_RUN = 8192


class _ExactSum:
    """A float64 total kept exactly, so partials merge in any order.

    Finite terms add into ``total``, an integer in units of ``2**-_SCALE``;
    non-finite terms are set aside in ``special``.  :meth:`value` rounds once:
    int true division is correctly rounded, as :func:`math.fsum` is, and
    ``fsum`` over the set-aside terms does what ``fsum`` over all terms does
    with them (inf, nan, ``ValueError`` on ``inf + -inf``).
    """

    __slots__ = ("total", "special")

    def __init__(self) -> None:
        self.total = 0
        self.special: List[float] = []

    def merge(self, other: "_ExactSum") -> None:
        self.total += other.total
        self.special.extend(other.special)

    def value(self) -> float:
        if self.special:
            return math.fsum(self.special)
        return self.total / _UNIT


def _exact_sums(
    terms: np.ndarray, inverse: Optional[np.ndarray] = None, n_groups: int = 1
) -> List[_ExactSum]:
    """Exact per-group sums of ``terms``; term ``i`` belongs to ``inverse[i]``.

    The mantissa halves are bincounted per (group, exponent), and each nonzero
    bin is shifted into its group's integer: a handful of NumPy passes plus one
    Python step per bin, however many terms there are.
    """
    sums = [_ExactSum() for _ in range(n_groups)]
    finite = np.isfinite(terms)
    if not finite.all():
        bad = ~finite
        owners = np.zeros(int(bad.sum()), dtype=int) if inverse is None else inverse[bad]
        for owner, term in zip(owners.tolist(), terms[bad].tolist()):
            sums[owner].special.append(term)
        terms = terms[finite]
        inverse = None if inverse is None else inverse[finite]
    for start in range(0, len(terms), _RUN):
        mantissa, exponent = np.frexp(terms[start:start + _RUN])
        # M = high * 2**26 + low: integers, |high| <= 2**27, |low| <= 2**25.
        high = np.rint(mantissa * 2.0 ** (53 - _HALF_BITS))
        low = mantissa * 2.0 ** 53 - high * 2.0 ** _HALF_BITS
        e_min = int(exponent.min())
        span = int(exponent.max()) - e_min + 1
        bins = exponent - e_min
        if inverse is not None:
            bins = inverse[start:start + _RUN] * span + bins
        size = n_groups * span
        high_sums = np.bincount(bins, weights=high, minlength=size).tolist()
        low_sums = np.bincount(bins, weights=low, minlength=size).tolist()
        for b, (high_sum, low_sum) in enumerate(zip(high_sums, low_sums)):
            if high_sum or low_sum:
                group, e = divmod(b, span)
                exact = (int(high_sum) << _HALF_BITS) + int(low_sum)
                sums[group].total += exact << (e + e_min + _SCALE - 53)
    return sums


class _GroupData:
    """Accepted contributions of one group, and the totals its estimate reads.

    ``weights``/``values`` (inverse weights and g-values, in ingest order) are
    kept as float64 chunks for the bootstrap, AVG's residual and ``merge``;
    ``first``/``second`` are the exact totals of the aggregate's two terms
    (:meth:`AggregateAccumulator._terms`).
    """

    __slots__ = ("count", "first", "second", "_weights", "_values")

    def __init__(self) -> None:
        self.count = 0
        self.first = _ExactSum()
        self.second = _ExactSum()
        self._weights: List[np.ndarray] = []
        self._values: List[np.ndarray] = []

    def add(
        self, weights: np.ndarray, values: np.ndarray, first: _ExactSum, second: _ExactSum
    ) -> None:
        self.count += len(weights)
        self._weights.append(weights)
        self._values.append(values)
        self.first.merge(first)
        self.second.merge(second)

    @property
    def weights(self) -> np.ndarray:
        return _joined(self._weights)

    @property
    def values(self) -> np.ndarray:
        return _joined(self._values)


def _joined(chunks: List[np.ndarray]) -> np.ndarray:
    """The chunks as one array, kept as the list's only chunk."""
    if len(chunks) != 1:
        chunks[:] = [np.concatenate(chunks) if chunks else np.empty(0)]
    return chunks[0]


class AggregateAccumulator:
    """Streaming, mergeable accumulator of attempt-level HT contributions.

    Parameters
    ----------
    spec:
        The aggregate to compute.
    schema:
        Output schema (attribute names, in tuple order) of the sampled values.
    """

    def __init__(self, spec: AggregateSpec, schema: Sequence[str]) -> None:
        self.spec = spec
        self.schema = tuple(schema)
        positions = {name: i for i, name in enumerate(self.schema)}
        if spec.attribute is not None and spec.attribute not in positions:
            raise ValueError(
                f"attribute {spec.attribute!r} not in output schema {self.schema}"
            )
        for attr in spec.group_attributes:
            if attr not in positions:
                raise ValueError(f"group attribute {attr!r} not in schema {self.schema}")
        self._value_pos = positions.get(spec.attribute) if spec.attribute else None
        self._group_pos = tuple(positions[a] for a in spec.group_attributes)
        self.attempts = 0
        self.accepted = 0
        self._groups: Dict[Tuple, _GroupData] = {}

    # ------------------------------------------------------------------ ingest
    def observe(
        self,
        values: Sequence[Tuple],
        attempts: int,
        weight: Optional[float] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Consume one chunk of accepted sample values.

        ``attempts`` is the number of draw attempts the chunk took (failed
        attempts contribute zero and only enter the denominator).  Inverse
        inclusion weights are either one shared ``weight`` (accept/reject and
        union backends) or per-sample ``weights`` (wander join: ``1/p(t)``).
        """
        if attempts < len(values):
            raise ValueError(
                f"attempts ({attempts}) cannot be below accepted samples ({len(values)})"
            )
        if (weight is None) == (weights is None):
            raise ValueError("pass exactly one of weight= or weights=")
        if weights is not None and len(weights) != len(values):
            raise ValueError("weights must align with values")
        self.attempts += int(attempts)
        self.accepted += len(values)
        where = self.spec.where
        index: Dict[Tuple, int] = {}
        inverse: List[int] = []
        w_list: List[float] = []
        g_list: List[float] = []
        for i, value in enumerate(values):
            if where is not None and not where(dict(zip(self.schema, value))):
                continue
            w_list.append(float(weight if weights is None else weights[i]))  # type: ignore[arg-type]
            g_list.append(1.0 if self._value_pos is None else float(value[self._value_pos]))
            key = tuple(value[p] for p in self._group_pos)
            inverse.append(index.setdefault(key, len(index)))
        if w_list:
            self._ingest(
                list(index), np.array(inverse), np.array(w_list), np.array(g_list)
            )

    def ingest_block(
        self,
        columns: Sequence[np.ndarray],
        attempts: int,
        weight: Optional[float] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        """Consume one chunk of accepted samples in columnar form.

        ``columns`` are per-output-attribute value arrays in schema order
        (:meth:`repro.sampling.blocks.SampleBlock.value_columns`); semantics
        otherwise match :meth:`observe`.  ``where`` filters, the aggregate
        value, and group keys are all evaluated with NumPy array ops — no
        per-row Python objects — and the per-sample contributions stored are
        **bit-identical** to what :meth:`observe` would store for the boxed
        equivalent of the block, so the exactly-rounded merge law is
        preserved: mixing ``observe`` and ``ingest_block`` chunks in any
        order yields the same estimates.

        A ``where`` callable may expose a vectorized twin as a ``columnar``
        attribute (``columnar(name -> array) -> bool mask``); plain row
        callables fall back to one Python pass over the zipped columns.
        """
        columns = [np.asarray(c) for c in columns]
        if len(columns) != len(self.schema):
            raise ValueError(
                f"expected {len(self.schema)} columns (schema {self.schema}), "
                f"got {len(columns)}"
            )
        k = len(columns[0]) if columns else 0
        if any(len(c) != k for c in columns):
            raise ValueError("block columns must share one length")
        if attempts < k:
            raise ValueError(
                f"attempts ({attempts}) cannot be below accepted samples ({k})"
            )
        if (weight is None) == (weights is None):
            raise ValueError("pass exactly one of weight= or weights=")
        w_arr = None
        if weights is not None:
            w_arr = np.asarray(weights, dtype=float)
            if len(w_arr) != k:
                raise ValueError("weights must align with the block columns")
        self.attempts += int(attempts)
        self.accepted += k
        if k == 0:
            return

        mask: Optional[np.ndarray] = None
        where = self.spec.where
        if where is not None:
            columnar = getattr(where, "columnar", None)
            if callable(columnar):
                named = dict(zip(self.schema, columns))
                mask = np.asarray(columnar(named), dtype=bool)
                if mask.shape != (k,):
                    raise ValueError("columnar where must return one bool per sample")
            else:
                rows = zip(*(c.tolist() for c in columns))
                mask = np.fromiter(
                    (bool(where(dict(zip(self.schema, row)))) for row in rows),
                    dtype=bool,
                    count=k,
                )
            if not bool(mask.any()):
                return

        if self._value_pos is None:
            g_arr = np.ones(k, dtype=float)
        else:  # a copy: kept contributions must not alias the caller's column
            g_arr = np.array(columns[self._value_pos], dtype=float)
        if w_arr is None:
            w_arr = np.full(k, float(weight))  # type: ignore[arg-type]
        if mask is not None:
            g_arr, w_arr = g_arr[mask], w_arr[mask]

        if not self._group_pos:
            self._ingest([GLOBAL_GROUP], None, w_arr, g_arr)
            return
        group_cols = [
            columns[p] if mask is None else columns[p][mask] for p in self._group_pos
        ]
        if len(group_cols) == 1 and group_cols[0].dtype != object:
            # Single typed group column: groups in sorted key order, no
            # Python rows.
            uniq, inverse = np.unique(group_cols[0], return_inverse=True)
            keys = [(value,) for value in uniq.tolist()]
        else:
            # Composite or object-typed keys: one Python pass to code rows.
            index: Dict[Tuple, int] = {}
            inverse = np.array([
                index.setdefault(key, len(index))
                for key in zip(*(c.tolist() for c in group_cols))
            ])
            keys = list(index)
        self._ingest(keys, inverse, w_arr, g_arr)

    def _terms(self, w: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The two per-contribution terms whose totals the estimate reads.

        ``float_power`` squares as CPython's ``x ** 2`` does (``libm`` pow);
        ``np.square`` is ``x * x``, which differs from it in the last bit of
        about one product in a thousand.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self.spec.kind == "count":
                return w, w * w
            wg = w * g
            if self.spec.kind == "sum":
                return wg, np.float_power(wg, 2.0)
            return w, wg

    def _ingest(
        self,
        keys: Sequence[Tuple],
        inverse: Optional[np.ndarray],
        w: np.ndarray,
        g: np.ndarray,
    ) -> None:
        """Append contribution ``(w[i], g[i])`` to group ``keys[inverse[i]]``.

        Groups new to the accumulator are created in ``keys`` order, each
        group's contributions keep stream order, and both exact totals of
        every group come from one kernel pass over the chunk.
        """
        n = len(keys)
        if n == 1:
            inverse = None
        first, second = self._terms(w, g)
        firsts, seconds = _exact_sums(first, inverse, n), _exact_sums(second, inverse, n)
        if inverse is None:
            runs = [(w, g)]
        else:
            order = np.argsort(inverse, kind="stable")
            w, g = w[order], g[order]
            bounds = np.cumsum(np.bincount(inverse, minlength=n)).tolist()
            runs = [(w[lo:hi], g[lo:hi]) for lo, hi in zip([0] + bounds, bounds)]
        for key, (w_run, g_run), a, b in zip(keys, runs, firsts, seconds):
            data = self._groups.get(key)
            if data is None:
                data = self._groups[key] = _GroupData()
            data.add(w_run, g_run, a, b)

    def merge(self, other: "AggregateAccumulator") -> "AggregateAccumulator":
        """Fold another accumulator (same spec/schema) into this one."""
        if other.spec != self.spec or other.schema != self.schema:
            raise ValueError("can only merge accumulators with identical spec and schema")
        self.attempts += other.attempts
        self.accepted += other.accepted
        for key, data in other._groups.items():
            mine = self._groups.get(key)
            if mine is None:
                mine = self._groups[key] = _GroupData()
            mine.add(data.weights, data.values, data.first, data.second)
        return self

    def reset(self) -> None:
        """Drop all state (start of a new mutation epoch)."""
        self.attempts = 0
        self.accepted = 0
        self._groups = {}

    # --------------------------------------------------------------- estimates
    def estimate(
        self,
        confidence: float = 0.95,
        ci_method: str = "clt",
        bootstrap_replicates: int = 200,
        seed: RandomState = None,
    ) -> AggregateReport:
        """Snapshot the current estimates with per-group confidence intervals."""
        if ci_method not in ("clt", "bootstrap"):
            raise ValueError("ci_method must be 'clt' or 'bootstrap'")
        estimates: Dict[Tuple, AggregateEstimate] = {}
        groups = self._groups or {GLOBAL_GROUP: _GroupData()}
        rng = ensure_rng(seed) if ci_method == "bootstrap" else None
        for key, data in groups.items():
            point, half = self._point_and_clt(data, confidence)
            if ci_method == "bootstrap" and data.count:
                low, high = self._bootstrap_interval(
                    data, confidence, bootstrap_replicates, rng
                )
            else:
                low, high = point - half, point + half
            estimates[key] = AggregateEstimate(
                group=key,
                estimate=point,
                ci_low=low,
                ci_high=high,
                confidence=confidence,
                accepted=data.count,
                attempts=self.attempts,
                ci_method=ci_method,
            )
        return AggregateReport(
            spec=self.spec,
            estimates=estimates,
            attempts=self.attempts,
            accepted=self.accepted,
            confidence=confidence,
            ci_method=ci_method,
        )

    # ---------------------------------------------------------------- internals
    def _point_and_clt(self, data: _GroupData, confidence: float) -> Tuple[float, float]:
        """Point estimate and CLT half-width for one group.

        COUNT and SUM read the group's exact totals (Σw and Σw², or Σwg and
        Σ(wg)²), each rounded once: O(1) per group, and exactly what
        :func:`math.fsum` over the contributions gives, whatever order they
        were ingested or merged in.  AVG reads Σw and Σwg the same way; its
        residual sum depends on the current ratio, so it is recomputed over
        the contribution arrays through the same exact kernel.
        """
        m = self.attempts
        if m == 0:
            return 0.0, float("inf")
        z = z_value(confidence)
        s1 = data.first.value()
        if self.spec.kind == "avg":
            sum_w = s1
            if sum_w <= 0:
                return float("nan"), float("inf")
            ratio = data.second.value() / sum_w
            if m < 2:
                return ratio, float("inf")
            # Linearized (delta-method) variance of the Hájek ratio: the
            # per-attempt residual w·(g − R) has exact mean zero, rejected
            # attempts contribute zero.
            with np.errstate(over="ignore", invalid="ignore"):
                squares = np.float_power(data.weights * (data.values - ratio), 2.0)
            ss = _exact_sums(squares)[0].value()
            variance = ss / (m - 1)
            mean_w = sum_w / m
            half = z * math.sqrt(variance / m) / mean_w
            return ratio, half
        s2 = data.second.value()
        point = s1 / m
        if m < 2:
            return point, float("inf")
        variance = max(s2 - s1 * s1 / m, 0.0) / (m - 1)
        half = z * math.sqrt(variance / m)
        return point, half

    def _bootstrap_interval(
        self,
        data: _GroupData,
        confidence: float,
        replicates: int,
        rng: np.random.Generator,
    ) -> Tuple[float, float]:
        """Percentile bootstrap over attempt-level contributions.

        Resampling ``m`` attempts with replacement is equivalent to drawing the
        number of accepted hits from ``Binomial(m, n/m)`` and then resampling
        that many accepted contributions — which avoids materializing the
        failed attempts.
        """
        m = self.attempts
        n = data.count
        w, g = data.weights, data.values
        kind = self.spec.kind
        stats: List[float] = []
        hits = rng.binomial(m, n / m, size=replicates) if m > 0 else np.zeros(replicates, int)
        for k in hits:
            if k == 0:
                stats.append(0.0 if kind != "avg" else float("nan"))
                continue
            idx = rng.integers(0, n, size=int(k))
            if kind == "count":
                stats.append(float(w[idx].sum()) / m)
            elif kind == "sum":
                stats.append(float((w[idx] * g[idx]).sum()) / m)
            else:
                denom = float(w[idx].sum())
                stats.append(float((w[idx] * g[idx]).sum()) / denom if denom > 0 else float("nan"))
        arr = np.asarray([s for s in stats if not math.isnan(s)], dtype=float)
        if arr.size == 0:
            return float("nan"), float("nan")
        alpha = (1.0 - confidence) / 2.0
        return (
            float(np.quantile(arr, alpha)),
            float(np.quantile(arr, 1.0 - alpha)),
        )


def exact_aggregate(
    values: Sequence[Tuple],
    spec: AggregateSpec,
    schema: Sequence[str],
) -> Dict[Tuple, float]:
    """Ground-truth aggregate over fully materialized result values.

    ``values`` is the bag of join results (``execute_join``) for single-join
    semantics, or the distinct union set for union semantics.  Returns a
    group -> exact value map (key ``()`` when no GROUP BY), computed with
    :func:`math.fsum` so tests compare against an exactly-rounded reference.
    """
    schema = tuple(schema)
    positions = {name: i for i, name in enumerate(schema)}
    value_pos = positions[spec.attribute] if spec.attribute else None
    group_pos = tuple(positions[a] for a in spec.group_attributes)
    sums: Dict[Tuple, List[float]] = {}
    counts: Dict[Tuple, int] = {}
    for value in values:
        if spec.where is not None and not spec.where(dict(zip(schema, value))):
            continue
        key = tuple(value[p] for p in group_pos)
        g = 1.0 if value_pos is None else float(value[value_pos])
        sums.setdefault(key, []).append(g)
        counts[key] = counts.get(key, 0) + 1
    out: Dict[Tuple, float] = {}
    for key, gs in sums.items():
        if spec.kind == "count":
            out[key] = float(counts[key])
        elif spec.kind == "sum":
            out[key] = math.fsum(gs)
        else:
            out[key] = math.fsum(gs) / counts[key]
    if not out:
        out[GLOBAL_GROUP] = 0.0 if spec.kind != "avg" else float("nan")
    return out


__all__ = [
    "AGGREGATE_KINDS",
    "GLOBAL_GROUP",
    "AggregateSpec",
    "AggregateEstimate",
    "AggregateReport",
    "AggregateAccumulator",
    "exact_aggregate",
]
