"""Alias-table kernels: construction invariants and draw distributions.

Two layers of guarantees:

* **exact mass accounting** — an alias table is a redistribution of the
  normalized weights over uniform buckets; summing each item's bucket share
  (``prob`` of its own bucket plus ``1 - prob`` of every bucket aliased to
  it) must reproduce the weight distribution to floating-point accuracy,
  for any weight profile (uniform, zipfian, single-heavy, zeros);
* **distribution equivalence** — drawing through the alias table must be
  chi-square-compatible with the inverse-CDF (``searchsorted``) reference
  the batched engine used before, both flat and per-CSR-segment, including
  after per-segment rebuilds (the epoch protocol);
* **the cold kernel is exact, and the table builds only where it pays** —
  a draw into an unbuilt small segment is a segment-local inverse CDF whose
  preimages have the weights' measure (checked at the breakpoints, without
  sampling); a view promotes itself after serving as many cold draws as
  its tables have rows and from then on is read-only;
* **one table per snapshot, one set of decisions per sampler** — views of
  shared tables build each segment at most once and draw exactly what a
  view of private tables draws; a patch leaves the published tables as
  they were.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sampling.alias import (
    _SMALL_SEGMENT,
    AliasTable,
    SegmentedAliasTable,
    SegmentTables,
    uniform_segment_pick,
)

from tests.stat_helpers import STAT_SEED, assert_uniform


def bucket_mass(table: AliasTable) -> np.ndarray:
    """Each item's total draw probability implied by the prob/alias arrays."""
    mass = np.zeros(table.n)
    np.add.at(mass, np.arange(table.n), table.prob / table.n)
    np.add.at(mass, table.alias, (1 - table.prob) / table.n)
    return mass


def fresh_view(weights, offsets) -> SegmentedAliasTable:
    """A sampler's view of new tables that no other view has touched."""
    return SegmentedAliasTable(SegmentTables(weights, offsets))


WEIGHT_PROFILES = {
    "uniform": np.ones(257),
    "two_point": np.array([0.25, 0.75]),
    "single": np.array([3.5]),
    "one_heavy": np.concatenate([[1e6], np.ones(999)]),
    "zipf": 1.0 / np.arange(1, 2001) ** 1.2,
    "with_zeros": np.array([0.0, 3.0, 0.0, 1.0, 0.0, 2.0, 0.0]),
    "extreme_range": np.array([1e-12, 1.0, 1e12, 1e-12, 3.0]),
    "random": np.random.default_rng(41).random(1500),
}


class TestAliasTableConstruction:
    @pytest.mark.parametrize("profile", sorted(WEIGHT_PROFILES))
    def test_mass_accounting_is_exact(self, profile):
        weights = WEIGHT_PROFILES[profile]
        table = AliasTable(weights)
        expected = weights / weights.sum()
        assert np.abs(bucket_mass(table) - expected).max() < 1e-9

    def test_zero_weight_items_are_never_drawn(self):
        weights = WEIGHT_PROFILES["with_zeros"]
        table = AliasTable(weights)
        draws = table.sample(np.random.default_rng(STAT_SEED), 5000)
        assert not np.isin(draws, np.flatnonzero(weights == 0)).any()

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            AliasTable(np.ones((2, 2)))
        with pytest.raises(ValueError):
            AliasTable(np.zeros(3)).sample(np.random.default_rng(0), 1)
        with pytest.raises(ValueError):
            AliasTable(np.zeros(0)).sample(np.random.default_rng(0), 1)


class TestAliasVsSearchsorted:
    """The alias draw must match the inverse-CDF reference distribution."""

    def _searchsorted_reference(self, weights, rng, size):
        cumulative = np.cumsum(weights)
        targets = rng.random(size) * cumulative[-1]
        return np.searchsorted(cumulative, targets, side="right")

    @pytest.mark.parametrize("profile", ["zipf", "one_heavy", "random"])
    def test_flat_distribution_matches(self, profile):
        weights = WEIGHT_PROFILES[profile][:64]
        alias_draws = AliasTable(weights).sample(
            np.random.default_rng(STAT_SEED), 20_000
        )
        reference = self._searchsorted_reference(
            weights, np.random.default_rng(STAT_SEED + 1), 20_000
        )
        alias_freq = np.bincount(alias_draws, minlength=len(weights)) / 20_000
        ref_freq = np.bincount(reference, minlength=len(weights)) / 20_000
        expected = weights / weights.sum()
        assert np.abs(alias_freq - expected).max() < 0.02
        assert np.abs(alias_freq - ref_freq).max() < 0.03

    def test_segmented_distribution_matches_reference(self):
        rng_w = np.random.default_rng(7)
        degrees = rng_w.integers(1, 9, size=40)
        offsets = np.concatenate([[0], np.cumsum(degrees)])
        weights = rng_w.random(int(offsets[-1])) + 0.05
        table = fresh_view(weights, offsets)
        rng = np.random.default_rng(STAT_SEED)
        slots = rng.integers(0, 40, size=30_000).astype(np.intp)
        picks = table.sample(rng, slots)
        for slot in range(40):
            lo, hi = int(offsets[slot]), int(offsets[slot + 1])
            segment_picks = picks[slots == slot]
            assert ((segment_picks >= lo) & (segment_picks < hi)).all()
            if len(segment_picks) < 200 or hi - lo < 2:
                continue
            freq = np.bincount(segment_picks - lo, minlength=hi - lo) / len(segment_picks)
            expected = weights[lo:hi] / weights[lo:hi].sum()
            assert np.abs(freq - expected).max() < 0.08

    def test_uniform_segments_draw_uniformly(self):
        offsets = np.array([0, 5, 5, 9])
        weights = np.ones(9)
        table = fresh_view(weights, offsets)
        # Uniform segments are pre-marked built: no construction work at all.
        assert table._built.all()
        rng = np.random.default_rng(STAT_SEED)
        picks = table.sample(rng, np.zeros(6000, dtype=np.intp))
        assert_uniform(picks.tolist(), list(range(5)))


class TestSegmentRebuild:
    def test_a_patch_is_local_and_writes_nothing_published(self):
        offsets = np.array([0, 3, 6, 10])
        weights = np.array([1.0, 2.0, 3.0, 5.0, 5.0, 5.0, 1.0, 1.0, 1.0, 7.0])
        tables = SegmentTables(weights, offsets)
        table = SegmentedAliasTable(tables)
        table.build_all()
        assert table._built.all()
        published = [a.copy() for a in (tables.weights, tables.prob, tables.alias,
                                         tables.segment_totals, tables.built)]

        new_weights = weights.copy()
        new_weights[0:3] = [4.0, 0.0, 1.0]
        patched = tables.patched(new_weights)
        assert table.resync(patched) is table and table.tables is patched
        # Only slot 0 was invalidated; the others keep their tables.
        assert not table._built[0] and not patched.built[0]
        assert table._built[1] and table._built[2]
        assert patched.built[2] and (patched.prob[6:] == tables.prob[6:]).all()
        assert patched.segment_totals[0] == pytest.approx(5.0)
        assert patched.offsets is tables.offsets
        for before, after in zip(published, (tables.weights, tables.prob, tables.alias,
                                             tables.segment_totals, tables.built)):
            assert (before == after).all()

        # The dirtied slot is drawn cold, from the new weights, and the
        # count toward promotion started over with the delta.
        assert table._cold_draws == 0
        assert patched.cold_pick(np.array([0, 0, 0]), np.array([0.0, 0.79, 0.81])).tolist() == [
            0, 0, 2
        ]
        rng = np.random.default_rng(STAT_SEED)
        picks = table.sample(rng, np.zeros(9, dtype=np.intp))
        assert not table._built[0] and table._cold_draws == 9
        picks = np.concatenate([picks, table.sample(rng, np.zeros(10_000, dtype=np.intp))])
        freq = np.bincount(picks, minlength=3)[:3] / picks.size
        assert freq[0] == pytest.approx(0.8, abs=0.02)
        assert freq[1] == 0.0
        assert freq[2] == pytest.approx(0.2, abs=0.02)

    def test_an_unchanged_patch_is_the_same_tables(self):
        tables = SegmentTables(np.array([1.0, 2.0, 3.0]), np.array([0, 3]))
        assert tables.patched(np.array([1.0, 2.0, 3.0])) is tables

    def test_patch_rejects_shape_change(self):
        tables = SegmentTables(np.ones(4), np.array([0, 2, 4]))
        with pytest.raises(ValueError, match="shape"):
            tables.patched(np.ones(5))

    def test_empty_segments_are_legal(self):
        offsets = np.array([0, 2, 2, 4])  # middle slot emptied by deletions
        table = fresh_view(np.ones(4), offsets)
        assert table.tables.segment_totals[1] == 0.0
        picks = table.sample(
            np.random.default_rng(0), np.array([0, 2, 0, 2], dtype=np.intp)
        )
        assert ((picks < 2) | (picks >= 2)).all()


def random_layout(seed, n_segments=60, max_degree=9, zero_share=0.25):
    """A CSR layout with empty and degree-1 segments and zero-weight rows."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, max_degree + 1, size=n_segments)
    degrees[:3] = (0, 1, 1)
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    weights = rng.random(int(offsets[-1])) * 10.0 ** rng.integers(-3, 4, size=int(offsets[-1]))
    weights[rng.random(weights.size) < zero_share] = 0.0
    return weights, offsets


class TestColdDraws:
    """Draws into unbuilt small segments: segment-local inverse CDF."""

    @pytest.mark.parametrize("seed", range(6))
    def test_preimages_have_the_weights_measure(self, seed):
        """No sampling: the kernel is monotone in ``u``, so a row's preimage
        is an interval, and probing just inside both ends of where it should
        lie pins its measure to ``w / total`` within 4 * delta < 1e-12."""
        delta = 2e-13
        weights, offsets = random_layout(seed)
        table = fresh_view(weights, offsets)
        slots, probes, expected = [], [], []
        for slot in np.flatnonzero(table.tables.segment_totals > 0):
            lo, hi = int(offsets[slot]), int(offsets[slot + 1])
            edges = np.concatenate([[0.0], np.cumsum(weights[lo:hi]) / weights[lo:hi].sum()])
            for row in range(hi - lo):
                left, right = edges[row] + delta, min(edges[row + 1], 1.0) - delta
                if weights[lo + row] > 0 and left < right:
                    probes += [left, (left + right) / 2, right]
                    slots += [slot] * 3
                    expected += [lo + row] * 3
        slots, probes, expected = map(np.asarray, (slots, probes, expected))
        assert expected.size > 300
        assert (table.tables.cold_pick(slots, probes) == expected).all()
        # Where a draw falls in the block (its neighbours, its parity in the
        # running sum) changes nothing.
        order = np.random.default_rng(seed).permutation(slots.size)
        assert (table.tables.cold_pick(slots[order], probes[order]) == expected[order]).all()
        assert (table.tables.prob == 1.0).all() and table._cold_draws == 0  # wrote nothing

    def test_is_monotone_in_u(self):
        weights, offsets = random_layout(11)
        table = fresh_view(weights, offsets)
        slot = int(np.argmax(np.diff(offsets) * (table.tables.segment_totals > 0)))
        grid = np.linspace(0.0, 1.0, 4001, endpoint=False)
        picks = table.tables.cold_pick(np.full(grid.size, slot), grid)
        assert (np.diff(picks) >= 0).all()
        assert (weights[picks] > 0).all()

    def test_zero_weight_row_is_unreachable_however_close_u_is_to_one(self):
        tenth = [0.1] * 10  # shares whose running sum stops short of 1.0
        weights = np.array([3.0, 0.0, 1.0, 0.0, 0.0] + [0.0, 2.0] + tenth + [0.0])
        offsets = np.array([0, 5, 7, 18])
        table = fresh_view(weights, offsets)
        almost_one = np.nextafter(1.0, 0.0)
        for u in (almost_one, 1.0 - 1e-12, 0.999999):
            picks = table.tables.cold_pick(np.array([0, 1, 2]), np.full(3, u))
            assert picks.tolist() == [2, 6, 16]
        assert table.tables.cold_pick(np.array([0, 1, 2]), np.zeros(3)).tolist() == [0, 6, 7]

    def test_cold_and_built_draws_consume_the_same_generator_values(self):
        weights, offsets = random_layout(5, zero_share=0.0)
        slots = np.flatnonzero(np.diff(offsets) > 0).repeat(3)
        cold, built = fresh_view(weights, offsets), fresh_view(weights, offsets)
        built.build_all()
        rng_cold, rng_built = np.random.default_rng(9), np.random.default_rng(9)
        cold_picks = cold.sample(rng_cold, slots[:40])
        built_picks = built.sample(rng_built, slots[:40])
        assert not cold._all_built and cold._cold_draws > 0
        assert rng_cold.bit_generator.state == rng_built.bit_generator.state
        # Same darts: in a segment of degree 1 both paths return the one row.
        single = np.diff(offsets)[slots[:40]] == 1
        assert (cold_picks[single] == built_picks[single]).all()

    def test_promotes_itself_exactly_when_cold_draws_reach_its_rows(self):
        # 4 rows in non-uniform segments (slots 0 and 2), 3 in a uniform one.
        weights = np.array([1.0, 2.0, 5.0, 5.0, 5.0, 1.0, 9.0])
        offsets = np.array([0, 2, 5, 7])
        table = fresh_view(weights, offsets)
        rng = np.random.default_rng(3)
        table.sample(rng, np.array([1, 1, 1, 1, 1, 1, 1, 1]))  # uniform: not cold
        assert table._cold_draws == 0 and not table._all_built
        table.sample(rng, np.array([0, 1, 2, 0]))
        assert table._cold_draws == 3 and not table._all_built
        table.sample(rng, np.array([2, 0, 1]))
        assert table._cold_draws == 5 and not table._all_built
        assert (table.tables.prob == 1.0).all()  # nothing built by a draw's first touch
        table.sample(rng, np.array([0, 0]))
        assert table._cold_draws == 7 and table._all_built and table._built.all()
        assert (table.tables.prob != 1.0).any()

    def test_promotion_reaches_the_tables_of_an_eager_build(self):
        weights, offsets = random_layout(8)
        lazy, eager = fresh_view(weights, offsets), fresh_view(weights, offsets)
        eager.build_all()
        rng = np.random.default_rng(2)
        drawable = np.flatnonzero(lazy.tables.segment_totals > 0)
        while not lazy._all_built:
            lazy.sample(rng, rng.choice(drawable, size=64))
        assert (lazy.tables.prob == eager.tables.prob).all()
        assert (lazy.tables.alias == eager.tables.alias).all()

    def test_a_fully_built_table_never_mutates_on_sample(self):
        """The thread-sharing contract of the warm path: read-only arrays."""
        weights, offsets = random_layout(4)
        table = fresh_view(weights, offsets)
        table.build_all()
        for array in (table.tables.prob, table.tables.alias, table._built, table.tables.weights):
            array.setflags(write=False)
        rng = np.random.default_rng(1)
        drawable = np.flatnonzero(table.tables.segment_totals > 0)
        picks = table.sample(rng, rng.choice(drawable, size=5000))
        assert table._cold_draws == 0 and table._all_built
        assert (weights[picks] > 0).all()

    def test_a_large_segment_is_built_by_the_block_that_draws_from_it_twice(self):
        degree = _SMALL_SEGMENT + 1
        weights = np.concatenate([np.arange(1.0, degree + 1), [1.0, 3.0]])
        offsets = np.array([0, degree, degree + 2])
        table = fresh_view(weights, offsets)
        rng = np.random.default_rng(0)
        picks = table.sample(rng, np.array([0, 1, 1]))  # once: served cold
        assert not table._built.any() and table._cold_draws == 3
        assert picks[0] < degree <= picks[1:].min()
        picks = table.sample(rng, np.array([0, 1, 0, 1]))  # twice: a table pays
        assert table._built[0] and not table._built[1]
        assert table._cold_draws == 5
        assert ((picks[[0, 2]] < degree) & (picks[[1, 3]] >= degree)).all()

    def test_cold_draws_into_a_large_segment_follow_its_weights(self):
        degree = 3 * _SMALL_SEGMENT
        weights = np.random.default_rng(6).random(degree) + 0.01
        table = fresh_view(np.concatenate([weights, [1.0, 2.0]]),
                           np.array([0, degree, degree + 2]))
        edges = np.cumsum(weights) / weights.sum()
        probes = np.concatenate([edges[:-1] - 2e-13, edges[:-1] + 2e-13])
        expected = np.concatenate([np.arange(degree - 1), np.arange(1, degree)])
        slots = np.zeros(probes.size, dtype=np.intp)
        assert (table.tables.cold_pick(slots, probes) == expected).all()

    def test_cold_draw_frequencies_match_the_weights(self):
        weights = np.array([1.0, 0.0, 3.0, 4.0, 2.0, 2.0, 0.5, 0.0, 1.5])
        offsets = np.array([0, 4, 6, 9])
        table = fresh_view(weights, offsets)
        rng = np.random.default_rng(STAT_SEED)
        slots = rng.choice(np.array([0, 2]), size=40_000)
        picks = table.sample(rng, slots)  # one block: every draw of it is cold
        for slot in (0, 2):
            lo, hi = offsets[slot], offsets[slot + 1]
            own = picks[slots == slot]
            freq = np.bincount(own - lo, minlength=hi - lo) / own.size
            expected = weights[lo:hi] / weights[lo:hi].sum()
            assert np.abs(freq - expected).max() < 0.01
            assert (freq[expected == 0] == 0).all()


class TestSharedTables:
    """Views share one table per snapshot; each keeps its own decisions."""

    def test_a_view_draws_what_it_draws_alone_whatever_another_built(self):
        weights, offsets = random_layout(3, max_degree=3 * _SMALL_SEGMENT, n_segments=12)
        drawable = np.flatnonzero(np.diff(offsets) > 0)
        blocks = [np.random.default_rng(k).choice(drawable, size=50) for k in range(6)]

        def draws(view):
            rng = np.random.default_rng(4)
            return [view.sample(rng, block).tolist() for block in blocks]

        alone = draws(fresh_view(weights, offsets))
        shared = SegmentTables(weights, offsets)
        SegmentedAliasTable(shared).build_all()  # another sampler built every table
        assert shared.complete
        assert draws(SegmentedAliasTable(shared)) == alone

    def test_each_segment_is_built_at_most_once(self, monkeypatch):
        weights, offsets = random_layout(7, max_degree=3 * _SMALL_SEGMENT, n_segments=12)
        tables = SegmentTables(weights, offsets)
        built = []
        build_segment = SegmentTables._build_segment
        monkeypatch.setattr(
            SegmentTables, "_build_segment",
            lambda self, slot: (built.append(slot), build_segment(self, slot))[1],
        )
        drawable = np.flatnonzero(tables.segment_totals > 0)
        for seed in range(4):
            view, rng = SegmentedAliasTable(tables), np.random.default_rng(seed)
            while not view._all_built:
                view.sample(rng, rng.choice(drawable, size=40))
        assert built and len(built) == len(set(built))
        assert SegmentedAliasTable(tables, all_built=True)._built is tables.built

    def test_alias_indices_are_int32_and_draws_are_intp(self):
        weights, offsets = random_layout(2)
        flat, tables = AliasTable(weights + 1.0), SegmentTables(weights, offsets)
        assert flat.alias.dtype == np.int32 and tables.alias.dtype == np.int32
        view = SegmentedAliasTable(tables)
        view.build_all()
        drawable = np.flatnonzero(tables.segment_totals > 0)
        assert view.sample(np.random.default_rng(0), drawable).dtype == np.intp
        assert flat.sample(np.random.default_rng(0), 10).dtype == np.intp


class TestUniformSegmentPick:
    def test_picks_stay_inside_segments(self):
        starts = np.array([0, 10, 20], dtype=np.intp)
        degrees = np.array([10, 5, 1], dtype=np.intp)
        rng = np.random.default_rng(STAT_SEED)
        for _ in range(50):
            picks = uniform_segment_pick(rng, starts, degrees)
            assert ((picks >= starts) & (picks < starts + degrees)).all()

    def test_uniform_within_segment(self):
        starts = np.zeros(8000, dtype=np.intp)
        degrees = np.full(8000, 7, dtype=np.intp)
        picks = uniform_segment_pick(np.random.default_rng(STAT_SEED), starts, degrees)
        assert_uniform(picks.tolist(), list(range(7)))
