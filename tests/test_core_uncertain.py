"""Tests for x-tuples, quantization, and the uncertain relation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro.core.uncertain import (
    TRUNCATE_SIGMAS,
    QuantizationGrid,
    UncertainRelation,
    all_distinct,
    build_relation,
    grid_for,
    quantize_mixtures,
    restrict_relation,
)
from repro.errors import ConfigurationError, UncertainRelationError
from repro.models import SIGMA_FLOOR, GaussianMixture

from conftest import make_relation


def mixture(mus, sigmas, pis=None):
    mus = np.atleast_2d(np.asarray(mus, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if pis is None:
        pis = np.ones_like(mus) / mus.shape[1]
    else:
        pis = np.atleast_2d(np.asarray(pis, dtype=float))
    return GaussianMixture(pi=pis, mu=mus, sigma=sigmas)


def random_mixture(rng, rows, components=5):
    pi = rng.random((rows, components)) + 0.05
    return GaussianMixture(
        pi=pi / pi.sum(axis=1, keepdims=True),
        mu=rng.random((rows, components)) * 14.0,
        sigma=rng.random((rows, components)) * 2.0 + 0.05)


def assert_same_relation(a, b):
    assert a.grid == b.grid
    for field in ("ids", "pmf", "cdf", "certain", "exact_scores"):
        mine, theirs = getattr(a, field), getattr(b, field)
        assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
        assert mine.tobytes() == theirs.tobytes(), field


class TestQuantizationGrid:
    def test_level_roundtrip(self):
        grid = QuantizationGrid(floor=0.0, step=0.5, num_levels=10)
        for level in range(10):
            score = grid.score_of(level)
            assert grid.level_of(score) == level

    def test_clipping(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=5)
        assert grid.level_of(-3.0) == 0
        assert grid.level_of(100.0) == 4

    def test_nearest_rounding(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=10)
        assert grid.level_of(1.4) == 1
        assert grid.level_of(1.6) == 2

    def test_edges_cover_reals(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=3)
        edges = grid.edges()
        assert edges[0] == -np.inf and edges[-1] == np.inf
        assert len(edges) == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantizationGrid(floor=0.0, step=0.0, num_levels=3)
        with pytest.raises(ConfigurationError):
            QuantizationGrid(floor=0.0, step=1.0, num_levels=0)
        with pytest.raises(ConfigurationError):
            QuantizationGrid(floor=0.0, step=1e-9, num_levels=10_000)


class TestGridFor:
    def test_covers_mixture_support(self):
        mix = mixture([[2.0, 8.0]], [[0.5, 1.0]])
        grid = grid_for(mix, floor=0.0, step=1.0)
        assert grid.score_of(grid.max_level) >= 8.0 + 3.0

    def test_covers_known_scores(self):
        mix = mixture([[1.0]], [[0.1]])
        grid = grid_for(mix, floor=0.0, step=1.0, extra_scores=[15.0])
        assert grid.score_of(grid.max_level) >= 15.0


class TestQuantizeMixtures:
    def test_pmf_sums_to_one(self):
        mix = mixture([[3.0, 7.0], [1.0, 2.0]], [[0.5, 1.0], [0.3, 0.4]])
        grid = grid_for(mix, floor=0.0, step=1.0)
        pmf = quantize_mixtures(mix, grid)
        assert np.allclose(pmf.sum(axis=1), 1.0)
        assert (pmf >= 0).all()

    def test_mass_concentrates_at_mean(self):
        mix = mixture([[5.0]], [[0.2]])
        grid = grid_for(mix, floor=0.0, step=1.0)
        pmf = quantize_mixtures(mix, grid)[0]
        assert int(np.argmax(pmf)) == 5
        assert pmf[5] > 0.95

    def test_three_sigma_truncation(self):
        """Mass beyond mu +/- 3 sigma must be exactly zero."""
        assert TRUNCATE_SIGMAS == 3.0
        mix = mixture([[10.0]], [[1.0]])
        grid = grid_for(mix, floor=0.0, step=1.0)
        pmf = quantize_mixtures(mix, grid)[0]
        # Levels clearly outside [7, 13] carry no mass.
        assert pmf[:6].sum() == 0.0
        assert pmf[15:].sum() == 0.0
        assert pmf[8:13].sum() > 0.9

    def test_quantized_mean_close_to_mixture_mean(self):
        mix = mixture([[4.0, 9.0]], [[0.8, 1.2]], [[0.6, 0.4]])
        grid = grid_for(mix, floor=0.0, step=0.5)
        pmf = quantize_mixtures(mix, grid)[0]
        levels = grid.score_of(np.arange(grid.num_levels))
        assert float(pmf @ levels) == pytest.approx(
            float(mix.mean()[0]), abs=0.2)

    def test_empty_batch(self):
        mix = GaussianMixture(
            pi=np.zeros((0, 2)), mu=np.zeros((0, 2)), sigma=np.ones((0, 2)))
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=4)
        assert quantize_mixtures(mix, grid).shape == (0, 4)

    def test_rows_are_independent_at_the_byte_level(self):
        """The licence for keeping pmf rows per inference block
        (DESIGN.md §7): a row's pmf depends on that row's mixture (and
        the grid) only. No tolerance — a failure here is the finding."""
        rng = np.random.default_rng(3)
        mix = random_mixture(rng, 1_400)
        grid = grid_for(mix, floor=0.0, step=1.0)
        whole = quantize_mixtures(mix, grid)
        for trial in range(300):
            a = int(rng.integers(0, 1_400))
            b = a + 1 if trial < 20 else int(rng.integers(a + 1, 1_401))
            part = quantize_mixtures(mix.select(slice(a, b)), grid)
            assert part.tobytes() == whole[a:b].tobytes(), (a, b)
        rows = np.sort(rng.choice(1_400, size=511, replace=False))
        assert quantize_mixtures(mix.select(rows), grid).tobytes() \
            == whole[rows].tobytes()


def quantize_two_sided(mixtures, grid):
    """:func:`quantize_mixtures` as first written: each bin's mass is
    ``ndtr`` at its clipped top edge minus ``ndtr`` at its clipped
    bottom edge, so every inner edge is evaluated twice."""
    n, g = mixtures.pi.shape
    edges = grid.edges()
    pmf = np.zeros((n, grid.num_levels))
    if n == 0:
        return pmf
    lo = (mixtures.mu - TRUNCATE_SIGMAS * mixtures.sigma)
    hi = (mixtures.mu + TRUNCATE_SIGMAS * mixtures.sigma)
    for j in range(g):
        mu = mixtures.mu[:, j][:, None]
        sigma = mixtures.sigma[:, j][:, None]
        lo_j = lo[:, j][:, None]
        hi_j = hi[:, j][:, None]
        clipped_lo = np.clip(edges[None, :-1], lo_j, hi_j)
        clipped_hi = np.clip(edges[None, 1:], lo_j, hi_j)
        mass = ndtr((clipped_hi - mu) / sigma) \
            - ndtr((clipped_lo - mu) / sigma)
        touched = clipped_hi > clipped_lo
        num_touched = np.maximum(touched.sum(axis=1, keepdims=True), 1)
        trimmed = 1.0 - mass.sum(axis=1, keepdims=True)
        mass = mass + touched * (trimmed / num_touched)
        pmf += mixtures.pi[:, j][:, None] * mass
    totals = pmf.sum(axis=1, keepdims=True)
    totals[totals <= 0] = 1.0
    return np.clip(pmf / totals, 0.0, None)


@st.composite
def mixtures_on_grids(draw):
    """Mixtures whose 3-sigma ranges fall inside, across and wholly off
    a grid of 1 to 30 levels, some components at ``SIGMA_FLOOR``."""
    rows = draw(st.integers(1, 6))
    components = draw(st.integers(1, 8))
    floor = draw(st.sampled_from([0.0, -2.0, 3.5]))
    step = draw(st.sampled_from([1.0, 0.25, 0.1]))
    levels = draw(st.integers(1, 30))
    top = floor + (levels - 1) * step

    def values(strategy):
        return np.asarray(draw(st.lists(
            strategy, min_size=rows * components,
            max_size=rows * components))).reshape(rows, components)

    mu = values(st.one_of(
        st.floats(floor - 2.0, top + 2.0),
        st.floats(floor - 60.0, floor - 10.0),  # wholly below the grid
        st.floats(top + 10.0, top + 60.0),  # wholly above it
        st.sampled_from([floor, top, floor + 0.5 * step])))
    sigma = values(st.one_of(
        st.just(SIGMA_FLOOR), st.floats(SIGMA_FLOOR, 5.0)))
    pi = values(st.floats(0.01, 1.0))
    pi = pi / pi.sum(axis=1, keepdims=True)
    return (GaussianMixture(pi=pi, mu=mu, sigma=sigma),
            QuantizationGrid(floor=floor, step=step, num_levels=levels))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mixtures_on_grids())
def test_one_ndtr_per_edge_equals_the_two_sided_formula(case):
    """Adjacent bins share a clipped edge, so the mass is a difference
    of one ``ndtr`` row: identical inputs, identical bits."""
    mixtures, grid = case
    assert quantize_mixtures(mixtures, grid).tobytes() \
        == quantize_two_sided(mixtures, grid).tobytes()


class TestUncertainRelation:
    def test_cdf_is_cumulative(self, tiny_relation):
        assert np.allclose(
            tiny_relation.cdf, np.cumsum(tiny_relation.pmf, axis=1))
        assert np.allclose(tiny_relation.cdf[:, -1], 1.0)

    def test_a_known_score_is_a_point_mass(self):
        relation = make_relation(
            [[0.78, 0.21, 0.01], [0.49, 0.42, 0.09], [0.16, 0.48, 0.36]],
            certain={2: 0.2})
        assert relation.certain.tolist() == [False, False, True]
        assert relation.num_certain == 1
        assert relation.num_uncertain == 2
        assert relation.pmf[2].tolist() == [1.0, 0.0, 0.0]
        assert relation.cdf[2].tolist() == [1.0, 1.0, 1.0]
        assert relation.exact_scores[2] == 0.2
        assert np.isnan(relation.exact_scores[:2]).all()

    def test_expected_scores(self, tiny_relation):
        expected = tiny_relation.expected_scores()
        assert expected[0] == pytest.approx(0.21 + 2 * 0.01)
        assert expected[2] == pytest.approx(0.48 + 2 * 0.36)

    def test_position_lookup(self, tiny_relation):
        assert tiny_relation.position(1) == 1
        with pytest.raises(UncertainRelationError):
            tiny_relation.position(99)

    def test_clones_equal_a_validated_rebuild(self):
        """``restrict_relation`` clones the validated fields instead of
        re-running the constructor: same bytes, no shared arrays,
        positions of the rows that are left; ranges covering every row
        return the relation itself."""
        rng = np.random.default_rng(8)
        ids = np.arange(100, 160)
        relation = build_relation(
            ids, random_mixture(rng, ids.size), floor=0.0, step=1.0,
            known_scores={104: 3.0, 131: 9.0, 500: 2.0})

        def rebuilt(mask):
            certain = np.flatnonzero(relation.certain[mask])
            return UncertainRelation(
                relation.ids[mask], relation.pmf[mask], relation.grid,
                known=(certain, relation.exact_scores[mask][certain]))

        assert restrict_relation(relation, [(0, 10**6)]) is relation
        window = (relation.ids >= 120) & (relation.ids < 150)
        windowed = restrict_relation(relation, [(120, 150)])
        assert_same_relation(windowed, rebuilt(window))
        for field in ("ids", "pmf", "cdf", "certain", "exact_scores"):
            assert not np.shares_memory(
                getattr(windowed, field), getattr(relation, field))

        assert windowed.position(131) == 11
        with pytest.raises(UncertainRelationError):
            windowed.position(104)

    def test_duplicate_ids_rejected(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=2)
        pmf = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(UncertainRelationError):
            UncertainRelation([1, 1], pmf, grid)

    def test_unsorted_duplicates_rejected_with_the_same_messages(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=2)
        pmf = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(
                UncertainRelationError, match="^tuple ids must be unique$"):
            UncertainRelation([7, 3, 7], pmf, grid)
        relation = build_relation(
            [7, 3, 9], None, floor=0.0, step=1.0, grid=grid, pmf=pmf,
            known_scores={9: 1.0, 7: 0.0})
        assert relation.certain.tolist() == [True, False, True]

    def test_unnormalized_pmf_rejected(self):
        grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=2)
        with pytest.raises(UncertainRelationError):
            UncertainRelation([0], np.array([[0.5, 0.2]]), grid)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-5, 5), max_size=12))
def test_all_distinct_is_a_unique_count(values):
    values = np.array(values, dtype=np.int64)
    assert all_distinct(values) == (np.unique(values).size == values.size)
    assert all_distinct(values.reshape(-1, 1)) == all_distinct(values)


class TestBuildRelation:
    def test_known_scores_become_certain(self):
        mix = mixture([[2.0], [5.0]], [[0.5], [0.5]])
        relation = build_relation(
            [10, 20], mix, floor=0.0, step=1.0,
            known_scores={10: 2.0})
        assert relation.certain[relation.position(10)]
        assert not relation.certain[relation.position(20)]

    def test_extra_known_frames_appended(self):
        mix = mixture([[2.0]], [[0.5]])
        relation = build_relation(
            [10], mix, floor=0.0, step=1.0,
            known_scores={99: 7.0})
        position = relation.position(99)
        assert relation.certain[position]
        assert relation.exact_scores[position] == 7.0
        assert len(relation) == 2

    @pytest.mark.parametrize("order", [
        [905, 4, 901, 903, 900], [900, 901, 903, 905, 4],
        [4, 905, 903, 901, 900]], ids=["mixed", "ascending", "descending"])
    def test_extra_known_ids_append_in_ascending_order(self, order):
        ids = np.array([40, 4, 12])
        known_scores = {frame: float(frame % 7) for frame in order}
        relation = build_relation(
            ids, mixture([[2.0], [5.0], [1.0]], [[0.5]] * 3),
            floor=0.0, step=1.0, known_scores=known_scores)
        # What ``np.setdiff1d`` without ``assume_unique`` returns.
        expected = np.setdiff1d(np.array(order), ids)
        assert relation.ids[ids.size:].tolist() == expected.tolist() == [
            900, 901, 903, 905]
        assert relation.certain.tolist() == [
            False, True, False, True, True, True, True]

    def test_no_known_scores(self):
        mix = mixture([[2.0], [3.0]], [[0.5], [0.5]])
        relation = build_relation([0, 1], mix, floor=0.0, step=1.0)
        assert relation.num_certain == 0

    @pytest.mark.parametrize("known_scores", [
        {},
        {4: 4.0, 40: 11.0},               # known rows inside ``ids``
        {4: 4.0, 900: 2.0, 901: 7.0},     # extra known ids appended
        {4: 4.0, 900: 29.0},              # a known score extends the grid
    ], ids=["none", "inside", "extra-ids", "grid-extension"])
    def test_rows_given_equal_rows_requantized(self, known_scores):
        """Handing ``build_relation`` pmf rows quantized block by block
        (what the Phase-1 maintainer keeps) builds the relation a
        one-pass quantization builds, bit for bit."""
        rng = np.random.default_rng(12)
        ids = np.arange(0, 120, 2)
        mix = random_mixture(rng, ids.size)
        arguments = dict(floor=0.0, step=1.0, known_scores=known_scores)
        reference = build_relation(ids, mix, **arguments)
        grid = reference.grid
        if 29.0 in known_scores.values():
            assert grid.num_levels == 30 > grid_for(
                mix, floor=0.0, step=1.0).num_levels
        rows = np.concatenate([
            quantize_mixtures(mix.select(slice(lo, lo + 25)), grid)
            for lo in range(0, ids.size, 25)])
        handed = rows.copy()
        given = build_relation(ids, mix, grid=grid, pmf=handed, **arguments)
        assert_same_relation(given, reference)
        assert len(given) == ids.size + sum(f >= 900 for f in known_scores)
        assert given.num_certain == len(known_scores)
