"""Micro-benchmarks and ablations of the core kernels.

These time the pieces Table 8 claims are negligible (Topk-prob,
Select-candidate) and quantify the design choices DESIGN.md calls out:

* incremental Eq. 3 confidence vs naive Eq. 2 recomputation;
* upper-bound early stopping vs exhaustive argmax E[X_f];
* renderer, difference-detector and CMDN inference throughput;
* one CMDN ``train_step`` per default grid shape, and the oracle's
  per-frame cost at batch 1 / 8 / 500 (recorded, not gated);
* a warm frame query's start (cleaner set-up, bootstrap, iteration-0
  re-sort) with D0's memo holding it and without, ``top_indices`` on
  a 512-row chunk and ``extract_features`` on a 512-frame block
  (recorded, not gated);
* one ``WindowCleaner`` batch of 8 windows confirmed through a warm
  score cache, with the entry's window samples already drawn and with
  every sample drawn afresh (recorded, not gated);
* the Phase-2 split of a warm query on a 3 000-frame entry: µs per
  cleaning iteration for select / running Top-K / batch update (the
  joint CDF and the cleaner's own scores) / confirm (plain and
  cache-hit), µs per query for the cleaner's state set-up and the
  window-relation fetch, and µs for a shape's first run on a
  session the other shapes warmed, with and without the session's
  score cache (recorded, not gated — DESIGN.md §3);
* what a Phase-1 build pays per frame on a 3 000-frame video: µs per
  frame rendered (a 512-frame block, and one ``pixels(i)`` call), the
  render's split into noiseless scenes and sensor noise (one render
  block), µs per row featurized (the frozen two-partition
  reference vs the one-sort extractor, a 512-row block and a 170-row
  append), µs to quantize one 512-row block of 5-component mixtures
  onto 17 levels and an append's 170 fresh rows, µs per relation build
  at a live window's size, and the renders / featurized rows of one
  build (recorded, not gated — DESIGN.md §3).
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import EverestConfig, Session
from repro.api.executor import QueryExecutor
from repro.config import DEFAULT_CMDN_GRID
from repro.core import uncertain
from repro.core.cleaner import TopKCleaner
from repro.core.select_candidate import CandidateSelector, top_indices
from repro.core.topk_prob import ConfidenceState
from repro.core.windows import WindowCleaner
from repro.core.uncertain import QuantizationGrid
from repro.models import (
    Adam,
    FeatureMDNProxy,
    GaussianMixture,
    NUM_FEATURES,
    build_feature_mdn,
    extract_features,
)
from repro.models.trainer import LEARNING_RATE, TRAIN_BATCH_SIZE
from repro.oracle import CostModel, Oracle, counting_udf
from repro.oracle.cache import CachingOracle
from repro.video import (
    DashcamVideo,
    DifferenceDetector,
    SentimentVideo,
    TrafficVideo,
)
from repro.video.synthetic import _RENDER_BLOCK

from bench_util import (
    count_renders,
    scale_label,
    timed_call,
    write_bench_result,
)

# The extractor the one-sort one replaced, frozen next to the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import reference_features  # noqa: E402


def _record(metric: str, elapsed: float) -> None:
    """Fold one kernel's wall seconds into ``BENCH_micro_kernels.json``."""
    write_bench_result(
        "micro_kernels", scale=scale_label(), seconds=elapsed,
        **{f"{metric}_seconds": elapsed})


def build_relation(num_tuples=20_000, levels=16, certain=60, seed=0):
    rng = np.random.default_rng(seed)
    # Realistic shape: most frames concentrated at low scores.
    mus = rng.gamma(2.0, 1.2, size=num_tuples)
    pmf = np.zeros((num_tuples, levels))
    grid_scores = np.arange(levels)
    for start in range(0, num_tuples, 4_096):
        chunk = slice(start, min(start + 4_096, num_tuples))
        z = (grid_scores[None, :] - mus[chunk, None]) / 1.0
        w = np.exp(-0.5 * z * z)
        w[np.abs(z) > 3.0] = 0.0
        pmf[chunk] = w / w.sum(axis=1, keepdims=True)
    grid = QuantizationGrid(floor=0.0, step=1.0, num_levels=levels)
    top = np.argsort(-mus)[:certain]
    return uncertain.build_relation(
        np.arange(num_tuples), None, floor=0.0, step=1.0,
        known_scores={int(p): float(round(mus[p])) for p in top},
        grid=grid, pmf=pmf)


@pytest.fixture(scope="module")
def big_relation():
    return build_relation()


def test_topk_prob_incremental(benchmark, big_relation):
    """Eq. 3: O(1) confidence after O(L) updates."""
    state = ConfidenceState(big_relation)

    def run():
        return state.topk_prob(10)

    value = benchmark(run)
    _record("topk_prob_incremental", timed_call(run)[1])
    assert 0.0 <= value <= 1.0


def test_topk_prob_naive_recompute(benchmark, big_relation):
    """Ablation: recomputing Eq. 2 from scratch per iteration."""
    state = ConfidenceState(big_relation)

    def run():
        return state.topk_prob_direct(10)

    value = benchmark(run)
    _record("topk_prob_naive", timed_call(run)[1])
    assert 0.0 <= value <= 1.0


def test_select_candidate_early_stopping(benchmark, big_relation):
    state = ConfidenceState(big_relation)
    selector = CandidateSelector(big_relation, state)

    def run():
        return selector.select(
            0, 10, 11, batch_size=8, p_hat=state.topk_prob(10))

    picked = benchmark(run)
    _record("select_candidate_early_stop", timed_call(run)[1])
    assert picked.size == 8
    # The whole point: only a small fraction of frames is examined.
    assert selector.stats.examine_fraction < 0.5


def test_select_candidate_exhaustive(benchmark, big_relation):
    """Ablation: computing E[X_f] for every uncertain frame, then
    taking the best 8 (what the early stop avoids)."""
    state = ConfidenceState(big_relation)
    selector = CandidateSelector(big_relation, state)

    def run():
        positions = np.flatnonzero(state.uncertain_mask)
        expected = selector.expected_confidences(positions, 10, 11)
        return positions[top_indices(expected, 8)]

    picked = benchmark(run)
    _record("select_candidate_exhaustive", timed_call(run)[1])
    assert picked.size == 8


@pytest.mark.parametrize("batch", [1, 30, 512])
@pytest.mark.parametrize(
    "generator", [TrafficVideo, DashcamVideo, SentimentVideo])
def test_render_throughput(benchmark, generator, batch):
    """µs per rendered frame, one frame / one clip / one block a call."""
    video = generator("bench-render", 3_000, seed=4)
    starts = range(0, 1_024, batch)

    def run():
        for start in starts:
            video.batch_pixels(np.arange(start, start + batch))

    benchmark.pedantic(run, rounds=3, iterations=1)
    per_frame = timed_call(run)[1] / (len(starts) * batch)
    kind = generator.__name__.replace("Video", "").lower()
    write_bench_result(
        "micro_kernels", scale=scale_label(),
        **{f"render_{kind}_batch{batch}_us_per_frame": per_frame * 1e6})


def test_diff_detector_throughput(benchmark):
    video = TrafficVideo("bench-diff", 3_000, seed=1)

    def run():
        return DifferenceDetector().run(video)

    result, elapsed = timed_call(run)
    benchmark.pedantic(run, rounds=1, iterations=1)
    _record("diff_detector", elapsed)
    assert result.num_frames == 3_000


def test_feature_extraction_throughput(benchmark):
    video = TrafficVideo("bench-feat", 512, seed=2)
    pixels = video.batch_pixels(np.arange(512))

    def run():
        return extract_features(pixels)

    features = benchmark(run)
    _record("feature_extraction", timed_call(run)[1])
    assert features.shape[0] == 512


def test_mdn_inference_throughput(benchmark, trained_bench_proxy=None):
    video = TrafficVideo("bench-mdn", 2_000, seed=3)
    rng = np.random.default_rng(0)
    idx = rng.choice(2_000, 200, replace=False)
    proxy = FeatureMDNProxy(num_gaussians=4, num_hypotheses=16, seed=0)
    from repro.models import train_network
    train_network(
        proxy, video.batch_pixels(idx), video.counts[idx],
        epochs=5, batch_size=64, learning_rate=2e-3)
    pixels = video.batch_pixels(np.arange(1_000))

    def run():
        return proxy.predict_mixtures(pixels)

    mix = benchmark(run)
    _record("mdn_inference", timed_call(run)[1])
    assert mix.pi.shape[0] == 1_000


@pytest.mark.parametrize(
    "shape", DEFAULT_CMDN_GRID, ids=lambda shape: "g%dh%d" % shape)
def test_mdn_train_step(benchmark, shape):
    """µs per ``train_step`` at the default batch size."""
    gaussians, hypotheses = shape
    batch = TRAIN_BATCH_SIZE
    rng = np.random.default_rng(0)
    x = rng.normal(size=(batch, NUM_FEATURES))
    y = rng.normal(size=batch)
    network = build_feature_mdn(
        num_gaussians=gaussians, num_hypotheses=hypotheses)
    network.fit_target_scaling(y)
    optimizer = Adam(LEARNING_RATE)
    steps = 200

    def run():
        for _ in range(steps):
            network.train_step(x, y, optimizer)

    benchmark.pedantic(run, rounds=3, iterations=1)
    write_bench_result(
        "micro_kernels", scale=scale_label(),
        **{f"mdn_train_step_g{gaussians}_h{hypotheses}_us":
           timed_call(run)[1] / steps * 1e6})


@pytest.mark.parametrize("batch", [1, 8, 500])
def test_oracle_score_batch(benchmark, batch):
    """µs per oracle-scored frame: a confirm (1), a cleaning batch (8)
    and a labelling call (500)."""
    video = TrafficVideo("bench-oracle", 3_000, seed=5)
    oracle = Oracle(counting_udf("car"), CostModel())
    starts = range(0, 2_000, batch)

    def run():
        for start in starts:
            oracle.score(video, range(start, start + batch))

    benchmark.pedantic(run, rounds=3, iterations=1)
    write_bench_result(
        "micro_kernels", scale=scale_label(),
        **{f"oracle_score_batch{batch}_us_per_frame":
           timed_call(run)[1] / (len(starts) * batch) * 1e6})


def test_phase2_iteration_split(benchmark, monkeypatch):
    """Where a warm query's time goes, per cleaning iteration and per
    query: wrapping timers around the loop's four steps. Their sum is
    less than the op (the loop's own bookkeeping, report assembly)."""
    session = Session(
        TrafficVideo("bench-phase2", 3_000, seed=301), counting_udf("car"),
        config=EverestConfig())
    entry = session.phase1()
    plans = [
        session.query().topk(k).guarantee(thres).plan() for k, thres in ((10, 0.99), (50, 0.9), (100, 0.99))]
    spent = {}

    def plain(plan, phase2_cost):
        """Every confirmation a physical UDF call: no score cache."""
        return Oracle(session.scoring, phase2_cost,
                      cost_key="oracle_confirm", budget=plan.oracle_budget)

    def shape_plan(target, shape):
        k, thres, window = shape
        query = target.query().topk(k).guarantee(thres)
        return (query.windows(size=window) if window else query).plan()

    def timed(owner, name, step):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[step] = spent.get(step, 0.0) \
                    + time.perf_counter() - started
        monkeypatch.setattr(owner, name, wrapper)

    def per_iteration(executor):
        """µs per cleaning iteration of each timed step, one sweep."""
        spent.clear()
        iterations = sum(
            executor.execute(plan).iterations for plan in plans)
        return {step: seconds / iterations * 1e6
                for step, seconds in spent.items()}

    timed(CandidateSelector, "select", "select")
    timed(TopKCleaner, "_best", "running_topk")
    timed(TopKCleaner, "_answer_of", "running_topk")
    timed(ConfidenceState, "_remove_rows", "batch_update")
    timed(Oracle, "score", "confirm_plain")
    timed(CachingOracle, "score", "confirm_cache_hit")
    metrics = per_iteration(QueryExecutor(session, confirm_oracle=plain))
    caching = QueryExecutor(session)
    per_iteration(caching)  # fills the session's cache
    metrics["confirm_cache_hit"] = \
        per_iteration(caching)["confirm_cache_hit"]
    monkeypatch.undo()
    metrics = {f"phase2_{step}_us_per_iter": value
               for step, value in metrics.items()}

    # A shape's first run on a session its other shapes already warmed:
    # what the session's own score cache saves on a query never run.
    # (perfbench's warm_sweep shapes: k, thres, window size or 0.)
    shapes = [
        (10, 0.9, 0), (10, 0.99, 0), (25, 0.9, 0), (50, 0.9, 0),
        (50, 0.99, 0), (100, 0.9, 0), (100, 0.99, 0), (200, 0.99, 0),
        (10, 0.9, 30), (10, 0.9, 150)]
    for name, factory in (("cached", None), ("plain", plain)):
        seconds = 0.0
        for shape in shapes:
            warmed = Session(session.video, session.scoring,
                             config=session.config)
            warmed.adopt_phase1(entry)
            executor = QueryExecutor(warmed, confirm_oracle=factory)
            for other in shapes:
                if other != shape:
                    executor.execute(shape_plan(warmed, other))
            plan = shape_plan(warmed, shape)
            seconds += timed_call(executor.execute, plan)[1]
        metrics[f"phase2_first_run_warmed_{name}_us_per_query"] = \
            seconds / len(shapes) * 1e6

    relation = entry.relation
    rounds = 200

    def state_setup():
        """The joint CDF's vectors, the selector and the scores a
        query keeps beside the relation it reads in place."""
        for _ in range(rounds):
            TopKCleaner(relation, None)

    def window_fetch():
        for _ in range(rounds):
            entry.window_relation(window_size=30, floor=0.0, step=0.25)

    window_fetch()  # derived on first use; the fetch is what repeats
    benchmark.pedantic(state_setup, rounds=1, iterations=1)
    metrics["phase2_state_setup_us_per_query"] = \
        timed_call(state_setup)[1] / rounds * 1e6
    metrics["phase2_window_relation_fetch_us_per_query"] = \
        timed_call(window_fetch)[1] / rounds * 1e6
    write_bench_result("micro_kernels", scale=scale_label(), **metrics)
    print()
    for name, value in metrics.items():
        print(f"{name:48s} {value:10.1f}")
    assert len(metrics) == 9


def test_phase2_query_start(benchmark):
    """What a warm frame query pays before its first clean, with D0's
    memo (DESIGN.md §3) holding its start and without it, plus the
    kernels a cleaning iteration and a featurized block call most:
    ``top_indices`` over a 512-row scan chunk and ``extract_features``
    on a 512-frame block (recorded, not gated)."""
    session = Session(
        TrafficVideo("bench-phase2", 3_000, seed=301), counting_udf("car"),
        config=EverestConfig())
    relation = session.phase1().relation
    shapes = ((10, 0.99), (50, 0.9), (100, 0.99))
    rounds = 200

    def start():
        """Cleaner set-up, bootstrap and the iteration-0 re-sort."""
        for k, _ in shapes:
            cleaner = TopKCleaner(relation, None)
            cleaner._bootstrap(k)
            top, k_level, p_level = cleaner._answer
            cleaner.selector._resort(0, k_level, p_level)

    def start_missing():
        for _ in range(rounds):
            relation.__dict__.pop("_memo", None)
            start()

    def start_hitting():
        for _ in range(rounds):
            start()

    start_missing()  # level columns copied once, as on a warm entry
    rng = np.random.default_rng(0)
    chunk = rng.random(512)
    pixels = TrafficVideo("bench-feat", 512, seed=2).batch_pixels(
        np.arange(512))
    metrics = {
        "phase2_start_memo_miss_us_per_query":
            timed_call(start_missing)[1] / (rounds * len(shapes)) * 1e6,
        "phase2_start_memo_hit_us_per_query":
            timed_call(start_hitting)[1] / (rounds * len(shapes)) * 1e6,
        "top_indices_512_rows_us": min(
            timed_call(top_indices, chunk, 8)[1] for _ in range(500)) * 1e6,
        "extract_features_512_rows_ms": min(
            timed_call(extract_features, pixels)[1]
            for _ in range(15)) * 1e3,
    }
    benchmark.pedantic(start_hitting, rounds=1, iterations=1)
    write_bench_result("micro_kernels", scale=scale_label(), **metrics)
    print()
    for name, value in metrics.items():
        print(f"{name:48s} {value:10.1f}")
    assert metrics["phase2_start_memo_hit_us_per_query"] > 0


def test_window_clean_batch(benchmark):
    """What one batch of 8 window confirmations pays when the entry
    holds their samples (DESIGN.md §3) and when each is drawn again,
    every score a cache hit (recorded, not gated)."""
    session = Session(
        TrafficVideo("bench-phase2", 3_000, seed=301), counting_udf("car"),
        config=EverestConfig())
    entry = session.phase1()
    seed, rounds = session.config.seed, 200
    window_ids = list(range(0, 80, 10))

    def cleaner(samples):
        oracle = CachingOracle(
            session.scoring, CostModel(),
            cache=session.shared_score_cache, cost_key="oracle_confirm")
        return WindowCleaner(
            video=session.video, oracle=oracle, window_size=30, seed=seed,
            cost_model=CostModel(), samples=samples)

    hit = cleaner(entry.window_samples(
        window_size=30, seed=seed, num_frames=len(session.video)))
    fresh = cleaner({})
    hit(window_ids)  # draws the samples and fills the score cache

    def hitting():
        for _ in range(rounds):
            hit(window_ids)

    def drawing():
        for _ in range(rounds):
            fresh.samples.clear()
            fresh(window_ids)

    metrics = {
        "window_clean_8_memo_hit_us": min(
            timed_call(hitting)[1] for _ in range(5)) / rounds * 1e6,
        "window_clean_8_fresh_draw_us": min(
            timed_call(drawing)[1] for _ in range(5)) / rounds * 1e6,
    }
    benchmark.pedantic(hitting, rounds=1, iterations=1)
    write_bench_result("micro_kernels", scale=scale_label(), **metrics)
    print()
    for name, value in metrics.items():
        print(f"{name:48s} {value:10.1f}")
    assert np.array_equal(hit(window_ids), fresh(window_ids))


def _cmdn_like_mixtures(rows, components, seed=0):
    """Mixtures shaped like a traffic CMDN's output: counts of a few
    cars, component sigmas from the floor to about 2."""
    rng = np.random.default_rng(seed)
    return GaussianMixture(
        pi=rng.dirichlet(np.full(components, 0.3), rows),
        mu=rng.gamma(2.0, 1.2, size=(rows, components)) - 0.5,
        sigma=np.clip(rng.lognormal(-0.6, 0.9, (rows, components)),
                      1e-3, 4.0))


def _live_window_relation_inputs(seed=0):
    """``build_relation``'s arguments at a live window's size, as the
    Phase-1 maintainer passes them: 1 300 retained rows of a
    4 000-frame window, their pmf on a given grid, and 800 known
    scores (labelled samples), 60 of them on frames the difference
    detector dropped."""
    rng = np.random.default_rng(seed)
    frames = rng.permutation(4_000)
    ids = np.sort(frames[:1_300])
    mixtures = GaussianMixture(
        pi=np.ones((ids.size, 1)),
        mu=rng.gamma(2.0, 1.2, size=(ids.size, 1)),
        sigma=np.full((ids.size, 1), 0.8))
    known = np.concatenate((
        rng.choice(ids, size=740, replace=False), frames[1_300:1_360]))
    rng.shuffle(known)
    known_scores = dict(zip(
        known.tolist(), rng.integers(0, 12, size=known.size).astype(float)))
    grid = uncertain.grid_for(
        mixtures, floor=0.0, step=1.0,
        extra_scores=list(known_scores.values()))
    return dict(ids=ids, mixtures=mixtures, floor=0.0, step=1.0,
                known_scores=known_scores, grid=grid,
                pmf=uncertain.quantize_mixtures(mixtures, grid))


def test_phase1_frame_costs(benchmark, monkeypatch):
    """What a cold build pays per frame: render (and its split into
    scenes and noise), featurize (reference vs one sort), a live
    window's relation build, and how many renders and featurized rows
    one build does."""
    video = TrafficVideo("bench-phase1", 3_000, seed=501)

    def best_us_per_row(fn, rows, rounds=15):
        return min(timed_call(fn)[1] for _ in range(rounds)) / rows * 1e6

    block = np.arange(512)
    first = block[:_RENDER_BLOCK]
    blank = np.zeros((first.size,) + video.resolution)
    noise_only = TrafficVideo("bench-phase1", 3_000, seed=501)
    # The same render with the scenes taken as given: noise states,
    # draws, the scaled add and the clip.
    noise_only._scenes = lambda indices: blank.copy()
    metrics = {
        "phase1_render_us_per_frame": best_us_per_row(
            lambda: video.batch_pixels(block), block.size, rounds=5),
        "phase1_render_scenes_us_per_frame": best_us_per_row(
            lambda: video._scenes(first), first.size),
        "phase1_render_noise_us_per_frame": best_us_per_row(
            lambda: noise_only._render(first), first.size),
        # No workload renders one frame a call; this keeps its fixed
        # cost (a Generator and the noise states of a block) in view.
        "phase1_render_one_frame_us": best_us_per_row(
            lambda: video.pixels(1_234), 1, rounds=200),
    }
    # Quantizing one inference block, and the fresh rows of an append.
    block_mixtures = _cmdn_like_mixtures(512, 5)
    levels = QuantizationGrid(floor=0.0, step=1.0, num_levels=17)
    metrics["phase1_quantize_us_per_block"] = best_us_per_row(
        lambda: uncertain.quantize_mixtures(block_mixtures, levels), 1)
    fresh = block_mixtures.select(slice(0, 170))
    metrics["phase1_quantize_append_170_us"] = best_us_per_row(
        lambda: uncertain.quantize_mixtures(fresh, levels), 1)
    # The relation takes its pmf over: one fresh copy per round.
    arguments = _live_window_relation_inputs()
    pmfs = [arguments["pmf"].copy() for _ in range(15)]
    metrics["phase1_relation_build_us"] = best_us_per_row(
        lambda: uncertain.build_relation(**{**arguments, "pmf": pmfs.pop()}),
        1)
    for rows in (512, 170):
        pixels = video.batch_pixels(np.arange(rows))
        for name, featurize in (
                ("reference", reference_features.extract_features),
                ("one_sort", extract_features)):
            metrics[f"phase1_featurize_{name}_{rows}_us_per_row"] = \
                best_us_per_row(lambda: featurize(pixels), rows)

    featurized = []
    featurize = FeatureMDNProxy.featurize

    def counting_featurize(pixels):
        featurized.append(len(pixels))
        return featurize(pixels)

    monkeypatch.setattr(
        FeatureMDNProxy, "featurize", staticmethod(counting_featurize))
    renders = count_renders(video)
    session = Session(video, counting_udf("car"), config=EverestConfig())
    entry, seconds = timed_call(
        benchmark.pedantic, session.phase1, rounds=1, iterations=1)
    metrics["phase1_build_ms"] = seconds * 1e3
    metrics["phase1_renders_per_build"] = renders()
    metrics["phase1_featurized_rows_per_build"] = sum(featurized)
    write_bench_result("micro_kernels", scale=scale_label(), **metrics)
    print()
    for name, value in metrics.items():
        print(f"{name:48s} {value:10.1f}")
    # One render per frame; a retained row and a sampled row once each.
    assert metrics["phase1_renders_per_build"] == len(video)
    assert metrics["phase1_featurized_rows_per_build"] == len(
        set(entry.known_scores) | set(entry.diff_result.retained.tolist()))
