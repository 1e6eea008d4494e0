"""A lockstep grid fit is each candidate's own fit, bit for bit.

``train_proxy_grid`` trains every candidate in one minibatch loop: the
MDN heads' elementwise math and the Adam update run once for the grid
on joint buffers (DESIGN.md §3). These tests hold it to the one-candidate
fit (``train_network`` with the candidate's own seeds) and the joint
head, on crafted raws, to per-head ``MDNHead.loss_and_backward`` and to
the frozen per-head step of ``reference_mdn.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import reference_mdn

from repro import EverestConfig
from repro.config import Phase1Config
from repro.models.mdn import QUIET, MDNHead, grid_loss_and_backward
from repro.models.trainer import (
    LEARNING_RATE, TRAIN_BATCH_SIZE, _fit, proxy_family, train_proxy_grid)
from repro.video import TrafficVideo


def _theta(proxy) -> bytes:
    return proxy.network.params["theta"].tobytes()


def _sample(config: Phase1Config, num_train: int, num_holdout: int, seed):
    video = TrafficVideo("grid-eq", 1_200, seed=seed)
    family, _ = proxy_family(config, video.resolution)
    rng = np.random.default_rng(seed)
    train = rng.choice(len(video), num_train, replace=False)
    holdout = rng.choice(len(video), num_holdout, replace=False)
    return (video, family.featurize(video.batch_pixels(train)),
            video.counts[train], family.featurize(video.batch_pixels(holdout)),
            video.counts[holdout])


CONFIGS = {
    "default": (Phase1Config(), 300, 100),
    "fast": (EverestConfig.fast().phase1, 300, 100),
    "conv": (Phase1Config(cmdn_grid=((3, 16), (2, 8)), epochs=2,
                          use_feature_mdn=False), 96, 32),
    # A repeated shape, and 500 % 64 = 52: a ragged last batch.
    "repeated-ragged": (Phase1Config(
        cmdn_grid=((4, 8), (4, 8), (2, 12)), epochs=3), 500, 60),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_lockstep_grid_equals_each_candidate_alone(name):
    config, num_train, num_holdout = CONFIGS[name]
    video, train_x, train_y, holdout_x, holdout_y = _sample(
        config, num_train, num_holdout, seed=61)
    seed = 5
    grid = train_proxy_grid(
        train_x, train_y, holdout_x, holdout_y, config=config,
        input_hw=video.resolution, seed=seed)
    family, family_args = proxy_family(config, video.resolution)
    alone = []
    for i, ((g, h), history) in enumerate(
            zip(config.cmdn_grid, grid.histories)):
        proxy = family(*family_args, num_gaussians=g, num_hypotheses=h,
                       seed=seed + 31 * i)
        (losses,) = _fit(
            [proxy], train_x, train_y, epochs=config.epochs,
            batch_size=TRAIN_BATCH_SIZE, learning_rate=LEARNING_RATE,
            seeds=[seed + 7 * i])
        holdout = proxy.network.predict(proxy.inputs(holdout_x))
        nll = float(-np.mean(holdout.log_likelihood(holdout_y)))
        assert history.epoch_losses == losses, (name, i)
        assert repr(history.holdout_nll) == repr(nll), (name, i)
        alone.append(proxy)
    winner = grid.proxy
    (twin,) = [p for p, h in zip(alone, grid.histories)
               if h is grid.best_history]
    assert _theta(winner) == _theta(twin)
    # Each candidate owns its parameters again once the fit ends.
    assert winner.network.params["theta"].base is None


def _crafted_heads(rng, n):
    """Three heads (a repeated width among them) whose raws hit the
    head's edge cases: ties at the row maximum, a maximum of exactly
    +0 and -0, a logit at -inf, and a row whose log-sum-exp is not
    finite (the direct branch)."""
    heads, ys = [], []
    for g, h in ((3, 5), (5, 4), (3, 6)):
        head = MDNHead(h, g, seed=g + h)
        x = rng.normal(size=(n, h))
        head.forward(x, training=True)
        raw = head._cache[1]
        raw[0, :g] = 2.5                         # tied logits
        raw[1, :g] = [0.0] + [-1.0] * (g - 1)    # max exactly +0
        raw[2, :g] = [-0.0] + [-2.0] * (g - 1)   # max exactly -0
        raw[3, 1] = -np.inf                      # one -inf logit
        raw[4, g:2 * g] = 1e200                  # z**2 overflows: -inf rows
        raw[5, 2 * g:] = -800.0                  # sigma at the floor
        y = rng.normal(size=n)
        y[6] = y[7] = 0.0
        raw[6, g:2 * g] = 0.0                    # tied components
        heads.append(head)
        ys.append(y)
    return heads, ys


def _snapshot(head):
    return (head._cache[0].copy(), head._cache[1].copy())


@pytest.mark.parametrize("n", [1, 9, 64])
def test_grid_head_equals_each_head_alone(n):
    rng = np.random.default_rng(n)
    heads, ys = _crafted_heads(rng, max(n, 8))
    heads_n = []
    for head, y in zip(heads, ys):
        x, raw = head._cache
        head._cache = (x[:n], raw[:n])
        heads_n.append(head)
    ys = [y[:n] for y in ys]
    caches = [_snapshot(head) for head in heads_n]
    with np.errstate(**QUIET):
        for head in heads_n:
            head.zero_grads()
        joint = grid_loss_and_backward(heads_n, ys)
        joint_grads = [(head.grads["W"].tobytes(), head.grads["b"].tobytes())
                       for head in heads_n]
        for head, y, (x, raw), (loss, grad_x), grads in zip(
                heads_n, ys, caches, joint, joint_grads):
            head.zero_grads()
            head._cache = (x, raw)
            alone_loss, alone_grad_x = head.loss_and_backward(y)
            assert repr(loss) == repr(alone_loss)
            assert grad_x.tobytes() == alone_grad_x.tobytes()
            assert grads == (head.grads["W"].tobytes(),
                             head.grads["b"].tobytes())
            ref_loss, ref_grad_x, ref_W, ref_b = \
                reference_mdn.loss_and_backward(x, raw, head.params["W"], y)
            assert repr(loss) == repr(ref_loss)
            assert grad_x.tobytes() == ref_grad_x.tobytes()
            assert grads == (ref_W.tobytes(), ref_b.tobytes())
    # The crafted rows did reach the direct branch.
    assert any(not np.isfinite(loss) for loss, _ in joint) or n < 5
