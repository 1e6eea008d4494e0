"""The in-house normal CDF is SciPy's, bit for bit (DESIGN.md §3).

``core.uncertain._ndtr`` ports Cephes' ``ndtr`` / ``erf`` / ``erfc`` —
the code ``scipy.special.ndtr`` runs for a float64 — so that
``import repro`` loads no SciPy while every pmf keeps its bytes.
SciPy is the oracle here, and only here:

* a dense sweep of ulps around every branch edge (``|x| = sqrt(1/2)``,
  1, 8 and ``sqrt(MAXLOG)``, with ``x = a / sqrt 2``), random draws at
  several scales, the special values, and Hypothesis floats;
* the ``exp`` route: the real part of NumPy's complex ``exp`` is the C
  library's ``exp`` (``math.exp``) over the whole range the port feeds
  it, ``[-MAXLOG, 0]`` — NumPy's real ``exp`` is not;
* ``quantize_mixtures`` calls the port once, on distinct values only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtr

from repro.core import uncertain
from repro.core.uncertain import _MAXLOG, _exp, _ndtr, quantize_mixtures
from repro.models import GaussianMixture


def _same_bits(ours: np.ndarray, theirs: np.ndarray) -> bool:
    return ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("edge", [
    math.sqrt(0.5), 1.0, 8.0, math.sqrt(_MAXLOG)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ndtr_equals_scipy_around_every_branch_edge(edge, sign):
    centre = sign * edge * math.sqrt(2.0)
    ulps = np.arange(-20_000, 20_001) * np.spacing(centre)
    wide = np.linspace(-1e-3, 1e-3, 40_001) * abs(centre)
    for a in (centre + ulps, centre + wide):
        assert _same_bits(_ndtr(a), ndtr(a))


@pytest.mark.parametrize("scale", [0.3, 1.0, 3.0, 10.0, 40.0])
def test_ndtr_equals_scipy_on_random_draws(scale):
    a = np.random.default_rng(int(scale * 10)).normal(0.0, scale, 200_000)
    assert _same_bits(_ndtr(a), ndtr(a))


def test_ndtr_equals_scipy_on_specials():
    tiny = np.finfo(np.float64).tiny
    specials = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3,
        1e300, -1e300, np.finfo(np.float64).max, np.finfo(np.float64).min,
        37.5, -37.5, 37.519379347, -37.519379347, 38.0, -38.0,
        1e-8, -1e-8, 2.0, -2.0, 3.0, -3.0])
    assert _same_bits(_ndtr(specials), ndtr(specials))
    assert _same_bits(_ndtr(np.linspace(-60, 60, 400_001)),
                      ndtr(np.linspace(-60, 60, 400_001)))
    for shaped in (np.array(1.5), np.empty(0), np.ones((3, 0, 2)),
                   np.linspace(-4, 4, 24).reshape(2, 3, 4)):
        assert _same_bits(_ndtr(shaped), ndtr(shaped))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_ndtr_equals_scipy_on_any_float(a):
    assert _same_bits(_ndtr(a), ndtr(a))


def test_the_exp_route_is_the_c_librarys_exp():
    rng = np.random.default_rng(5)
    x = np.concatenate([
        -np.linspace(0.0, _MAXLOG, 400_001),
        -rng.random(200_000) * _MAXLOG,
        [-0.0, -_MAXLOG, -np.spacing(0.0)]])
    libm = np.array([math.exp(v) for v in x.tolist()])
    assert _exp(x).tobytes() == libm.tobytes()


def test_quantize_evaluates_the_cdf_once_on_distinct_values(monkeypatch):
    rng = np.random.default_rng(11)
    pi = rng.random((512, 5)) + 0.05
    mixtures = GaussianMixture(
        pi=pi / pi.sum(axis=1, keepdims=True),
        mu=rng.random((512, 5)) * 14.0,
        sigma=rng.random((512, 5)) * 2.0 + 0.05)
    grid = uncertain.grid_for(mixtures, floor=0.0, step=1.0)
    calls = []

    def spy(values):
        calls.append(values.copy())
        return _ndtr(values)

    monkeypatch.setattr(uncertain, "_ndtr", spy)
    quantize_mixtures(mixtures, grid)
    (values,) = calls
    edges = 512 * 5 * (grid.num_levels + 1)
    assert np.sort(values).tobytes() == np.unique(values).tobytes()
    assert values.size < edges / 2
