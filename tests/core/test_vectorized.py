"""Tests for the vectorised piecewise-linear intersection fast path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ConstantSpeedFunction, PiecewiseLinearSpeedFunction
from repro.core.bounded import TruncatedSpeedFunction
from repro.core.comm_aware import CommAwareSpeedFunction
from repro.core.step_model import StepSpeedFunction
from repro.core.vectorized import (
    PiecewiseLinearSet,
    make_allocator,
    pack_speed_functions,
    packing_disabled,
)
from tests.conftest import make_hump_pwl, make_increasing_pwl, make_pwl


@pytest.fixture
def functions():
    return [
        make_pwl(100.0),
        make_hump_pwl(250.0),
        make_increasing_pwl(80.0),
        make_pwl(40.0, scale=3.0),
    ]


class TestPiecewiseLinearSet:
    @pytest.mark.parametrize("slope", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0])
    def test_matches_scalar_path(self, functions, slope):
        packed = PiecewiseLinearSet(functions)
        expected = np.array([sf.intersect_ray(slope) for sf in functions])
        np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-12)

    def test_total(self, functions):
        packed = PiecewiseLinearSet(functions)
        assert packed.total(1e-4) == pytest.approx(
            sum(sf.intersect_ray(1e-4) for sf in functions)
        )

    def test_mixed_knot_counts(self):
        sfs = [
            PiecewiseLinearSpeedFunction([10.0, 100.0], [50.0, 20.0]),
            make_pwl(100.0),  # 6 knots
        ]
        packed = PiecewiseLinearSet(sfs)
        for slope in [1e-4, 1e-2, 0.3, 5.0]:
            expected = np.array([sf.intersect_ray(slope) for sf in sfs])
            np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-12)

    def test_single_function(self):
        packed = PiecewiseLinearSet([make_pwl(10.0)])
        assert packed.p == 1
        assert packed.allocations(1e-4)[0] == pytest.approx(
            make_pwl(10.0).intersect_ray(1e-4)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        slope=st.floats(min_value=1e-8, max_value=1e3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_agreement(self, slope, seed):
        rng = np.random.default_rng(seed)
        sfs = []
        for _ in range(rng.integers(2, 6)):
            k = int(rng.integers(2, 7))
            xs = np.sort(rng.choice(np.arange(1, 100_000), size=k, replace=False)).astype(float)
            gs = np.sort(rng.uniform(1e-4, 1e2, size=k))[::-1]
            ss = gs * xs
            if np.any(np.diff(ss / xs) >= 0):
                continue
            sfs.append(PiecewiseLinearSpeedFunction(xs, ss))
        assume(len(sfs) >= 2)
        packed = PiecewiseLinearSet(sfs)
        expected = np.array([sf.intersect_ray(slope) for sf in sfs])
        np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-9)


class TestMakeAllocator:
    def test_fast_path_for_uniform_pwl(self, functions):
        alloc = make_allocator(functions)
        # Bound method of a PiecewiseLinearSet.
        assert getattr(alloc, "__self__", None).__class__ is PiecewiseLinearSet

    def test_generic_path_for_mixed_types(self):
        sfs = [make_pwl(10.0), ConstantSpeedFunction(5.0)]
        alloc = make_allocator(sfs)
        np.testing.assert_allclose(
            alloc(1e-3), [sf.intersect_ray(1e-3) for sf in sfs]
        )

    def test_generic_path_for_single_function(self):
        alloc = make_allocator([make_pwl(10.0)])
        assert alloc(1e-3)[0] == pytest.approx(make_pwl(10.0).intersect_ray(1e-3))

    def test_algorithms_unchanged_by_fast_path(self, functions):
        from repro import partition

        n = 1_000_000
        fast = partition(n, functions)  # uniform pwl -> fast path
        mixed = list(functions) + [ConstantSpeedFunction(1e-6, max_size=1.0)]
        # Adding a negligible constant processor forces the generic path;
        # makespan must agree (it gets ~0 or 1 elements).
        slow = partition(n, mixed)
        assert fast.makespan == pytest.approx(slow.makespan, rel=1e-3)


# ---------------------------------------------------------------------------
# Pack construction and segment search: equivalence properties
# ---------------------------------------------------------------------------

#: Every array and flag a pack derives from its rows.
_PACK_FIELDS = (
    "_xs", "_ss", "_gs", "_widths", "_seg_slope", "_seg_intercept",
    "_scale", "_alpha", "_beta", "_comm_mask", "_exact",
    "_x_knot_last", "_x_last", "_s_last", "_g_first", "_g_last", "_s_first",
    "_has_scale", "_has_comm", "_has_trunc", "_m",
)


@st.composite
def _pwl(draw, max_knots=8):
    """A random valid piecewise-linear model with 2..max_knots knots."""
    k = draw(st.integers(2, max_knots))
    x0 = draw(st.floats(1e2, 1e4))
    x_ratio = draw(st.lists(st.floats(1.2, 10.0), min_size=k - 1, max_size=k - 1))
    g_ratio = draw(st.lists(st.floats(0.05, 0.9), min_size=k - 1, max_size=k - 1))
    xs = x0 * np.cumprod([1.0, *x_ratio])
    gs = draw(st.floats(1e-3, 1.0)) * np.cumprod([1.0, *g_ratio])
    return PiecewiseLinearSpeedFunction(xs, gs * xs)


@st.composite
def _step(draw):
    """A random step model: 1..4 segments, so 1 to 7 knots with drops."""
    m = draw(st.integers(1, 4))
    b0 = draw(st.floats(1e3, 1e5))
    bs = b0 * np.cumprod([1.0, *draw(st.lists(st.floats(1.5, 20.0), min_size=m - 1, max_size=m - 1))])
    ss = draw(st.floats(10.0, 400.0)) * np.cumprod(
        [1.0, *draw(st.lists(st.floats(0.05, 0.9), min_size=m - 1, max_size=m - 1))]
    )
    return StepSpeedFunction(bs, ss)


@st.composite
def _constant(draw):
    speed = draw(st.floats(5.0, 300.0))
    if draw(st.booleans()):
        return ConstantSpeedFunction(speed)
    return ConstantSpeedFunction(speed, max_size=draw(st.floats(1e4, 1e7)))


@st.composite
def _member(draw):
    """One distinct model of any compiled family."""
    kind = draw(st.sampled_from(
        ["pwl", "constant", "step", "truncated", "comm", "scaled"]
    ))
    if kind == "pwl":
        return draw(_pwl())
    if kind == "constant":
        return draw(_constant())
    if kind == "step":
        return draw(_step())
    base = draw(st.one_of(_pwl(), _step(), _constant()))
    if kind == "truncated":
        last = base.max_size if np.isfinite(base.max_size) else 1e6
        return TruncatedSpeedFunction(base, last * draw(st.floats(0.05, 1.5)))
    if kind == "comm":
        return CommAwareSpeedFunction(
            base,
            startup_s=draw(st.sampled_from([0.0, 1e-5, 2e-4])),
            seconds_per_element=draw(st.sampled_from([1e-9, 3e-7, 1e-6])),
        )
    return base.scaled(draw(st.floats(0.2, 5.0)))


@st.composite
def _tiled_fleet(draw):
    """A fleet that repeats a few distinct objects in a drawn order."""
    pool = draw(st.lists(_member(), min_size=1, max_size=5))
    order = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=12))
    return [pool[i] for i in order]


def _assert_same_pack(a, b):
    for name in _PACK_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert a.fingerprint == b.fingerprint


def _assert_matches_oracle(got, want, exact_rows, ties=None):
    """Exact rows bit-identical; comm and fused-scale rows to 1e-9.

    ``ties`` marks exact rows queried at exactly one of their own knot
    ray slopes.  There a flat-run object (constant, step) computes
    ``min(b, s / c)``, and ``s / c`` (on a scaled row, ``s / (c / f)``)
    can round to an ulp or two off the knot ``b`` the pack returns;
    those entries are pinned to that deviation.
    """
    got, want = np.asarray(got), np.asarray(want)
    ties = np.zeros_like(exact_rows) if ties is None else ties & exact_rows
    strict = exact_rows & ~ties
    np.testing.assert_array_equal(got[strict], want[strict])
    gap = np.abs(got[ties] - want[ties])
    assert np.all(gap <= 2 * np.spacing(got[ties])), (
        got[ties], want[ties],
    )
    np.testing.assert_allclose(
        got[~exact_rows], want[~exact_rows], rtol=1e-9, atol=1e-9
    )


def _probe_slopes(pack):
    """Ray slopes exactly at every knot, at g_first/g_last and far outside."""
    finite = np.isfinite(pack._gs) & (pack._gs > 0)
    at_knots = (pack._gs * pack._scale[:, None])[finite]
    ends = np.concatenate([pack._g_first, pack._g_last]) * np.tile(pack._scale, 2)
    ends = ends[np.isfinite(ends) & (ends > 0)]
    outside = np.concatenate([ends * 1e6, ends * 1e-6])
    return np.unique(np.concatenate([at_knots, ends, outside]))


def _probe_sizes(pack):
    """Sizes exactly at every knot column (pads included), zero and past the bound."""
    cols = [np.where(np.isfinite(pack._xs[:, j]), pack._xs[:, j], 4e6)
            for j in range(pack._m)]
    bound = np.where(np.isfinite(pack._x_last), pack._x_last, 4e6)
    return [np.zeros(pack.p), *cols, bound, bound * 1.5]


class TestPackEquivalence:
    """A pack depends on row content only, and agrees with the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(fleet=_tiled_fleet(), data=st.data())
    def test_repeated_and_distinct_objects_pack_the_same(self, fleet, data):
        import copy

        shared = pack_speed_functions(fleet)
        distinct = pack_speed_functions([copy.deepcopy(sf) for sf in fleet])
        assert shared is not None and distinct is not None
        _assert_same_pack(shared, distinct)
        # The explicit-rows constructor packs the same arrays.
        _assert_same_pack(
            shared, PiecewiseLinearSet(fleet, rows=[sf.as_knots() for sf in fleet])
        )
        # rescaled() clones of both stay equal too (comm rows keep 1.0).
        factors = np.array(data.draw(st.lists(
            st.sampled_from([1.0, 0.5, 1.25, 3.0]),
            min_size=len(fleet), max_size=len(fleet),
        )))
        factors[shared._comm_mask] = 1.0
        _assert_same_pack(shared.rescaled(factors), distinct.rescaled(factors))

    @settings(max_examples=60, deadline=None)
    @given(fleet=_tiled_fleet(), data=st.data())
    def test_matches_the_per_object_oracle(self, fleet, data):
        pack = pack_speed_functions(fleet)
        if data.draw(st.booleans(), label="rescale"):
            factors = np.array(data.draw(st.lists(
                st.sampled_from([1.0, 0.5, 1.25, 3.0]),
                min_size=len(fleet), max_size=len(fleet),
            ), label="factors"))
            factors[pack._comm_mask] = 1.0
            pack = pack.rescaled(factors)
            fleet = [sf if f == 1.0 else sf.scaled(float(f))
                     for sf, f in zip(fleet, factors)]
        exact_rows = np.asarray(pack._exact, dtype=bool)
        # CommAwareSpeedFunction.intersect_ray bisects over [0, max_size]
        # and cannot bracket an unbounded base: it answers 0 for every
        # slope.  Its rays are left out; its speeds and times still count.
        unbracketed = np.array([
            isinstance(sf, CommAwareSpeedFunction) and not np.isfinite(sf.max_size)
            for sf in fleet
        ])
        with packing_disabled():
            oracle = make_allocator(fleet)
        slopes = _probe_slopes(pack)
        knot_slopes = pack._gs * pack._scale[:, None]
        many = pack.allocations_many(slopes)
        for i, slope in enumerate(slopes):
            one = pack.allocations(float(slope))
            np.testing.assert_array_equal(many[i], one)
            ties = np.any(knot_slopes == slope, axis=1)
            _assert_matches_oracle(
                one[~unbracketed], oracle(float(slope))[~unbracketed],
                exact_rows[~unbracketed], ties[~unbracketed],
            )
        for xs in _probe_sizes(pack):
            _assert_matches_oracle(
                pack.speeds(xs),
                [sf.speed(float(x)) for sf, x in zip(fleet, xs)],
                exact_rows,
            )
            _assert_matches_oracle(
                pack.times(xs),
                [sf.time(float(x)) for sf, x in zip(fleet, xs)],
                exact_rows,
            )

    def test_wide_batches_are_chunked_not_changed(self):
        xs = np.geomspace(1e3, 2e6, 500)
        wide = PiecewiseLinearSpeedFunction(xs, 150.0 / (1.0 + xs / 2e5))
        fleet = [wide, wide.scaled(0.5), make_pwl(100.0), wide]
        pack = pack_speed_functions(fleet)
        # More slopes than one dense (slopes x p x knots) count of at
        # most 32M elements holds.
        slopes = np.geomspace(1e-7, 1e2, 32_000_000 // (pack.p * pack._m) + 7)
        many = pack.allocations_many(slopes)
        assert many.shape == (slopes.size, pack.p)
        for i in (0, 1, slopes.size // 2, slopes.size - 8, slopes.size - 1):
            np.testing.assert_array_equal(many[i], pack.allocations(float(slopes[i])))
