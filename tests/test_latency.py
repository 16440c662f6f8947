"""Latency histogram: bucket math, percentiles, merge, serialization.

The histogram backs the open-loop traffic layer's identity contracts
(time wheel vs heap, checkpoint/restore, serial vs --jobs), so beyond the
usual unit checks these tests pin the *exactness* properties: integer
bucket indices, deterministic percentiles, byte-stable state dicts.
"""

import json

import pytest
from hypothesis import given, strategies as st

from repro.stats.latency import (LatencyHistogram, SUB_BUCKETS,
                                 bucket_bounds, bucket_index)


class TestBucketMath:
    def test_small_values_get_exact_buckets(self):
        for v in range(SUB_BUCKETS):
            assert bucket_index(v) == v
            assert bucket_bounds(bucket_index(v)) == (v, v)

    def test_indices_monotone_nondecreasing(self):
        idxs = [bucket_index(v) for v in range(4096)]
        assert idxs == sorted(idxs)

    @given(st.integers(0, 2 ** 40))
    def test_value_lands_inside_its_bounds(self, v):
        low, high = bucket_bounds(bucket_index(v))
        assert low <= v <= high

    @given(st.integers(SUB_BUCKETS, 10_000))
    def test_relative_error_bounded(self, v):
        # Log-linear layout: any bucket's width is <= value / SUB_BUCKETS,
        # which is what bounds percentile rounding error at 1/16.
        low, high = bucket_bounds(bucket_index(v))
        assert (high - low + 1) * SUB_BUCKETS <= 2 * (low + 1)

    def test_bounds_tile_without_gaps(self):
        prev_high = -1
        for idx in range(200):
            low, high = bucket_bounds(idx)
            if idx <= SUB_BUCKETS:
                # 0..15 exact, then the first octave bucket restates 16.
                assert low in (idx, SUB_BUCKETS)
            else:
                assert low == prev_high + 1
            assert high >= low
            prev_high = high


class TestRecordAndQuery:
    def test_empty_percentile_is_none(self):
        assert LatencyHistogram().percentile(0.5) is None
        assert LatencyHistogram().percentiles() == {}

    def test_quantile_out_of_range_raises(self):
        h = LatencyHistogram()
        h.record(5)
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                h.percentile(q)

    def test_exact_small_percentiles(self):
        h = LatencyHistogram()
        for v in range(1, 11):        # 1..10, all in exact buckets
            h.record(v)
        assert h.percentile(0.5) == 5
        assert h.percentile(1.0) == 10
        assert h.percentile(0.0) == 1

    def test_percentile_never_exceeds_max(self):
        h = LatencyHistogram()
        h.record(1000)                # bucket upper bound is > 1000
        assert h.percentile(0.999) == 1000

    def test_negative_clamps_to_zero(self):
        h = LatencyHistogram()
        h.record(-7)
        assert h.min == 0 and h.max == 0 and h.sum == 0

    def test_mean_min_max(self):
        h = LatencyHistogram()
        for v in (2, 4, 9):
            h.record(v)
        assert h.mean == 5.0
        assert (h.min, h.max, h.total) == (2, 9, 3)
        assert LatencyHistogram().mean == 0.0

    def test_merge_equals_recording_into_one(self):
        a, b, both = (LatencyHistogram() for _ in range(3))
        for v in (1, 5, 300):
            a.record(v)
            both.record(v)
        for v in (2, 5, 70_000):
            b.record(v)
            both.record(v)
        a.merge(b)
        assert a == both

    def test_merge_empty_is_identity(self):
        h = LatencyHistogram()
        h.record(42)
        before = h.state_dict()
        h.merge(LatencyHistogram())
        assert h.state_dict() == before


class TestIdentityAndState:
    def test_eq_and_ne(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(10)
        b.record(10)
        assert a == b
        b.record(11)
        assert a != b
        assert a.__eq__(object()) is NotImplemented

    def test_state_roundtrip(self):
        h = LatencyHistogram()
        for v in (0, 3, 17, 1024, 999_999):
            h.record(v)
        assert LatencyHistogram.from_state(h.state_dict()) == h

    def test_state_json_byte_stable(self):
        # Same samples in a different order -> identical JSON: the
        # sorted bucket list is what makes divergence dumps diffable.
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in (5, 900, 33):
            a.record(v)
        for v in (33, 5, 900):
            b.record(v)
        assert (json.dumps(a.state_dict(), sort_keys=True)
                == json.dumps(b.state_dict(), sort_keys=True))

    @given(st.lists(st.integers(0, 2 ** 24), max_size=40))
    def test_property_roundtrip_any_samples(self, values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        blob = json.dumps(h.state_dict())
        assert LatencyHistogram.from_state(json.loads(blob)) == h
