"""Counter-indexed RNG and point-process sampling.

Statistical assertions run on fixed seeds, so they are deterministic;
tolerances leave 4+ standard errors of headroom.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynmatch import (
    Rng,
    derive_seed,
    sample_exponential,
    sample_homogeneous_stream,
    thin_stream,
)

from oracles import next_below, shuffle


class TestRng:
    def test_same_seed_same_draws(self):
        a, b = Rng(123), Rng(123)
        assert [a.next_uint64() for _ in range(8)] == [
            b.next_uint64() for _ in range(8)
        ]

    def test_different_seeds_differ(self):
        assert Rng(1).uniform_block(16).tolist() != Rng(2).uniform_block(16).tolist()

    def test_uniform_in_half_open_unit(self):
        u = Rng(7).uniform_block(10_000)
        assert (u > 0.0).all() and (u <= 1.0).all()

    def test_uniform_mean_and_spread(self):
        u = Rng(99).uniform_block(200_000)
        assert abs(u.mean() - 0.5) < 0.005  # se ~ 0.00065
        assert abs(u.var() - 1 / 12) < 0.002

    def test_block_matches_scalar_draws(self):
        a, b = Rng(42), Rng(42)
        block = a.uint64_block(50)
        assert block.tolist() == [b.next_uint64() for _ in range(50)]

    def test_uniform_block_matches_scalar(self):
        a, b = Rng(42), Rng(42)
        assert a.uniform_block(20).tolist() == [b.uniform() for _ in range(20)]

    def test_peek_then_advance_equals_consume(self):
        a, b = Rng(5), Rng(5)
        peeked = a.peek_uniform_block(10)
        a.advance(10)
        assert peeked.tolist() == b.uniform_block(10).tolist()
        assert a.uniform() == b.uniform()  # counters stayed aligned

    def test_next_below_range_and_modulo_rule(self):
        a, b = Rng(3), Rng(3)
        raws = [b.next_uint64() for _ in range(100)]
        vals = [next_below(a, 7) for _ in range(100)]
        assert vals == [r % 7 for r in raws]
        assert all(0 <= v < 7 for v in vals)

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next_below(Rng(0), 0)

    def test_shuffle_is_a_permutation(self):
        rng = Rng(11)
        seq = list(range(10))
        shuffle(rng, seq)
        assert sorted(seq) == list(range(10))

    def test_shuffle_consumes_n_minus_1_draws(self):
        a, b = Rng(8), Rng(8)
        shuffle(a, list(range(6)))
        b.advance(5)
        assert a.uniform() == b.uniform()

    def test_shuffle_three_elements_uniform(self):
        # 6 orders, each should land near 1/6 over many trials
        rng = Rng(2024)
        counts = {}
        trials = 60_000
        for _ in range(trials):
            seq = [0, 1, 2]
            shuffle(rng, seq)
            key = tuple(seq)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for k, c in counts.items():
            assert abs(c / trials - 1 / 6) < 0.01, (k, c / trials)

    def test_derive_seed_is_order_and_token_sensitive(self):
        s = 77
        lanes = {
            derive_seed(s, "arrivals"),
            derive_seed(s, "decisions"),
            derive_seed(s, 0),
            derive_seed(s, 1),
            derive_seed(s, 0, 1),
            derive_seed(s, 1, 0),
        }
        assert len(lanes) == 6

    def test_derive_seed_deterministic_and_nested_lanes_distinct(self):
        assert derive_seed(5, "a", 3) == derive_seed(5, "a", 3)
        nested = {
            derive_seed(derive_seed(5, "diag", 0), "inbound"),
            derive_seed(derive_seed(5, "diag", 0), "departure"),
            derive_seed(derive_seed(5, "diag", 1), "inbound"),
            derive_seed(5, "diag", 0),
        }
        assert len(nested) == 4


class TestStreams:
    def test_sorted_within_horizon(self):
        t = sample_homogeneous_stream(2.0, 100.0, Rng(1))
        assert t.dtype == np.float64
        assert (np.diff(t) >= 0).all()
        assert t[0] > 0.0 and t[-1] <= 100.0

    def test_count_near_rate_times_horizon(self):
        # Poisson(2000): sd ~ 44.7, allow 4 sd
        s = sample_homogeneous_stream(2.0, 1000.0, Rng(17))
        assert abs(len(s) - 2000) < 180

    def test_chunking_invisible_to_the_draw_sequence(self):
        # identical seeds, wildly different horizons: the shared prefix of
        # event times must agree because the counter advances per gap used
        long = sample_homogeneous_stream(1.0, 5000.0, Rng(9))
        short = sample_homogeneous_stream(1.0, 50.0, Rng(9))
        assert long[: len(short)].tolist() == short.tolist()

    def test_draw_budget_is_events_plus_one(self):
        rng = Rng(31)
        s = sample_homogeneous_stream(1.5, 200.0, rng)
        assert rng.counter == len(s) + 1

    def test_zero_rate_empty_and_free(self):
        rng = Rng(4)
        s = sample_homogeneous_stream(0.0, 100.0, rng)
        assert len(s) == 0 and rng.counter == 0

    @pytest.mark.parametrize("rate", [-1.0, math.inf, math.nan])
    def test_bad_rates_rejected(self, rate):
        with pytest.raises(ValueError):
            sample_homogeneous_stream(rate, 10.0, Rng(0))

    def test_exponential_mean(self):
        rng = Rng(55)
        draws = [sample_exponential(4.0, rng) for _ in range(40_000)]
        assert abs(np.mean(draws) - 0.25) < 0.005  # se ~ 0.00125

    def test_exponential_rejects_bad_rate(self):
        for rate in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                sample_exponential(rate, Rng(0))

    def test_thinning_extremes_exact(self):
        s = sample_homogeneous_stream(1.0, 200.0, Rng(6))
        assert len(thin_stream(s, 0.0, Rng(1))) == 0
        assert thin_stream(s, 1.0, Rng(1)).tolist() == s.tolist()

    def test_thinning_rate(self):
        # keep-probability 0.3 of a rate-5 stream: expect ~0.3 of events
        s = sample_homogeneous_stream(5.0, 2000.0, Rng(13))
        kept = thin_stream(s, 0.3, Rng(14))
        frac = len(kept) / len(s)
        assert abs(frac - 0.3) < 0.02  # binomial se ~ 0.0046

    def test_time_varying_thinning(self):
        s = sample_homogeneous_stream(4.0, 1000.0, Rng(21))
        kept = thin_stream(s, lambda t: 1.0 if t < 500.0 else 0.0, Rng(22))
        assert (kept < 500.0).all()
        early = int((s < 500.0).sum())
        assert len(kept) == early

    def test_thin_rejects_bad_probability(self):
        s = sample_homogeneous_stream(1.0, 10.0, Rng(2))
        with pytest.raises(ValueError):
            thin_stream(s, 1.5, Rng(0))

@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**63),
    st.floats(0.1, 20.0, allow_nan=False),
    st.floats(0.0, 50.0, allow_nan=False),
)
def test_stream_invariants_property(seed, rate, horizon):
    s = sample_homogeneous_stream(rate, horizon, Rng(seed))
    t = s.tolist()
    assert t == sorted(t)
    assert all(0.0 < x <= horizon for x in t)
    # rerunning with the same seed reproduces the stream exactly
    assert sample_homogeneous_stream(rate, horizon, Rng(seed)).tolist() == t
