"""Copy-count arithmetic: thresholds, splits, symbol totals."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from uavplan.coding import (
    CodeSplit,
    FractionalSplit,
    fractional_split,
    optimal_split,
    recovery_threshold,
    symbol_counts,
)


class TestRecoveryThreshold:
    def test_known_values(self):
        assert recovery_threshold(1, 2) == 4
        assert recovery_threshold(1, 4) == 16
        assert recovery_threshold(2, 1) == 3
        assert recovery_threshold(1, 1) == 1

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_formula(self, s, t):
        assert recovery_threshold(s, t) == t * t * (2 * s - 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            recovery_threshold(0, 2)
        with pytest.raises(TypeError):
            recovery_threshold(1.0, 2)


class TestCodeSplit:
    def test_from_slices(self):
        split = CodeSplit.from_slices(2, 1, 2)
        assert (split.m, split.s, split.t, split.k) == (2, 1, 2, 4)

    def test_rejects_mismatched_product(self):
        with pytest.raises(ValueError, match=r"s\*t"):
            CodeSplit(m=4, s=1, t=2, k=4)

    def test_rejects_wrong_threshold(self):
        with pytest.raises(ValueError, match="k must be"):
            CodeSplit(m=4, s=2, t=2, k=5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CodeSplit(m=0, s=1, t=1, k=1)

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_factory_consistent(self, s, t):
        split = CodeSplit.from_slices(s * t, s, t)
        assert split.k == recovery_threshold(s, t)


class TestOptimalSplit:
    def test_m2_prefers_column_split(self):
        split = optimal_split(2)
        assert (split.s, split.t, split.k) == (1, 2, 4)

    def test_min_k_objective(self):
        split = optimal_split(4, objective="min_k")
        # divisor pairs of 4: (s,t) in {(4,1),(2,2),(1,4)} with k 7,12,16
        assert (split.s, split.t, split.k) == (4, 1, 7)

    def test_max_k_picks_largest_threshold(self):
        split = optimal_split(6)
        ks = {
            t: recovery_threshold(6 // t, t) for t in (1, 2, 3, 6) if 6 % t == 0
        }
        assert split.k == max(ks.values())

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            optimal_split(4, objective="best")

    def test_m1_degenerate(self):
        split = optimal_split(1)
        assert (split.s, split.t, split.k) == (1, 1, 1)


class TestFractionalSplit:
    def test_exact_when_divisible(self):
        split = fractional_split(4, 2)
        assert isinstance(split, CodeSplit)
        assert (split.s, split.t, split.k) == (2, 2, 12)

    def test_sweep_thresholds(self):
        # m=4, s from 1 to 5: the threshold walks 16 down to 6
        ks = [fractional_split(4, s).k for s in range(1, 6)]
        assert ks == [16, 12, 9, 7, 6]

    def test_rounded_when_not_divisible(self):
        split = fractional_split(4, 3)
        assert isinstance(split, FractionalSplit)
        assert split.t == pytest.approx(4 / 3)
        assert split.k == 9  # (4/3)^2 * 5 = 8.888..., nearest integer

    @given(st.integers(1, 30), st.integers(1, 30))
    def test_k_matches_rounded_formula(self, m, s):
        split = fractional_split(m, s)
        t = m / s
        assert split.k == int(math.floor(t * t * (2 * s - 1) + 0.5))


class TestSymbolCounts:
    SPLIT = CodeSplit.from_slices(2, 1, 2)

    def test_decode_total(self):
        # N=240, k=4: decode touches N^2 * k * (log2 k)^2 symbols
        counts = symbol_counts(240, self.SPLIT)
        assert counts.d_dec == pytest.approx(240**2 * 4 * 4.0)

    def test_per_copy_counts(self):
        counts = symbol_counts(240, self.SPLIT)
        assert counts.d_comm_to == pytest.approx(240**2 / 2)
        assert counts.d_comm_fr == pytest.approx(240**2 / 4)
        assert counts.d_cmp == pytest.approx(240**3 / 4)
        assert counts.d_enc == pytest.approx(240**2)

    def test_single_copy_no_log_blowup(self):
        trivial = CodeSplit.from_slices(1, 1, 1)  # k = 1, log2 k = 0
        counts = symbol_counts(10, trivial)
        assert counts.d_dec == 0.0

    def test_rejects_non_integer_dimension(self):
        with pytest.raises(ValueError):
            symbol_counts(240.5, self.SPLIT)

    @given(st.integers(1, 500))
    def test_encode_is_n_squared_per_copy(self, n):
        assert symbol_counts(n, self.SPLIT).d_enc == float(n) ** 2
