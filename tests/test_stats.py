import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from tsattack import wilcoxon_signed_rank


def enumeration_oracle(a, b, sidedness):
    """Literal 2^n sign-pattern enumeration of the signed-rank null.

    Independent of the package implementation: ranking comes from
    scipy.stats.rankdata and the tails are counted pattern by pattern with
    integer arithmetic (ranks doubled to clear the .5 mid-ranks).
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks2 = np.rint(2.0 * rankdata(np.abs(d))).astype(int)
    w2_obs = int(ranks2[d > 0].sum())
    count_ge = 0
    count_le = 0
    for pattern in itertools.product((0, 1), repeat=n):
        w2 = sum(r for r, bit in zip(ranks2, pattern) if bit)
        count_ge += w2 >= w2_obs
        count_le += w2 <= w2_obs
    total = 2 ** n
    if sidedness == "greater":
        return count_ge / total
    if sidedness == "less":
        return count_le / total
    return min(1.0, 2.0 * min(count_ge, count_le) / total)


class TestPinnedExamples:
    def test_all_equal_is_degenerate(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0],
                                      [1.0, 2.0, 3.0, 4.0, 5.0])
        assert result.p_value == 1.0
        assert result.degenerate

    def test_five_positive_one_sided(self):
        result = wilcoxon_signed_rank([2, 3, 4, 5, 6], [1, 2, 3, 4, 5],
                                      sidedness="greater")
        assert result.p_value == 1 / 32
        assert result.method == "exact"

    def test_six_positive_two_sided(self):
        result = wilcoxon_signed_rank([2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6])
        assert result.p_value == 2 / 64

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1, 2, 3, 4], [0, 0, 0, 0])

    def test_zero_differences_dropped(self):
        # Two zero diffs dropped; the remaining 5 all positive.
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5, 6, 7],
                                      [1, 2, 2, 3, 4, 5, 6],
                                      sidedness="greater")
        assert result.n == 5
        assert result.p_value == 1 / 32

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            wilcoxon_signed_rank([1, 2, 3], [1, 2])

    @pytest.mark.parametrize("name,a,b", [
        pytest.param("a", [1, 2, 3, 4, 5, math.nan], [0] * 6, id="nan-in-a"),
        pytest.param("a", [1, 2, 3, 4, 5, math.inf], [0] * 6, id="inf-in-a"),
        pytest.param("b", [1] * 6, [0, 0, 0, 0, 0, -math.inf], id="-inf-in-b"),
        pytest.param("b", [1] * 25, [0] * 24 + [math.nan], id="nan-in-b-normal"),
    ])
    def test_non_finite_entry_rejected(self, name, a, b):
        # Rejected up front, before a NaN could reach the ranks or the
        # exact tail counts, for the exact and the normal method alike.
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
            wilcoxon_signed_rank(a, b)

    def test_unknown_sidedness(self):
        with pytest.raises(ValueError, match="sidedness"):
            wilcoxon_signed_rank([1] * 6, [0] * 6, sidedness="both")


class TestExactAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_data_matches_oracle_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 13))
        # Integer-ish data to provoke ties and mixed signs.
        a = rng.integers(-4, 5, size=n).astype(float)
        b = rng.integers(-4, 5, size=n).astype(float)
        if np.count_nonzero(a - b) < 5:
            a = a + np.where(a == b, 1.0, 0.0)
        for sidedness in ("two-sided", "greater", "less"):
            ours = wilcoxon_signed_rank(a, b, sidedness=sidedness)
            assert ours.p_value == enumeration_oracle(a, b, sidedness)

    @given(st.lists(st.integers(-3, 3), min_size=5, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_differences(self, diffs):
        d = np.asarray(diffs, dtype=float)
        if np.count_nonzero(d) < 5:
            return
        a = d
        b = np.zeros_like(d)
        for sidedness in ("two-sided", "greater", "less"):
            ours = wilcoxon_signed_rank(a, b, sidedness=sidedness)
            assert ours.p_value == enumeration_oracle(a, b, sidedness)


class TestNormalApproximation:
    def test_matches_exact_at_boundary_n(self):
        # Cross-validate the two code paths at n = 20.
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.standard_normal(20) + 0.3
            b = rng.standard_normal(20)
            for sidedness in ("two-sided", "greater", "less"):
                exact = wilcoxon_signed_rank(a, b, sidedness=sidedness,
                                             method="exact")
                approx = wilcoxon_signed_rank(a, b, sidedness=sidedness,
                                              method="normal")
                assert abs(exact.p_value - approx.p_value) <= 0.02

    def test_large_n_uses_normal(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(40) + 1.0
        b = rng.standard_normal(40)
        result = wilcoxon_signed_rank(a, b)
        assert result.method == "normal"
        assert 0.0 <= result.p_value <= 1.0

    def test_strong_shift_is_significant(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(35) + 5.0
        b = rng.standard_normal(35)
        assert wilcoxon_signed_rank(a, b).p_value < 1e-6

    def test_tie_correction_applied(self):
        # Heavy ties: many equal |d| values; p must stay within [0, 1].
        a = np.array([1.0] * 15 + [2.0] * 15)
        b = np.zeros(30)
        result = wilcoxon_signed_rank(a, b, sidedness="greater")
        assert 0.0 < result.p_value < 1e-4

    def test_one_sided_tails_complement(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal(30)
        b = rng.standard_normal(30)
        greater = wilcoxon_signed_rank(a, b, sidedness="greater").p_value
        less = wilcoxon_signed_rank(a, b, sidedness="less").p_value
        # Tails overlap by at most the continuity-corrected point mass.
        assert greater + less == pytest.approx(1.0, abs=0.05)
