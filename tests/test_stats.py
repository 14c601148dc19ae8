from __future__ import annotations

import math
import random
from itertools import product

import numpy as np
import pytest

from teamnets.stats import (
    EXACT_U_LIMIT,
    mann_whitney_u,
    midranks,
    ols,
    p_stars,
    pearson,
    t_sf,
)
from teamnets.stats import _normal_approx_u_p

from oracles import mw_exact_oracle, ols_oracle, pearson_r_oracle, t_sf_quadrature


class TestPearson:
    def test_perfect_positive(self):
        res = pearson([1, 2, 3], [2, 4, 6])
        assert res.r == 1.0
        assert res.p_two_tailed == 0.0

    def test_perfect_negative(self):
        res = pearson([1, 2, 3], [3, 2, 1])
        assert res.r == -1.0
        assert res.p_two_tailed == 0.0

    def test_symmetry(self):
        x = [0.3, 1.7, 2.2, 4.8, 5.1]
        y = [9.0, 3.5, 4.4, 1.2, 2.0]
        assert pearson(x, y).r == pytest.approx(pearson(y, x).r, abs=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(7)
        x = [rng.random() for _ in range(20)]
        y = [rng.random() for _ in range(20)]
        base = pearson(x, y).r
        shifted = pearson([3.5 * xi - 11.0 for xi in x], y).r
        assert shifted == pytest.approx(base, abs=1e-12)
        flipped = pearson([-2.0 * xi for xi in x], y).r
        assert flipped == pytest.approx(-base, abs=1e-12)

    def test_against_numpy(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(3, 40)
            x = [rng.gauss(0, 1) for _ in range(n)]
            y = [rng.gauss(0, 1) for _ in range(n)]
            assert pearson(x, y).r == pytest.approx(pearson_r_oracle(x, y), abs=1e-10)

    def test_paper_p_value(self):
        # r = 0.377 at n = 60 must give a two-tailed p near 0.003
        x, y = _dataset_with_r(0.377, 60)
        res = pearson(x, y)
        assert res.r == pytest.approx(0.377, abs=1e-9)
        assert 0.0025 <= res.p_two_tailed <= 0.0035

    def test_errors(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2])
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])
        # a non-finite value would clamp r to 1 with p = 0
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not finite"):
                pearson([1, 2, 3], [2, bad, 1])

    def test_overflowing_sums_are_undefined(self):
        # finite samples whose mean or sum of squares overflows
        with pytest.raises(ValueError, match="not finite"):
            pearson([1e308, -1e308, 0.0], [1, 2, 3])
        with pytest.raises(ValueError, match="not finite"):
            pearson([1, 2, 3], [1e308, 1e308, 0.0])

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e-140, 1e-100, 1e100, 1e150])
    def test_extreme_scales(self, scale):
        # sxx * syy under- or overflows although r is well defined
        x = [0.3, 1.7, 2.2, 4.8, 5.1]
        y = [9.0, 3.5, 4.4, 1.2, 2.0]
        base = pearson(x, y)
        res = pearson([scale * xi for xi in x], [scale * yi for yi in y])
        assert res.r == pytest.approx(base.r, abs=1e-12)
        assert res.p_two_tailed == pytest.approx(base.p_two_tailed, abs=1e-9)


def _dataset_with_r(target: float, n: int) -> tuple[list[float], list[float]]:
    """Construct (x, y) whose sample correlation is exactly the target."""
    rng = random.Random(1234)
    x = np.array([rng.gauss(0, 1) for _ in range(n)])
    z = np.array([rng.gauss(0, 1) for _ in range(n)])
    x = (x - x.mean()) / x.std()
    z = z - z.mean()
    z -= (z @ x) / (x @ x) * x  # orthogonal to x
    z /= z.std()
    y = target * x + math.sqrt(1 - target * target) * z
    return list(x), list(y)


class TestTSf:
    def test_zero_is_half(self):
        for df in (1, 2, 5, 30):
            assert t_sf(0.0, df) == 0.5

    def test_cauchy_quartile(self):
        assert t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry_identity(self):
        for df in (1, 5, 30, 58):
            for t in np.arange(-6, 6.01, 0.5):
                assert t_sf(t, df) + t_sf(-t, df) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self):
        for df in (1, 5, 30):
            values = [t_sf(t, df) for t in np.arange(-6, 6.01, 0.25)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_against_quadrature(self):
        for df in (1, 5, 30, 58):
            for t in np.arange(-6, 6.01, 0.25):
                assert t_sf(float(t), df) == pytest.approx(
                    t_sf_quadrature(float(t), df), abs=1e-8
                )

    def test_df_validation(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


class TestMannWhitney:
    def test_disjoint_samples(self):
        res = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert res.u == 0.0
        assert res.p_two_tailed == pytest.approx(0.1)
        assert res.method == "exact"

    def test_maximal_overlap(self):
        res = mann_whitney_u([1, 4], [2, 3])
        assert res.u == 2.0 == 2 * 2 / 2

    def test_paper_comparison(self):
        # a 5 vs 5 ordering with U = 15; the reported p was .68
        res = mann_whitney_u([2, 4, 6, 8, 10], [1, 3, 5, 7, 9])
        assert res.u1 == 15.0
        assert res.u == 10.0
        assert res.method == "exact"
        assert abs(res.p_two_tailed - 0.68) <= 0.02

    def test_u1_u2_sum(self):
        rng = random.Random(3)
        for _ in range(20):
            a = [rng.randint(0, 8) for _ in range(rng.randint(1, 6))]
            b = [rng.randint(0, 8) for _ in range(rng.randint(1, 6))]
            res = mann_whitney_u(a, b)
            assert res.u1 + res.u2 == len(a) * len(b)
            assert res.u == min(res.u1, res.u2)

    def test_exact_matches_enumeration_oracle(self):
        rng = random.Random(11)
        for n_a, n_b in product(range(1, 10), range(1, 10)):
            if n_a + n_b > 10:
                continue
            for _ in range(3):
                a = [rng.randint(0, 6) for _ in range(n_a)]  # small range forces ties
                b = [rng.randint(0, 6) for _ in range(n_b)]
                res = mann_whitney_u(a, b)
                u_oracle, p_oracle = mw_exact_oracle(a, b)
                assert res.method == "exact"
                assert res.u1 == u_oracle
                assert res.p_two_tailed == p_oracle

    def test_approximation_close_to_exact_6v6(self):
        # tie-free case: exhaustive over all C(12, 6) splits of distinct values
        from itertools import combinations

        values = list(range(1, 13))
        for idx in combinations(range(12), 6):
            chosen = set(idx)
            a = [values[i] for i in idx]
            b = [values[i] for i in range(12) if i not in chosen]
            exact = mann_whitney_u(a, b)
            approx_p = _normal_approx_u_p(midranks(a + b), 6, 6, exact.u1)
            assert abs(approx_p - exact.p_two_tailed) <= 0.03

    def test_large_samples_use_approximation(self):
        a = list(range(10))
        b = list(range(5, 15))
        assert len(a) + len(b) > EXACT_U_LIMIT
        assert mann_whitney_u(a, b).method == "normal-approximation"

    def test_all_identical_values(self):
        res = mann_whitney_u([5, 5, 5], [5, 5])
        assert res.p_two_tailed == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1])


class TestMidranks:
    def test_plain(self):
        assert midranks([30, 10, 20]) == [3.0, 1.0, 2.0]

    def test_ties_get_means(self):
        assert midranks([1, 2, 2, 3]) == [1.0, 2.5, 2.5, 4.0]


class TestOls:
    def test_unit_line(self):
        line = ols([0, 1], [0, 1])
        assert line.slope == 1.0
        assert line.intercept == 0.0

    def test_constant_y(self):
        line = ols([1, 2, 3], [4, 4, 4])
        assert line.slope == 0.0
        assert line.intercept == 4.0

    def test_exact_line(self):
        line = ols([1, 2, 3], [0.2, 0.4, 0.6])
        assert line.slope == pytest.approx(0.2, abs=1e-12)

    def test_against_numpy(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 30)
            x = [rng.gauss(0, 2) for _ in range(n)]
            y = [rng.gauss(1, 3) for _ in range(n)]
            if len(set(x)) < 2:
                continue
            line = ols(x, y)
            slope, intercept = ols_oracle(x, y)
            assert line.slope == pytest.approx(slope, abs=1e-10)
            assert line.intercept == pytest.approx(intercept, abs=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            ols([1], [1])
        with pytest.raises(ValueError):
            ols([2, 2, 2], [1, 2, 3])


class TestStars:
    @pytest.mark.parametrize(
        "p,expected",
        [(0.051, ""), (0.05, ""), (0.049, "*"), (0.01, "*"), (0.0099, "**"), (None, "")],
    )
    def test_legend(self, p, expected):
        assert p_stars(p) == expected
