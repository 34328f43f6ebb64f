import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eegintent.errors import DegenerateSample, InsufficientTrials
from eegintent.montage import default_montage
from eegintent.spectral import BandTable
from eegintent.stats import (
    TTestMap,
    band_topomaps,
    bh_fdr,
    regularized_incomplete_beta,
    render_topomap_svg,
    student_t_two_sided_p,
    topomap_csv,
    welch_t_test,
)


def t_two_sided_quad(t, df):
    """Numerical-integration oracle for the two-sided Student-t p-value."""
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    tail, _ = quad(lambda u: c * (1 + u * u / df) ** (-(df + 1) / 2), abs(t), np.inf)
    return 2 * tail


class TestStudentT:
    def test_spot_value_t2_df10(self):
        # frozen from the quadrature oracle
        assert student_t_two_sided_p(2.0, 10) == pytest.approx(0.073388034771, abs=1e-9)

    @pytest.mark.parametrize(
        "t,df",
        [(0.1, 1), (0.5, 3.7), (1.0, 8), (2.0, 10), (3.3, 25), (5.0, 60), (8.0, 200)],
    )
    def test_matches_quadrature(self, t, df):
        assert abs(student_t_two_sided_p(t, df) - t_two_sided_quad(t, df)) < 1e-8
        assert abs(student_t_two_sided_p(-t, df) - t_two_sided_quad(t, df)) < 1e-8

    def test_limits(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0
        assert student_t_two_sided_p(80.0, 30) < 1e-12

    def test_incomplete_beta_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        # I_x(1,1) = x
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_incomplete_beta_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        for a, b, x in [(2.5, 0.5, 0.2), (5.0, 0.5, 0.9), (0.7, 4.0, 0.45)]:
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestWelchTTest:
    def test_worked_example(self):
        res = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
        assert res.t == pytest.approx(-1.0, abs=1e-12)
        assert res.df == pytest.approx(8.0, abs=1e-12)
        assert res.p_two_sided == pytest.approx(0.346593507087, abs=1e-9)

    def test_identical_groups(self):
        res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p_two_sided == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSample):
            welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])

    def test_too_few_samples(self):
        with pytest.raises(InsufficientTrials):
            welch_t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_match_one_dimensional_calls(self, order):
        rng = np.random.default_rng(21)
        a = np.asarray(rng.normal(size=(9, 12)), order=order)
        b = np.asarray(rng.normal(0.5, 2.0, size=(14, 12)), order=order)
        res = welch_t_test(a, b)
        assert res.t.shape == res.df.shape == res.p_two_sided.shape == (12,)
        for k in range(12):
            one = welch_t_test(a[:, k], b[:, k])
            assert res.t[k] == one.t
            assert res.df[k] == pytest.approx(one.df, rel=1e-12)
            assert res.p_two_sided[k] == pytest.approx(one.p_two_sided, rel=1e-12)

    def test_trailing_axes_are_independent_tests(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(6, 3, 4))
        b = rng.normal(size=(5, 3, 4))
        res = welch_t_test(a, b)
        assert res.t.shape == (3, 4)
        assert res.t[2, 1] == welch_t_test(a[:, 2, 1], b[:, 2, 1]).t

    def test_degenerate_column(self):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(4, 3))
        a[:, 1] = 2.0
        b[:, 1] = 2.0
        with pytest.raises(DegenerateSample):
            welch_t_test(a, b)

    def test_trailing_shapes_must_agree(self):
        with pytest.raises(ValueError):
            welch_t_test(np.zeros((4, 3)), np.ones((4, 2)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=rng.integers(2, 12))
        b = rng.normal(1.0, 2.0, size=rng.integers(2, 12))
        fwd = welch_t_test(a, b)
        rev = welch_t_test(b, a)
        assert fwd.t == pytest.approx(-rev.t, rel=1e-12)
        assert fwd.df == pytest.approx(rev.df, rel=1e-12)
        assert fwd.p_two_sided == pytest.approx(rev.p_two_sided, rel=1e-10)


class TestBhFdr:
    def test_all_rejected(self):
        adjusted, reject = bh_fdr(np.array([0.01, 0.02, 0.03, 0.04]), alpha=0.05)
        assert np.allclose(adjusted, 0.04)
        assert reject.all()

    def test_none_rejected(self):
        adjusted, reject = bh_fdr(np.array([0.2, 0.5, 0.9]), alpha=0.05)
        assert np.allclose(adjusted, [0.6, 0.75, 0.9])
        assert not reject.any()

    def test_extremes(self):
        adjusted, reject = bh_fdr(np.array([0.0, 1.0]), alpha=0.05)
        assert list(reject) == [True, False]
        assert adjusted[0] == 0.0 and adjusted[1] == 1.0

    def test_unsorted_input_maps_back(self):
        p = np.array([0.9, 0.01, 0.5, 0.02])
        adjusted, reject = bh_fdr(p, alpha=0.05)
        order = np.argsort(p)
        assert np.all(np.diff(adjusted[order]) >= 0)
        assert reject[1] and reject[3] and not reject[0]

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            bh_fdr(np.array([0.5, 1.2]), 0.05)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=0.2),
    )
    def test_monotone_and_dominates_bonferroni(self, p_list, alpha):
        p = np.array(p_list)
        adjusted, reject = bh_fdr(p, alpha)
        order = np.lexsort((np.arange(len(p)), p))
        assert np.all(np.diff(adjusted[order]) >= -1e-15)
        bonferroni = p * len(p) <= alpha
        assert np.all(reject[bonferroni])
        assert np.all((adjusted >= p - 1e-15) & (adjusted <= 1.0))


def toy_band_powers(rng, n_trials, n_channels=6, n_bands=5, shift=None):
    powers = rng.lognormal(mean=0.0, sigma=0.4, size=(n_trials, n_channels, n_bands))
    if shift is not None:
        powers *= shift
    return powers


class TestBandTopomaps:
    channels = default_montage().channel_names[:6]

    def test_swap_negates_t(self):
        rng = np.random.default_rng(3)
        a = toy_band_powers(rng, 20)
        b = toy_band_powers(rng, 30)
        fwd = band_topomaps(a, b, self.channels, default_montage(), BandTable(), 0.05)
        rev = band_topomaps(b, a, self.channels, default_montage(), BandTable(), 0.05)
        for m1, m2 in zip(fwd, rev):
            assert np.allclose(m1.t, -m2.t)
            assert np.allclose(m1.p_raw, m2.p_raw)
            assert np.array_equal(m1.significant, m2.significant)

    def test_insufficient_trials(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InsufficientTrials):
            band_topomaps(
                toy_band_powers(rng, 1),
                toy_band_powers(rng, 10),
                self.channels,
                default_montage(),
                BandTable(),
                0.05,
            )

    def test_planted_effect_found(self):
        rng = np.random.default_rng(8)
        shift = np.ones((6, 5))
        shift[2, 0] = 4.0  # channel 2, delta band
        correct = toy_band_powers(rng, 80)
        mis = toy_band_powers(rng, 80, shift=shift)
        maps = band_topomaps(correct, mis, self.channels, default_montage(), BandTable(), 0.05)
        delta = maps[0]
        assert delta.significant[2] and delta.t[2] > 0
        total_sig = sum(int(m.significant.sum()) for m in maps)
        assert total_sig <= 3  # planted one effect; FDR keeps the rest quiet

    def test_null_p_values_uniform(self):
        # pooled raw p-values under a true null are ~U(0,1)
        rng = np.random.default_rng(21)
        pooled = []
        for _ in range(8):
            a = toy_band_powers(rng, 40, n_channels=10)
            b = toy_band_powers(rng, 25, n_channels=10)
            maps = band_topomaps(a, b, default_montage().channel_names[:10],
                                 default_montage(), BandTable(), 0.05)
            pooled.extend(np.concatenate([m.p_raw for m in maps]))
        pooled = np.sort(pooled)
        n = len(pooled)
        assert n >= 400
        grid = (np.arange(1, n + 1)) / n
        ks = np.max(np.abs(pooled - grid))
        assert ks < 0.1


def small_map(t_values, significant):
    names = default_montage().channel_names[: len(t_values)]
    entries = [default_montage().entry(n) for n in names]
    return TTestMap(
        band="delta",
        alpha=0.05,
        channels=tuple(names),
        x=np.array([e.x for e in entries]),
        y=np.array([e.y for e in entries]),
        t=np.asarray(t_values, dtype=float),
        p_raw=np.full(len(t_values), 0.5),
        p_adjusted=np.full(len(t_values), 0.5),
        significant=np.asarray(significant, dtype=bool),
    )


class TestRendering:
    def test_all_zero_t_renders_midpoint_color(self):
        svg = render_topomap_svg(small_map(np.zeros(5), [False] * 5))
        assert svg.count('fill="#ffffff"') == 5

    def test_one_significant_one_glyph(self):
        svg = render_topomap_svg(small_map([0.0, 2.0, 0.0], [False, True, False]))
        assert svg.count(">+</text>") == 1

    def test_byte_identical(self):
        m = small_map([0.5, -1.0, 2.0, 0.0], [False, True, False, False])
        assert render_topomap_svg(m) == render_topomap_svg(m)

    def test_csv_layout(self):
        m = small_map([0.5, -1.0], [False, True])
        text = topomap_csv(m, config_hash="abc123")
        lines = text.strip().split("\n")
        assert lines[0].startswith("# band=delta")
        assert "config_hash=abc123" in lines[0]
        assert lines[1] == "channel,x,y,t,p_raw,p_adjusted,significant"
        assert len(lines) == 2 + 2
        assert lines[3].endswith(",1")
