import copy
import math
import pickle
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from semlearn.gaussians import (
    _ASYMPTOTIC_CUTOFF,
    Gaussian1D,
    UNINFORMATIVE,
    divide,
    multiply,
    truncated_moments_above,
    truncated_moments_within,
)

from oracles import above_corrections_quad, within_corrections_quad

finite_means = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
proper_variances = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
EPS = sys.float_info.epsilon


def gaussians():
    return st.builds(Gaussian1D, finite_means, proper_variances)


class TestGaussian1D:
    def test_roundtrip_moments_to_natural(self):
        g = Gaussian1D(mean=1.7, variance=0.31)
        assert g.mean == pytest.approx(1.7, rel=1e-14)
        assert g.variance == pytest.approx(0.31, rel=1e-14)

    def test_uninformative(self):
        assert UNINFORMATIVE.precision == 0.0
        assert math.isinf(UNINFORMATIVE.variance)
        assert not UNINFORMATIVE.is_proper

    # 1e10 / 1e-300 overflows: a finite mean whose stored mean / variance is not.
    @pytest.mark.parametrize("mean,variance", [(math.inf, 1.0), (math.nan, 1.0), (1e10, 1e-300)])
    def test_rejects_mean_that_is_not_finite_over_its_variance(self, mean, variance):
        with pytest.raises(ValueError, match="mean / variance must be finite"):
            Gaussian1D(mean, variance)

    # Stored, 1 / 1e-310 would be inf: the belief would read mean 0 and variance 0.
    def test_rejects_variance_whose_precision_overflows(self):
        with pytest.raises(ValueError, match="1 / variance must be finite"):
            Gaussian1D(0.01, 1e-310)

    @pytest.mark.parametrize("variance", [0.0, -1.0, math.nan])
    def test_rejects_bad_variance(self, variance):
        with pytest.raises(ValueError):
            Gaussian1D(0.0, variance)

    @pytest.mark.parametrize("precision", [-1.0, math.nan])
    def test_from_natural_rejects_bad_precision(self, precision):
        with pytest.raises(ValueError, match="precision must be >= 0"):
            Gaussian1D.from_natural(precision, 0.0)

    @pytest.mark.parametrize("g,text", [
        (Gaussian1D(0.5, 2.0), "Gaussian1D(mean=0.5, variance=2.0)"),
        (UNINFORMATIVE, "Gaussian1D(uninformative)"),
    ])
    def test_repr(self, g, text):
        assert repr(g) == text

    def test_immutable(self):
        g = Gaussian1D(0.0, 1.0)
        with pytest.raises(AttributeError):
            g.precision = 2.0

    @pytest.mark.parametrize("g", [Gaussian1D(0.1, 0.5), Gaussian1D(-3.7, 1e-3), UNINFORMATIVE])
    def test_pickle_and_copy_are_bitwise(self, g):
        for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
            assert type(back) is Gaussian1D
            assert back.precision.hex() == g.precision.hex()
            assert back.precision_mean.hex() == g.precision_mean.hex()
        with pytest.raises(AttributeError):
            back.precision = 2.0

    @given(st.one_of(gaussians(), st.just(UNINFORMATIVE)), gaussians())
    @example(UNINFORMATIVE, Gaussian1D(0.0, 1.0))
    @example(Gaussian1D(0.1, 0.5), Gaussian1D(0.1, 0.5))
    @example(Gaussian1D(-0.0, 2.0), Gaussian1D(0.0, 2.0))
    def test_is_a_frozen_record_of_its_natural_parameters(self, g, other):
        fields = (g.precision, g.precision_mean)
        bits = tuple(x.hex() for x in fields)
        copies = [pickle.loads(pickle.dumps(g, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in (*copies, copy.copy(g), copy.deepcopy(g)):
            assert type(back) is Gaussian1D
            assert (back.precision.hex(), back.precision_mean.hex()) == bits
            assert back == g and hash(back) == hash(g)
        assert hash(g) == hash(fields)
        assert (g == other) == (fields == (other.precision, other.precision_mean))
        assert g != other or hash(g) == hash(other)
        assert g != Gaussian1D.from_natural(g.precision + 1.0, g.precision_mean)
        assert g != fields and fields != g
        for name in ("precision", "precision_mean"):
            with pytest.raises(AttributeError):
                setattr(g, name, 2.0)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert tuple(x.hex() for x in (g.precision, g.precision_mean)) == bits

    @given(finite_means, proper_variances)
    def test_roundtrip_property(self, mean, variance):
        g = Gaussian1D(mean, variance)
        assert g.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert g.variance == pytest.approx(variance, rel=1e-12)


class TestMultiplyDivide:
    def test_equal_precisions_halve_variance(self):
        g = multiply(Gaussian1D(0, 1), Gaussian1D(0, 1))
        assert g.mean == 0.0
        assert g.variance == pytest.approx(0.5)

    def test_uninformative_is_identity(self):
        g = Gaussian1D(2.5, 1.25)
        assert multiply(g, UNINFORMATIVE) == g
        assert divide(g, UNINFORMATIVE) == g

    def test_natural_parameter_addition(self):
        # precisions 0.5 + 0.25, precision-means 0.5 + 0.75, by hand
        g = multiply(Gaussian1D(1, 2), Gaussian1D(3, 4))
        assert g.mean == pytest.approx(5.0 / 3.0, abs=1e-12)
        assert g.variance == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_divide_inverts_multiply(self):
        g = divide(Gaussian1D(0, 0.5), Gaussian1D(0, 1))
        assert (g.mean, g.variance) == (pytest.approx(0.0), pytest.approx(1.0))
        h = divide(Gaussian1D(5.0 / 3.0, 4.0 / 3.0), Gaussian1D(3, 4))
        assert h.mean == pytest.approx(1.0, abs=1e-9)
        assert h.variance == pytest.approx(2.0, abs=1e-9)

    def test_divide_rejects_negative_precision(self):
        with pytest.raises(ValueError):
            divide(Gaussian1D(0, 2.0), Gaussian1D(0, 1.0))

    @given(gaussians(), gaussians())
    @example(a=Gaussian1D(0.25, 754.0), b=Gaussian1D(32.0, 0.001953125))
    def test_roundtrip_within_cancellation_bound(self, a, b):
        # Each of the four natural-parameter sums rounds once (relative error
        # <= EPS/2). Subtracting b again leaves a's precision with an absolute
        # error of about EPS * (pa + pb), i.e. relative EPS * kappa with
        # kappa = (pa + pb) / pa, and a's precision-mean with an absolute error
        # of about EPS * (|ma| + |mb|). The variance 1/p then carries relative
        # error ~EPS * kappa, and the mean m/p absolute error
        # ~EPS * ((|ma| + |mb|) / pa + kappa * |mean|). The factor 4 covers
        # the final divisions, a's own rounding and second-order terms.
        kappa = (a.precision + b.precision) / a.precision
        magnitude = (abs(a.precision_mean) + abs(b.precision_mean)) / a.precision
        back = divide(multiply(a, b), b)
        assert abs(back.mean - a.mean) <= 4 * EPS * (magnitude + kappa * abs(a.mean))
        assert abs(back.variance - a.variance) <= 4 * EPS * kappa * a.variance


@pytest.mark.parametrize("moments", [truncated_moments_within, truncated_moments_above])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_non_finite_t_is_rejected(moments, t):
    with pytest.raises(ValueError, match="t must be finite"):
        moments(t, 0.5)


class TestTruncatedWithin:
    def test_no_truncation_is_identity(self):
        v, w = truncated_moments_within(0.0, math.inf)
        assert v == 0.0
        assert w == 0.0

    def test_symmetric_interval_centered(self):
        # frozen from the quadrature oracle
        v, w = truncated_moments_within(0.0, 1.0)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert w == pytest.approx(0.708874905227, abs=1e-9)

    def test_offset_mean(self):
        v, w = truncated_moments_within(0.5, 1.0)
        assert v == pytest.approx(-0.356272884177, abs=1e-9)
        assert w == pytest.approx(0.719751849849, abs=1e-9)

    def test_sign_symmetry(self):
        v_pos, w_pos = truncated_moments_within(0.5, 1.0)
        v_neg, w_neg = truncated_moments_within(-0.5, 1.0)
        assert v_neg == -v_pos
        assert w_neg == w_pos

    def test_saturation_far_outside(self):
        v, w = truncated_moments_within(400.0, 1.0)
        assert v == pytest.approx(1.0 - 400.0)
        assert w == 1.0

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            truncated_moments_within(0.0, 0.0)

    def test_matches_quadrature_over_random_grid(self):
        rng = random.Random(123)
        for _ in range(100):
            t = rng.uniform(-5.0, 5.0)
            eps = rng.uniform(0.05, 5.0)
            v, w = truncated_moments_within(t, eps)
            v_ref, w_ref = within_corrections_quad(t, eps)
            assert v == pytest.approx(v_ref, abs=1e-6)
            assert w == pytest.approx(w_ref, abs=1e-6)


class TestTruncatedAbove:
    @pytest.mark.parametrize("t,eps", [(10.0, 0.0), (60.0, 0.3)])
    def test_inactive_far_inside(self, t, eps):
        v, w = truncated_moments_above(t, eps)
        assert v == pytest.approx(0.0, abs=1e-12)
        assert w == pytest.approx(0.0, abs=1e-12)
        # At t = 60 erfcx overflows to inf and the inactive branch returns exact zeros.
        overflows = math.isinf(erfcx((eps - t) / math.sqrt(2.0)))
        assert overflows == (t == 60.0)
        assert ((v, w) == (0.0, 0.0)) == overflows

    def test_standard_hazard_at_zero(self):
        v, w = truncated_moments_above(0.0, 0.0)
        assert v == pytest.approx(0.7978845608, abs=1e-9)
        assert w == pytest.approx(v * v, abs=1e-12)

    def test_negative_mean(self):
        v, w = truncated_moments_above(-1.0, 0.0)
        assert v == pytest.approx(1.525135276161, abs=1e-9)
        assert w == pytest.approx(0.800902334430, abs=1e-9)

    # -2e5 lies past the asymptotic cutoff, -60 before it.
    @pytest.mark.parametrize("t", [-60.0, -2e5])
    def test_deep_truncation_stays_finite(self, t):
        v, w = truncated_moments_above(t, 0.0)
        assert math.isfinite(v)
        assert v == pytest.approx(-t - 1.0 / t, rel=1e-3)
        assert 0.0 < w <= 1.0
        # w = 1 - 1/t**2 + 6/t**4 + O(t**-6). Past the cutoff the erfcx path's
        # cancellation error, up to about t**2 * EPS, is far outside this bound.
        assert w == pytest.approx(1.0 - 1.0 / t**2, abs=10.0 / t**4 + 4 * EPS)

    def test_continuous_across_the_asymptotic_cutoff(self):
        below = truncated_moments_above(-math.nextafter(_ASYMPTOTIC_CUTOFF, 0.0), 0.0)
        past = truncated_moments_above(-_ASYMPTOTIC_CUTOFF, 0.0)
        assert below[0] == pytest.approx(past[0], rel=1e-12)
        # Below the cutoff w = v * (v - alpha) cancels: v carries an error of a
        # few ulps of alpha, so w's error is a few alpha**2 * EPS.
        assert below[1] == pytest.approx(past[1], abs=10 * _ASYMPTOTIC_CUTOFF**2 * EPS)

    def test_matches_quadrature_over_random_grid(self):
        rng = random.Random(321)
        for _ in range(100):
            t = rng.uniform(-5.0, 5.0)
            eps = rng.uniform(0.0, 5.0)
            v, w = truncated_moments_above(t, eps)
            v_ref, w_ref = above_corrections_quad(t, eps)
            assert v == pytest.approx(v_ref, abs=1e-6)
            assert w == pytest.approx(w_ref, abs=1e-6)


@settings(max_examples=200)
@given(
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_w_bounds_and_variance_reduction(t, eps):
    for v, w in (truncated_moments_within(t, eps), truncated_moments_above(t, eps)):
        assert 0.0 <= w <= 1.0
        assert math.isfinite(v)
        # posterior variance 1 - w never exceeds the unit prior variance
        assert 1.0 - w <= 1.0
