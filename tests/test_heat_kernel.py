import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torpam import heat_kernel as hk
from torpam.errors import DomainError

PI = math.pi


class TestSignedMod:
    def test_wraparound_examples(self):
        assert hk.signed_mod(3 * PI / 2) == pytest.approx(-PI / 2, abs=1e-15)
        # positive-remainder convention sends pi to -pi
        assert hk.signed_mod(PI) == -PI
        assert hk.signed_mod(0.3) == pytest.approx(0.3, abs=1e-15)

    @given(st.floats(-1e6, 1e6))
    def test_residue_class(self, x):
        r = float(hk.signed_mod(x))
        assert -PI <= r < PI
        k = (x - r) / (2 * PI)
        assert abs(k - round(k)) < 1e-6

    def test_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            hk.signed_mod(np.inf)


class TestTorusPoint:
    def test_normalizes_on_construction(self):
        p = hk.TorusPoint([3 * PI / 2, PI])
        assert p.coords == pytest.approx((-PI / 2, -PI))
        assert p.d == 2

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            hk.TorusPoint([np.nan])
        with pytest.raises(DomainError):
            hk.TorusPoint([[0.0, 1.0]])

    def test_interchangeable_with_arrays(self):
        p = hk.TorusPoint([0.7])
        assert float(hk.heat_kernel(1.0, p)) == float(hk.heat_kernel(1.0, [0.7]))


class TestTorusDistance:
    def test_wraparound(self):
        assert hk.torus_distance([PI - 0.1], [-PI + 0.1]) == pytest.approx(0.2, abs=1e-12)

    def test_coincident(self):
        assert hk.torus_distance([0.4, -1.0], [0.4, -1.0]) == 0.0

    def test_farthest_point(self):
        assert hk.torus_distance([0.0, 0.0], [PI, PI]) == pytest.approx(PI * math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            hk.torus_distance([0.0], [0.0, 0.0])

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=3),
           st.lists(st.floats(-10, 10), min_size=1, max_size=3))
    @settings(max_examples=50)
    def test_symmetry(self, xs, ys):
        n = min(len(xs), len(ys))
        a, b = xs[:n], ys[:n]
        assert hk.torus_distance(a, b) == pytest.approx(hk.torus_distance(b, a), abs=1e-14)


class TestGaussKernel:
    def test_origin_values(self):
        assert hk.gauss_kernel(1.0, [0.0]) == pytest.approx((2 * PI) ** -0.5)
        assert hk.gauss_kernel(2.0, [0.0, 0.0]) == pytest.approx(1 / (4 * PI))

    def test_scaling(self):
        t, x = 0.25, 0.5
        lhs = hk.gauss_kernel(t, [x])
        rhs = t ** -0.5 * hk.gauss_kernel(1.0, [x / math.sqrt(t)])
        assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            hk.gauss_kernel(0.0, [0.1])


def theta_c_image(t):
    """C_t by the image series at x = 0, at every t."""
    return float(hk.kernel_ratio(t, 0.0))


def theta_c_cosine(t):
    """C_t by the cosine series at x = 0, at every t."""
    return math.sqrt(2 * PI * t) * float(hk.heat_kernel_1d_spectral(t, 0.0))


class TestThetaC:
    def test_forms_agree(self):
        for t in (0.2, 1.0, 2 * PI, 15.0):
            assert abs(theta_c_image(t) - theta_c_cosine(t)) < 1e-12

    def test_takes_each_series_on_its_side_of_the_switch(self):
        ts = np.concatenate([np.geomspace(1e-3, 2 * PI, 50),
                             np.geomspace(6.3, 2000.0, 50)])
        for t in ts:
            if t <= hk.DEFAULT_CONFIG.t_switch:
                assert same_bits(hk.theta_c(t), theta_c_image(t))
            else:
                assert float(hk.theta_c(t)) == pytest.approx(
                    theta_c_cosine(t), rel=4.5e-16, abs=0.0)

    def test_in_band_at_half(self):
        ct = float(hk.theta_c(0.5))
        lo = max(1.0, math.sqrt(0.5 / (2 * PI)))
        hi = 1.0 + math.sqrt(0.5 / (2 * PI))
        assert lo <= ct <= hi

    def test_small_time_leading_term(self):
        t = 1e-3
        ct = float(hk.theta_c(t))
        assert ct - 1.0 <= 2.0 * math.exp(-2 * PI**2 / t) * 1.01

    def test_monotone_and_bounds(self):
        ts = np.geomspace(1e-2, 1e3, 400)
        cts = np.array([float(hk.theta_c(t)) for t in ts])
        assert np.all(np.diff(cts) >= -1e-13)
        assert np.all(cts >= np.maximum(1.0, np.sqrt(ts / (2 * PI))) - 1e-13)
        assert np.all(cts <= 1.0 + np.sqrt(ts / (2 * PI)) + 1e-13)


class TestHeatKernel:
    def test_dual_series_pointwise(self):
        a = float(hk.heat_kernel_1d_image(1.0, 0.7))
        b = float(hk.heat_kernel_1d_spectral(1.0, 0.7))
        assert abs(a - b) < 1e-12

    def test_normalization(self):
        xs = np.linspace(-PI, PI, 20001, endpoint=False)
        for t in (0.01, 0.1, 1.0, 10.0):
            vals = hk.heat_kernel(t, xs[:, None])
            assert np.sum(vals) * (2 * PI / len(xs)) == pytest.approx(1.0, abs=1e-10)

    def test_normalization_2d(self):
        n = 301
        xs = np.linspace(-PI, PI, n, endpoint=False)
        xx, yy = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        for t in (0.1, 1.0):
            vals = hk.heat_kernel(t, pts)
            assert np.sum(vals) * (2 * PI / n) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self, rng):
        ts = rng.uniform(0.05, 20, 50)
        xs = rng.uniform(-PI, PI, 50)
        a = hk.heat_kernel(ts, xs[:, None])
        b = hk.heat_kernel(ts, -xs[:, None])
        assert np.max(np.abs(a - b)) < 1e-12

    def test_semigroup(self):
        zs = np.linspace(-PI, PI, 6284, endpoint=False)
        dz = 2 * PI / len(zs)
        for (t, s) in [(0.1, 0.1), (0.1, 0.5), (0.5, 0.5)]:
            for x in (0.0, 1.1):
                conv = np.sum(hk.heat_kernel(t, (x - zs)[:, None])
                              * hk.heat_kernel(s, zs[:, None])) * dz
                assert conv == pytest.approx(float(hk.heat_kernel(t + s, [x])), abs=1e-8)

    def test_uniform_bound(self, rng):
        ts = rng.uniform(0.02, 30, 300)
        xs = rng.uniform(-PI, PI, 300)
        vals = hk.heat_kernel(ts, xs[:, None])
        bound = (1 + np.sqrt(2 * PI / ts))
        assert np.all(vals <= bound + 1e-12)

    def test_switch_band_continuity(self):
        cfg = hk.DEFAULT_CONFIG
        ts = np.linspace(cfg.t_switch / 2, 2 * cfg.t_switch, 41)
        xs = np.linspace(-PI, PI, 11)
        for t in ts:
            a = hk.heat_kernel_1d_image(t, xs)
            b = hk.heat_kernel_1d_spectral(t, xs)
            assert np.max(np.abs(a - b)) < 1e-10

    def test_rejects_t_zero(self):
        with pytest.raises(DomainError):
            hk.heat_kernel(0.0, [0.1])

    def test_log_heat_kernel(self, rng):
        ts = rng.uniform(0.05, 5.0, 40)
        xs = rng.uniform(-PI, PI, 40)
        plain = np.log(hk.heat_kernel(ts, xs[:, None]))
        stable = hk.log_heat_kernel(ts, xs[:, None])
        assert np.max(np.abs(plain - stable)) < 1e-10
        # deep underflow territory for the plain kernel
        v = float(hk.log_heat_kernel(1e-4, [PI - 1e-9]))
        assert np.isfinite(v) and v < -1e4


class TestSandwich:
    @pytest.mark.parametrize("t,x", [(0.1, [0.0]), (50.0, [PI - 1e-6, PI - 1e-6]),
                                     (1e-3, [3.0])])
    def test_spot_checks(self, t, x):
        assert hk.kernel_sandwich_check(t, x)["pass"]

    def test_large_time_ratio_growth(self):
        # at x = 0 the ratio grows like C_t^... but stays inside the bounds
        for t in (1.0, 10.0, 100.0):
            rep = hk.kernel_sandwich_check(t, [0.0])
            assert rep["pass"]


class TestThetaEps:
    def test_reference_value_eps1(self):
        # the scan maximum sits at the t -> infinity limit 2 for eps = 1
        assert hk.theta_eps(1.0, 1) == pytest.approx(2 * math.exp(2), rel=1e-6)

    def test_dimension_scaling(self):
        t1 = hk.theta_eps(1.0, 1)
        t2 = hk.theta_eps(1.0, 2)
        expected = t1 * (1 * (1 + math.sqrt(2 * PI)) + (2 * PI) ** -1)
        assert t2 == pytest.approx(expected, rel=1e-12)

    def test_flattening_bound(self):
        for d in (1, 2):
            theta = hk.theta_eps(1.0, d)
            for t in (2.0, 5.0, 10.0):
                sup = hk.flatness_sup_error(t, d, n_grid=301)
                assert sup <= theta * math.exp(-t / 2.0)


class TestIncrementBounds:
    def test_equal_times_zero(self):
        rep = hk.kernel_increment_bounds(0.5, 0.5, [0.3], [0.9], 0.5)
        assert rep["time_lhs"] == 0.0

    def test_equal_points_zero(self):
        rep = hk.kernel_increment_bounds(0.5, 0.8, [0.3], [0.3], 0.5)
        assert rep["space_lhs"] == 0.0

    def test_fitted_constant_finite(self, rng):
        worst_t, worst_s = 0.0, 0.0
        for _ in range(1000):
            t = rng.uniform(0.05, 3.0)
            tp = t + rng.uniform(1e-4, 2.0)
            x = rng.uniform(-PI, PI, 1)
            y = rng.uniform(-PI, PI, 1)
            beta = rng.uniform(0.05, 1.0)
            rep = hk.kernel_increment_bounds(t, tp, x, y, beta)
            worst_t = max(worst_t, rep["c_time"])
            worst_s = max(worst_s, rep["c_space"])
        assert np.isfinite(worst_t) and np.isfinite(worst_s)
        assert worst_t < 1e3 and worst_s < 1e3

    def test_rejects_bad_beta(self):
        with pytest.raises(DomainError):
            hk.kernel_increment_bounds(0.5, 0.8, [0.0], [0.1], 1.5)


def reference_image_sum(t, x):
    """sum_k exp(-(x + 2 pi k)^2 / 2t) / sqrt(2 pi t), term by term."""
    x = float(hk.signed_mod(x))
    acc = math.exp(-x * x / (2.0 * t))
    for k in range(1, 41):
        acc += math.exp(-((x + 2 * PI * k) ** 2) / (2.0 * t))
        acc += math.exp(-((x - 2 * PI * k) ** 2) / (2.0 * t))
    return acc / math.sqrt(2 * PI * t)


def reference_theta_c(t, form):
    """The two theta sums, adding terms until one falls below 1e-15 of the
    partial sum (at most 64)."""
    acc = 1.0
    for n in range(1, 65):
        term = 2.0 * math.exp(-2.0 * n * n * PI * PI / t if form == "s"
                              else -n * n * t / 2.0)
        acc += term
        if term < 1e-15 * acc:
            break
    return acc if form == "s" else math.sqrt(t / (2 * PI)) * acc


class TestSeriesReference:
    """The fixed-count series against the direct term-by-term loops, at
    t in [1e-3, 50] and at points within 1e-9 of +-pi."""

    @staticmethod
    def points():
        rng = np.random.default_rng(7)
        ts = np.exp(rng.uniform(math.log(1e-3), math.log(50.0), 400))
        xs = rng.uniform(-PI, PI, 400)
        xs[:100] = PI - rng.uniform(0.0, 1e-9, 100)
        xs[100:200] = -PI + rng.uniform(0.0, 1e-9, 100)
        return zip(ts, xs)

    @staticmethod
    def rtol(t, x):
        # exp(-a) inherits the rounding of its argument a = x^2 / 2t times
        # a, in both routes
        return 1e-14 + 4 * np.finfo(float).eps * x * x / (2 * t)

    def test_image_sum(self):
        for t, x in self.points():
            want = reference_image_sum(t, x)
            # results below 1e-300 may be subnormal: no relative precision
            assert abs(float(hk.heat_kernel_1d_image(t, x)) - want) \
                <= self.rtol(t, x) * want + 1e-300

    def test_kernel_ratio(self):
        for t, x in self.points():
            p = math.exp(-x * x / (2 * t)) / math.sqrt(2 * PI * t)
            if p > 1e-300:
                want = reference_image_sum(t, x) / p
                assert float(hk.kernel_ratio(t, [x])) == pytest.approx(
                    want, rel=self.rtol(t, x), abs=0.0)

    @pytest.mark.parametrize("form", ["s", "s_prime"])
    def test_theta_c(self, form):
        series = theta_c_image if form == "s" else theta_c_cosine
        for t, _ in self.points():
            if form == "s_prime" and t < COSINE_T_MIN:
                # the reference stops at 64 terms too: both would be wrong
                with pytest.raises(DomainError):
                    series(t)
                continue
            assert series(t) == pytest.approx(reference_theta_c(t, form),
                                              rel=1e-14, abs=0.0)


# the series converge within MAX_TERMS terms for t >= COSINE_T_MIN (cosine)
# and t <= IMAGE_T_MAX (image): the last term index is sqrt(2 log(1/tol)/t)
# and (sqrt(2 t log(1/tol)) + pi) / 2 pi, one term of margin on top
LOG_TOL = math.log(1.0 / hk.DEFAULT_CONFIG.tail_tol)
COSINE_T_MIN = 2.0 * LOG_TOL / (hk.MAX_TERMS - 1) ** 2
IMAGE_T_MAX = ((hk.MAX_TERMS - 1) * 2 * PI - PI) ** 2 / (2.0 * LOG_TOL)


class TestSeriesCap:
    def test_cap_times(self):
        assert 0.0174 < COSINE_T_MIN < 0.0175
        assert 2230 < IMAGE_T_MAX < 2235

    def test_cosine_refused_below(self):
        t = 0.999 * COSINE_T_MIN
        with pytest.raises(DomainError):
            hk.heat_kernel_1d_spectral(t, 0.5)
        with pytest.raises(DomainError):
            hk.heat_kernel_1d_spectral(np.array([t, 1.0]), 0.5)
        # each entry of a batch takes its own series, so a batch that
        # straddles t_switch is not refused for its smallest time
        assert np.all(np.isfinite(hk.heat_kernel(np.array([t, 10.0]),
                                                 [[0.5], [0.5]])))
        t = 1.001 * COSINE_T_MIN
        assert float(hk.heat_kernel_1d_spectral(t, 0.5)) == pytest.approx(
            float(hk.heat_kernel_1d_image(t, 0.5)), rel=1e-12, abs=1e-300)
        assert theta_c_cosine(t) == pytest.approx(theta_c_image(t), rel=1e-13)

    def test_image_refused_above(self):
        t = 1.001 * IMAGE_T_MAX
        for call in (lambda: hk.heat_kernel_1d_image(t, 0.5),
                     lambda: hk.kernel_ratio(t, [0.5]),
                     lambda: hk.kernel_ratio(t, 0.0),
                     lambda: hk.heat_kernel_1d_image(np.array([1.0, t]), 0.5)):
            with pytest.raises(DomainError):
                call()
        # theta_c takes the cosine series above t_switch
        assert np.isfinite(hk.theta_c(t))
        t = 0.999 * IMAGE_T_MAX
        assert float(hk.heat_kernel_1d_image(t, 0.5)) == pytest.approx(
            float(hk.heat_kernel_1d_spectral(t, 0.5)), rel=1e-12)


class TestDomain:
    @pytest.mark.parametrize("t", [0.5, 10.0], ids=["image", "cosine"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_x(self, t, bad):
        for x in (bad, [0.1, bad], np.array([0.1, bad]), np.array([[0.1], [bad]])):
            with pytest.raises(DomainError):
                hk.heat_kernel(t, x)
            with pytest.raises(DomainError):
                hk.heat_kernel(np.array([t, t]), x)
        one_d = hk.heat_kernel_1d_image if t < 1 else hk.heat_kernel_1d_spectral
        with pytest.raises(DomainError):
            one_d(t, bad)

    @pytest.mark.parametrize("f", [hk.heat_kernel, hk.log_heat_kernel,
                                   hk.kernel_ratio])
    @pytest.mark.parametrize("x", [[], np.array([])])
    def test_rejects_empty_point(self, f, x):
        with pytest.raises(DomainError, match="at least one coordinate"):
            f(0.5, x)

    @pytest.mark.parametrize("f", [hk.heat_kernel, hk.log_heat_kernel,
                                   hk.kernel_ratio, hk.heat_kernel_1d_image,
                                   hk.heat_kernel_1d_spectral])
    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, [1.0, 0.0]])
    def test_rejects_bad_time(self, f, t):
        with pytest.raises(DomainError):
            f(t, 0.5)


# times on both sides of t_switch, some as np.float64 (the covariance
# quadratures pass both), coordinates anywhere on the line and within 1e-9
# of +-pi
_FLOAT_TIMES = st.one_of(st.floats(1e-3, 200.0),
                         st.sampled_from([hk.DEFAULT_CONFIG.t_switch,
                                          math.nextafter(hk.DEFAULT_CONFIG.t_switch, 7.0)]))
TIMES = st.one_of(_FLOAT_TIMES, _FLOAT_TIMES.map(np.float64))
COORDINATES = st.one_of(st.floats(-10.0, 10.0),
                        st.floats(0.0, 1e-9).map(lambda e: PI - e),
                        st.floats(0.0, 1e-9).map(lambda e: -PI + e))


@st.composite
def single_points(draw):
    """(point as given, its coordinates): a float (d = 1), a list, a 1-d
    float array or a TorusPoint, d = 1..3."""
    coords = draw(st.lists(COORDINATES, min_size=1, max_size=3))
    kinds = ["list", "array", "torus"] + (["float"] if len(coords) == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "float":
        return coords[0], coords
    if kind == "array":
        return np.array(coords), coords
    if kind == "torus":
        point = hk.TorusPoint(coords)
        return point, list(point.coords)
    return coords, coords


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestScalarRoute:
    """A single point at a single time takes the scalar route; the same
    point twice in a batch takes the array route.  The bits agree."""

    @given(TIMES, single_points())
    @settings(max_examples=300, deadline=None)
    def test_evaluators_match_array_route(self, t, case):
        x, coords = case
        ts, batch = np.array([t, t]), np.array([coords, coords])
        for f in (hk.heat_kernel, hk.log_heat_kernel, hk.kernel_ratio):
            one = f(t, x)
            assert isinstance(one, np.float64)
            assert same_bits(one, f(ts, batch)[0])
        for f in (hk.heat_kernel_1d_image,) + (
                (hk.heat_kernel_1d_spectral,) if t >= COSINE_T_MIN else ()):
            assert same_bits(f(t, coords[0]), f(ts, [coords[0]] * 2)[0])

    def test_batch_straddling_switch_matches_scalar_calls(self):
        ts = np.array([0.01, 10.0])
        xs = np.array([[0.5, -2.0], [3.0, 0.25]])
        for f in (hk.heat_kernel, hk.log_heat_kernel):
            batch = f(ts, xs)
            for i in range(2):
                assert same_bits(batch[i], f(float(ts[i]), xs[i]))
        batch = hk.theta_c(ts)
        for i in range(2):
            assert same_bits(batch[i], hk.theta_c(float(ts[i])))

    @given(TIMES)
    @settings(max_examples=300, deadline=None)
    def test_theta_c_matches_array_route(self, t):
        assert same_bits(hk.theta_c(t), hk.theta_c(np.array([t, t]))[0])
