"""Inverse tail bounds: exactness, dominance and scaling."""

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from adashield.tailbounds import (
    Dist, DomainError, invccdf, normal_upper_quantile,
)
from tail_oracle import mean, reference_invccdf, support, variance

_STANDARD = NormalDist()


def gauss(var=1.0, mean=0.0):
    return Dist("normal", mean, var)


def _tail(z):
    return 0.5 * math.erfc(z / math.sqrt(2.0))


class TestErfinv:
    """The Gaussian quantile, which replaced an ``erfinv``-based one."""

    def test_zero(self):
        assert normal_upper_quantile(0.5) == 0.0

    def test_against_scipy(self):
        eps = np.concatenate([np.logspace(-300, -1, 3001), np.linspace(0.1, 1 - 1e-9, 2001)])
        ours = np.array([normal_upper_quantile(float(e)) for e in eps])
        ref = -special.ndtri(eps)
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13

    def test_roundtrip_residual(self):
        # the tail at the quantile is within eps, and only just
        rng = np.random.default_rng(1)
        for eps in rng.uniform(1e-7, 1 - 1e-7, 5000):
            assert 0.0 <= eps - _tail(normal_upper_quantile(eps)) <= 1e-12

    def test_odd_symmetry(self):
        rng = np.random.default_rng(2)
        for eps in rng.uniform(1e-3, 0.5, 1000):
            assert abs(normal_upper_quantile(1.0 - eps) + normal_upper_quantile(eps)) <= 1e-12

    def test_domain(self):
        for eps in (0.0, 1.0, -1.5, 1.5, math.nan):
            with pytest.raises(ValueError):
                normal_upper_quantile(eps)

    def test_normal_quantile(self):
        # the 97.5% quantile of the standard normal
        assert abs(normal_upper_quantile(0.025) - 1.959963984540054) < 1e-12

    @settings(max_examples=2000, deadline=None)
    @given(log_eps=st.floats(math.log(5e-324), math.log1p(-1e-9)))
    def test_sound_at_every_tolerance(self, log_eps):
        eps = max(math.exp(log_eps), 5e-324)
        z = normal_upper_quantile(eps)
        assert _tail(z) <= eps
        # one float less is not sound, unless the start was already above
        assert _tail(math.nextafter(z, -math.inf)) > eps or z == -_STANDARD.inv_cdf(eps)

    def test_tiny_tolerances(self):
        # below 5.6e-17, 1 - 2*eps rounds to 1 and an erfinv-based quantile
        # has no value; at 1e-16 it gave a tail of 1.11*eps
        for eps in (5e-324, 1e-300, 1e-17, 1e-16, 1e-9):
            z = normal_upper_quantile(eps)
            assert math.isfinite(z) and _tail(z) <= eps


class TestExactCases:
    def test_gaussian_median(self):
        v, m = invccdf([(1.0, gauss())], 0.0, 0.5)
        assert v == 0.0 and m == "gaussian"

    def test_uniform_shift(self):
        # P_{X~U(0,1)}(X + 1 > 2 - eps) = eps, for every eps in [0, 1]
        for eps in (0.0, 0.1, 0.5, 1.0):
            v, m = invccdf([(1.0, Dist("uniform", 0, 1))], 1.0, eps)
            assert abs(v - (2.0 - eps)) < 1e-15
            assert m == "uniform"

    def test_bernoulli_threshold(self):
        v, _ = invccdf([(1.0, Dist("bernoulli", 0.3))], 0.0, 0.4)
        assert v == 0.0
        v, _ = invccdf([(1.0, Dist("bernoulli", 0.3))], 0.0, 0.2)
        assert v == 1.0

    def test_bernoulli_average(self):
        # mean of n i.i.d. B(p) exceeds 0 unless all are 0
        n, p = 5, 0.1
        coeffs = [(1.0 / n, Dist("bernoulli", p))] * n
        crit = 1 - (1 - p) ** n
        v, _ = invccdf(coeffs, 0.0, crit + 1e-12)
        assert v == 0.0
        v, _ = invccdf(coeffs, 0.0, crit - 1e-12)
        assert v == pytest.approx(1.0 / n)

    def test_bernoulli_small_masses_are_kept(self):
        # P(X > 0) = 1e-20 > eps: subtracting the masses from 1.0 loses the
        # 1e-20 and cut at 0, which is unsound; summing from the top keeps it
        v, m = invccdf([(1.0, Dist("bernoulli", 1e-20))], 0.0, 5e-21)
        assert (v, m) == (1.0, "bernoulli")
        v, _ = invccdf([(1.0, Dist("bernoulli", 1e-20))], 0.0, 1e-20)
        assert v == 0.0

    def test_two_evidence_compliance(self):
        # two supportive boolean observations with false-positive rate 1e-4
        # certify a strictly positive lower bound at tolerance 1e-8
        coeffs = [(-0.5, Dist("bernoulli", 1e-4))] * 2
        v, m = invccdf(coeffs, 1.0, 1e-8, tail="lo")
        assert v == 0.5 and m == "bernoulli"
        v, _ = invccdf(coeffs, 1.0, 1e-9, tail="lo")
        assert v == 0.0


class TestConcentration:
    def test_hoeffding_value(self):
        # 100-fold average of U(-0.3, 0.3), eps = 1e-4:
        # 0.06 * sqrt(ln(1e4)/2) = 0.128757961...
        coeffs = [(0.01, Dist("uniform", -0.3, 0.3))] * 100
        v, m = invccdf(coeffs, 0.0, 1e-4)
        assert m == "hoeffding"
        assert abs(v - 0.12875796157736086) < 1e-12

    def test_hoeffding_at_subnormal_tolerance(self):
        # ln(1/eps) overflows for eps below 5.6e-309; -ln(eps) does not
        v, m = invccdf([(0.5, Dist("uniform", -0.3, 0.3))] * 2, 0.0, 1e-310)
        assert m == "hoeffding" and v == pytest.approx(
            math.sqrt(0.18) * math.sqrt(-math.log(1e-310) / 2.0), rel=1e-12)

    def test_hoeffding_beats_chebyshev_small_eps(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(1, 12)
            w = rng.random(n) + 1e-3
            w /= w.sum()
            half = rng.uniform(0.1, 2.0)
            coeffs = [(wi, Dist("uniform", -half, half)) for wi in w]
            for eps in (0.05, 0.01, 1e-4):
                hoeff = _method_value(coeffs, eps, "hoeffding")
                cheb = _method_value(coeffs, eps, "chebyshev")
                assert hoeff <= cheb

    def test_inverse_sqrt_n_scaling(self):
        # uniform weights: both bounds scale exactly as 1/sqrt(n)
        for n in (4, 25, 100):
            for method in ("hoeffding", "chebyshev"):
                v1 = _method_value(
                    [(1.0 / n, Dist("uniform", -0.3, 0.3))] * n, 0.01, method)
                v4 = _method_value(
                    [(1.0 / (4 * n), Dist("uniform", -0.3, 0.3))] * (4 * n), 0.01, method)
                assert abs(v4 / v1 - 0.5) < 1e-9

    def test_mixed_families_fall_back(self):
        coeffs = [(1.0, gauss()), (1.0, Dist("uniform", -1, 1))]
        v, m = invccdf(coeffs, 0.0, 0.01)
        assert m == "chebyshev"
        coeffs = [(1.0, Dist("bernoulli", 0.4)), (1.0, Dist("uniform", -1, 1))]
        v, m = invccdf(coeffs, 0.0, 0.01)
        assert m == "hoeffding"

    def test_cantelli_switch(self):
        coeffs = [(1.0, gauss()), (1.0, Dist("uniform", -1, 1))]
        v_plain, m_plain = invccdf(coeffs, 0.0, 0.01)
        v_cant, m_cant = invccdf(coeffs, 0.0, 0.01, allow_cantelli=True)
        assert m_plain == "chebyshev" and m_cant == "cantelli"
        assert v_cant < v_plain

    def test_eps_zero_bounded_support(self):
        v, m = invccdf([(0.5, Dist("uniform", -0.3, 0.3))] * 2, 0.0, 0.0)
        assert v == pytest.approx(0.3)
        assert m == "support"

    def test_eps_zero_gaussian_has_no_bound(self):
        assert invccdf([(1.0, gauss())], 0.0, 0.0) is None

    def test_lower_tail_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            coeffs = [(rng.uniform(-2, 2), gauss(rng.uniform(0.1, 2)))
                      for _ in range(rng.integers(1, 5))]
            eps = rng.uniform(0.001, 0.3)
            up, _ = invccdf(coeffs, 0.0, eps, tail="up")
            lo, _ = invccdf([(-c, d) for c, d in coeffs], 0.0, eps, tail="lo")
            assert abs(up + lo) < 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            invccdf([(1.0, gauss())], 0.0, 1.5)
        with pytest.raises(DomainError):
            invccdf([(1.0, gauss())], 0.0, -0.1)


def _method_value(coeffs, eps, method):
    m = sum(c * mean(d) for c, d in coeffs)
    if method == "hoeffding":
        widths = sum((c * (support(d)[1] - support(d)[0])) ** 2 for c, d in coeffs)
        return m + math.sqrt(widths) * math.sqrt(math.log(1.0 / eps) / 2.0)
    var = sum(c * c * variance(d) for c, d in coeffs)
    return m + math.sqrt(var / eps)


class TestDist:
    @pytest.mark.parametrize("kind, a, b", [
        ("normal", 0.0, -1e-300), ("uniform", 1.0, 0.5), ("bernoulli", -0.1, 0.0),
        ("bernoulli", 1.5, 0.0), ("bernoulli", math.nan, 0.0), ("cauchy", 0.0, 1.0)])
    def test_rejected_on_construction(self, kind, a, b):
        with pytest.raises(ValueError):
            Dist(kind, a, b)

    def test_boundaries_accepted(self):
        d = Dist("normal", 1.0, 0.0)
        assert (d.kind, d.a, d.b) == ("normal", 1.0, 0.0)
        d = Dist("uniform", 2.0, 2.0)
        assert (d.kind, d.a, d.b) == ("uniform", 2.0, 2.0)
        assert Dist("bernoulli", 0.0).b == 0.0 and Dist("bernoulli", 1.0).a == 1.0


def _outcome(coeffs, c0, eps, tail, cantelli, fn):
    """``fn``'s result with its value as hex, or the raised error."""
    try:
        r = fn(coeffs, c0, eps, tail, cantelli)
    except Exception as e:  # compared by type and message
        return type(e).__name__, str(e)
    return None if r is None else (float(r[0]).hex(), r[1])


_finite = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-300])
_coeff = _finite | st.sampled_from([1e200, -1e200, 1e155, math.inf, -math.inf])


@st.composite
def _dists(draw):
    kind = draw(st.sampled_from(["normal", "uniform", "bernoulli"]))
    if kind == "normal":
        return Dist(kind, draw(_finite), draw(st.floats(0.0, 1e6) | st.just(0.0)))
    if kind == "uniform":
        lo = draw(_finite)
        return Dist(kind, lo, lo + draw(st.floats(0.0, 1e6)))
    return Dist(kind, draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0, 1e-4])))


@st.composite
def _mixes(draw):
    """A family mix: all normal, all uniform, all Bernoulli or any, of up
    to 22 terms, so that the enumeration limit is crossed."""
    family = draw(st.sampled_from(["normal", "uniform", "bernoulli", "any"]))
    dist = _dists().filter(lambda d: family in ("any", d.kind))
    n = draw(st.integers(0, 22 if family == "bernoulli" else 6))
    return [(draw(_coeff), draw(dist)) for _ in range(n)]


_eps = (st.sampled_from([0.0, 1.0, 0.5, 1e-17, 5e-324, 1e-300])
        | st.floats(0.0, 1.0)
        | st.floats(-300.0, 0.0).map(lambda x: 10.0 ** x)
        | st.sampled_from([-0.1, 1.5, math.nan]))


class TestDifferential:
    """``invccdf`` against the candidate-list reference in
    ``tail_oracle``: the same value bit for bit and the same method, or the
    same raised error."""

    @settings(max_examples=600, deadline=None)
    @given(coeffs=_mixes(), c0=_finite, eps=_eps,
           tail=st.sampled_from(["up", "lo"]), cantelli=st.booleans())
    def test_equals_reference(self, coeffs, c0, eps, tail, cantelli):
        assert (_outcome(coeffs, c0, eps, tail, cantelli, invccdf)
                == _outcome(coeffs, c0, eps, tail, cantelli, reference_invccdf))

    @pytest.mark.parametrize("tail", ["up", "lo", "mid"])
    def test_edge_cases(self, tail):
        cases = [
            ([], 0.5), ([(1.0, Dist("uniform", 0.0, 1.0))], -0.0),
            ([(1e200, Dist("uniform", 0.0, 1.0)), (1.0, Dist("normal", 0.0, 1.0))], 0.0),
            ([(1e200, Dist("uniform", 0.0, 1.0))], 0.0),
            ([(1e200, Dist("bernoulli", 0.5))] * 3, 0.0),
            ([(0.0, Dist("uniform", -math.inf, math.inf))], 1.0),
            ([(math.inf, Dist("normal", 0.0, 0.0))], 0.0),
            ([(0.5, Dist("bernoulli", 0.3)), (-0.5, Dist("bernoulli", 0.3))], 0.0),
            ([(0.1, Dist("bernoulli", 0.5))] * 20, 0.0),
            ([(0.1, Dist("bernoulli", 0.5))] * 21, 0.0),
        ]
        for coeffs, c0 in cases:
            for eps in (0.0, 1e-20, 0.3, 1.0):
                for cantelli in (False, True):
                    assert (_outcome(coeffs, c0, eps, tail, cantelli, invccdf)
                            == _outcome(coeffs, c0, eps, tail, cantelli, reference_invccdf))


class TestMonteCarloSoundness:
    """Quick empirical checks; the full-scale versions run in acceptance."""

    N = 200_000

    def _empirical_tail(self, coeffs, c0, value, rng):
        total = np.full(self.N, c0)
        for c, d in coeffs:
            if d.kind == "normal":
                x = rng.normal(d.a, math.sqrt(d.b), self.N)
            elif d.kind == "uniform":
                x = rng.uniform(d.a, d.b, self.N)
            else:
                x = (rng.random(self.N) < d.a).astype(float)
            total += c * x
        return float(np.mean(total > value))

    def test_gaussian_exact_two_sided(self):
        rng = np.random.default_rng(10)
        for eps in (0.1, 0.01):
            coeffs = [(0.3, gauss()), (0.7, gauss(0.5))]
            v, m = invccdf(coeffs, 0.0, eps)
            assert m == "gaussian"
            p = self._empirical_tail(coeffs, 0.0, v, rng)
            assert abs(p - eps) <= 4 * math.sqrt(eps * (1 - eps) / self.N)

    def test_every_method_is_sound(self):
        rng = np.random.default_rng(11)
        cases = [
            ([(0.5, Dist("uniform", -1, 1)), (0.5, Dist("uniform", -2, 2))], 0.0),
            ([(1.0, Dist("bernoulli", 0.25)), (-0.5, Dist("bernoulli", 0.5))], 0.2),
            ([(0.4, gauss(2.0)), (0.6, Dist("uniform", -1, 1))], -0.3),
        ]
        for coeffs, c0 in cases:
            for eps in (0.1, 0.01):
                v, _ = invccdf(coeffs, c0, eps)
                p = self._empirical_tail(coeffs, c0, v, rng)
                assert p <= eps + 4 * math.sqrt(eps * (1 - eps) / self.N)
