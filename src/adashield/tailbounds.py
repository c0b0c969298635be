"""Inverse tail bounds for linear combinations of independent noise variables.

Given ``expr = c0 + sum_i c_i * X_i`` and a tolerance ``eps``, ``invccdf``
returns a value ``b`` with ``P(expr > b) <= eps`` (upper tail) or
``P(expr < b) <= eps`` (lower tail).  Every applicable method is computed and
the smallest (tightest) finite value wins:

* ``gaussian``: exact when all variables are Gaussian,
  ``mu + sigma*z`` with ``z`` the upper eps-quantile of N(0, 1), rounded up
* ``uniform``: exact quantile for a single uniform variable
* ``bernoulli``: exact enumeration of the joint distribution
  (at most ``BERNOULLI_ENUM_MAX`` variables)
* ``hoeffding``: all variables of bounded support,
  ``mu + sqrt(sum c_i^2 (b_i - a_i)^2) * sqrt(-ln(eps)/2)``
* ``chebyshev``: any finite-variance mix, ``mu + sigma/sqrt(eps)``

Note the Hoeffding expression is the analytic inversion of the one-sided
Hoeffding inequality ``P(S - mu > t) <= exp(-2 t^2 / sum w_i^2)``; a factor
``sqrt(.)`` around the log term is sometimes dropped in informal statements,
which does not invert the inequality.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

BERNOULLI_ENUM_MAX = 20

_SQRT2 = math.sqrt(2.0)
_STANDARD_NORMAL = NormalDist()


@functools.lru_cache(maxsize=256, typed=True)
def normal_upper_quantile(eps: float) -> float:
    """z with ``P(N(0,1) > z) <= eps``, evaluated as ``0.5*erfc(z/sqrt(2))``.

    Starts at ``-NormalDist().inv_cdf(eps)`` (Wichura's AS 241, accurate to
    a few parts in 1e13 relative down to the least positive float) and
    steps up one float at a time, a few steps at most, while the tail at z
    is still above eps, so that rounding lands on the sound side.  An agent
    picks eps, so the cache of results is bounded; a Gaussian aggregate
    asks again for the same eps on every step.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    z = -_STANDARD_NORMAL.inv_cdf(eps)
    while 0.5 * math.erfc(z / _SQRT2) > eps:
        z = math.nextafter(z, math.inf)
    return z


class Dist:
    """Concrete noise distribution: normal(mean, variance), uniform(lo, hi)
    or bernoulli(p).  Checked on construction, which raises ``ValueError``
    for an unknown kind or parameters outside its domain; not changed
    after."""

    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str, a: float, b: float = 0.0):
        if kind == "normal":
            if b < 0.0:
                raise ValueError("negative variance")
        elif kind == "uniform":
            if b < a:
                raise ValueError("empty uniform support")
        elif kind == "bernoulli":
            if not 0.0 <= a <= 1.0:
                raise ValueError("bernoulli parameter outside [0, 1]")
        else:
            raise ValueError(f"unknown distribution kind {kind!r}")
        self.kind = kind  # 'normal' | 'uniform' | 'bernoulli'
        self.a = a
        self.b = b


class DomainError(Exception):
    pass


def invccdf(coeffs: list[tuple[float, Dist]], c0: float, eps: float, tail: str = "up"):
    """Tightest available bound for ``c0 + sum c_i X_i``.

    Returns ``(value, method_name)`` or ``None`` when no method yields a
    finite value (e.g. eps = 0 with unbounded noise).  Of equal values the
    first method listed in the module docstring wins.  The lower tail is
    the negated upper tail of ``-c0 - sum c_i X_i``.
    """
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"tolerance must lie in [0, 1], got {eps}")
    if tail != "up" and tail != "lo":
        raise DomainError(f"tail must be 'up' or 'lo', got {tail!r}")
    neg = tail == "lo"
    c0 = -c0 if neg else c0

    # one pass, each sum added left to right from 0 as ``sum`` does
    mean = variance = widths = 0
    normal = uniform = bounded = 0
    overflow = None
    for c, d in coeffs:
        if neg:
            c = -c
        kind = d.kind
        if kind == "normal":
            normal += 1
            mean += c * d.a
            variance += c * c * d.b
            continue
        bounded += 1
        if kind == "uniform":
            uniform += 1
            lo, hi = d.a, d.b
            mean += c * (0.5 * (lo + hi))
            w = hi - lo
            variance += c * c * (w * w / 12.0)
        else:
            lo, hi = 0.0, 1.0
            mean += c * d.a
            variance += c * c * (d.a * (1.0 - d.a))
        try:
            widths += (c * (hi - lo)) ** 2
        except OverflowError as e:  # raised below, once every variable is bounded
            overflow = e
    mean = c0 + mean

    best = method = None
    if not bounded and eps > 0.0:
        v = (mean + math.sqrt(variance) * normal_upper_quantile(eps) if eps < 1.0
             else -math.inf)
        if v == v and v < math.inf:
            best, method = v, "gaussian"

    if not normal:
        if bounded == uniform == 1:
            c, d = coeffs[0]
            if neg:
                c = -c
            x, y = c * d.a, c * d.b
            lo, hi = (y, x) if y < x else (x, y)
            v = hi - eps * (hi - lo) + c0
            if v == v and v < math.inf and (best is None or v < best):
                best, method = v, "uniform"

        if not uniform and 0 < bounded <= BERNOULLI_ENUM_MAX:
            v = _bernoulli_exact(coeffs, c0, eps, neg)
            if v == v and v < math.inf and (best is None or v < best):
                best, method = v, "bernoulli"

        if overflow is not None:
            raise overflow
        if eps > 0.0:
            v = mean + math.sqrt(widths) * math.sqrt(-math.log(eps) / 2.0)
            m = "hoeffding"
        else:
            # eps = 0 over bounded support: the maximum of the support is sound
            top = 0
            for c, d in coeffs:
                if neg:
                    c = -c
                x, y = (c * d.a, c * d.b) if d.kind == "uniform" else (c * 0.0, c * 1.0)
                top += y if y > x else x
            v = c0 + top
            m = "support"
        if v == v and v < math.inf and (best is None or v < best):
            best, method = v, m

    if eps > 0.0:
        v = mean + math.sqrt(variance / eps)
        if v == v and v < math.inf and (best is None or v < best):
            best, method = v, "chebyshev"

    if best is None:
        return None
    return (-best if neg else best), method


def _bernoulli_exact(coeffs, c0: float, eps: float, neg: bool = False) -> float:
    """Exact inverse tail by convolving the finite joint distribution, with
    every coefficient negated if ``neg``."""
    dist = {c0: 1.0}
    for c, d in coeffs:
        if neg:
            c = -c
        p = d.a
        nxt: dict[float, float] = {}
        for value, q in dist.items():
            if p < 1.0:
                k = value
                nxt[k] = nxt.get(k, 0.0) + q * (1.0 - p)
            if p > 0.0:
                k = value + c
                nxt[k] = nxt.get(k, 0.0) + q * p
        dist = nxt
    # the largest support value first: the strict upper tail of each value
    # is summed from the top, so small masses are not lost against 1.0
    values = sorted(dist, reverse=True)
    cut = values[0]
    tail = 0.0
    for v in values:
        if tail > eps:
            break
        cut = v
        tail += dist[v]
    return cut
