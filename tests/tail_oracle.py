"""The reference for ``tailbounds.invccdf``: every applicable method
computed as its own candidate, the lower tail as the upper tail of the
negated coefficients, and the tightest finite candidate chosen with ``min``.
The moments and supports of a ``Dist`` are spelled out here, once each."""

import math

from adashield.tailbounds import (
    BERNOULLI_ENUM_MAX, DomainError, _bernoulli_exact, normal_upper_quantile,
)


def mean(d) -> float:
    if d.kind == "uniform":
        return 0.5 * (d.a + d.b)
    return d.a


def variance(d) -> float:
    if d.kind == "normal":
        return d.b
    if d.kind == "uniform":
        w = d.b - d.a
        return w * w / 12.0
    return d.a * (1.0 - d.a)


def support(d):
    if d.kind == "uniform":
        return (d.a, d.b)
    if d.kind == "bernoulli":
        return (0.0, 1.0)
    return None


def hoeffding_scale(eps: float) -> float:
    """``sqrt(-ln(eps)/2)``, the factor of the width term."""
    return math.sqrt(-math.log(eps) / 2.0)


def reference_invccdf(coeffs, c0, eps, tail="up", allow_cantelli=False):
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"tolerance must lie in [0, 1], got {eps}")
    if tail == "lo":
        r = reference_invccdf([(-c, d) for c, d in coeffs], -c0, eps, "up", allow_cantelli)
        if r is None:
            return None
        return (-r[0], r[1])
    if tail != "up":
        raise DomainError(f"tail must be 'up' or 'lo', got {tail!r}")

    m = c0 + sum(c * mean(d) for c, d in coeffs)
    var = sum(c * c * variance(d) for c, d in coeffs)
    candidates = []

    kinds = {d.kind for _, d in coeffs}

    if kinds <= {"normal"}:
        if 0.0 < eps < 1.0:
            candidates.append((m + math.sqrt(var) * normal_upper_quantile(eps), "gaussian"))
        elif eps == 1.0:
            candidates.append((-math.inf, "gaussian"))

    if kinds == {"uniform"} and len(coeffs) == 1:
        c, d = coeffs[0]
        lo, hi = sorted((c * d.a, c * d.b))
        candidates.append((hi - eps * (hi - lo) + c0, "uniform"))

    if kinds <= {"bernoulli"} and coeffs and len(coeffs) <= BERNOULLI_ENUM_MAX:
        candidates.append((_bernoulli_exact(coeffs, c0, eps), "bernoulli"))

    if all(support(d) is not None for _, d in coeffs):
        widths = sum((c * (support(d)[1] - support(d)[0])) ** 2 for c, d in coeffs)
        if eps > 0.0:
            candidates.append((m + math.sqrt(widths) * hoeffding_scale(eps), "hoeffding"))
        else:
            top = c0 + sum(max(c * support(d)[0], c * support(d)[1]) for c, d in coeffs)
            candidates.append((top, "support"))

    if eps > 0.0:
        candidates.append((m + math.sqrt(var / eps), "chebyshev"))
        if allow_cantelli:
            candidates.append((m + math.sqrt(var * (1.0 - eps) / eps), "cantelli"))

    finite = [(v, meth) for v, meth in candidates if not math.isnan(v) and v < math.inf]
    if not finite:
        return None
    return min(finite, key=lambda vm: vm[0])
