"""Modified Bessel function of the first kind and one-sided stable densities.

The Bessel function has one implementation, :func:`bessel_I_scaled_arr`;
the scalar :func:`bessel_I_scaled` and :func:`bessel_I` are its
one-element case.  It switches from the ascending series (all terms
positive, no cancellation) to the large-argument asymptotic expansion at
r = max(30, gamma^2 / 8), since the expansion needs r large against
gamma^2.  Exponentially scaled and log-scaled variants serve
overflow-free use inside Gaussian products.  The stable density uses a
convergent tail series for large arguments and an integral representation
elsewhere, with a cross-validation band where the two must agree.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import NonConvergenceError, QuadratureSpec, integrate_panels

__all__ = [
    "bessel_I",
    "bessel_I_scaled",
    "bessel_I_scaled_arr",
    "one_minus_scaled_I",
    "stable_one_density",
    "stable_density",
]

_SERIES_CUT = 30.0


def bessel_I_scaled(gamma: float, r: float) -> float:
    """exp(-r) * I_gamma(r): :func:`bessel_I_scaled_arr` at one point."""
    if gamma < 0.0:
        raise ValueError("order must be >= 0")
    if r < 0.0:
        raise ValueError("argument must be >= 0")
    return float(bessel_I_scaled_arr(gamma, np.array([r], dtype=float))[0])


def bessel_I(gamma: float, r: float, log: bool = False) -> float:
    """I_gamma(r): ascending series up to the switch radius, asymptotics beyond.

    ``log=True`` returns log(I_gamma(r)), usable far past the overflow point
    of the plain value.
    """
    scaled = bessel_I_scaled(gamma, r)
    if log:
        if scaled == 0.0:
            return -math.inf
        return r + math.log(scaled)
    if r > 700.0:
        return math.inf  # plain value overflows; callers should ask for log
    return scaled * math.exp(r)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def bessel_I_scaled_arr(gamma: float, r: np.ndarray) -> np.ndarray:
    """Vectorized exp(-r) I_gamma(r); raises :class:`NonConvergenceError`
    where the series overflows or its 600 terms run out."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    small = r <= max(_SERIES_CUT, gamma * gamma / 8.0)
    if np.any(small):
        # largest arguments first: they need the most terms, so the elements
        # still summing are always a prefix rs[:k] of this order
        order = np.argsort(-r[small], kind="stable")
        rs = r[small][order]
        term = np.where(
            rs > 0.0, (0.5 * rs) ** gamma, 1.0 if gamma == 0.0 else 0.0
        ) / math.gamma(gamma + 1.0)
        total = term.copy()
        quarter = 0.25 * rs * rs
        # the running prefix views of term, quarter and total
        tk, qk, sk = term, quarter, total
        for m in range(1, 600):
            tk *= qk
            tk /= m * (gamma + m)
            sk += tk
            # tested every 8th term only.  Past term <= 1e-18 total the terms
            # fall, each below half an ulp of total, so adding them leaves
            # total as is: an element's bits do not depend on whether it
            # stops at its own test or sums on with the prefix
            if m % 8 == 0:
                still = np.flatnonzero(~(tk <= 1e-18 * sk))
                if len(still) == 0:
                    break
                k = int(still[-1]) + 1
                tk, qk, sk = term[:k], quarter[:k], total[:k]
        else:
            raise NonConvergenceError("Bessel series did not converge")
        if not np.all(np.isfinite(total)):
            raise NonConvergenceError("Bessel series overflowed")
        vals = np.empty_like(rs)
        vals[order] = total * np.exp(-rs)
        out[small] = vals
    if np.any(~small):
        rl = r[~small]
        mu = 4.0 * gamma * gamma
        term = np.ones_like(rl)
        total = np.ones_like(rl)
        # fixed 30-term truncation; past max(30, gamma^2 / 8) it is within
        # 2e-13 of scipy's ive for gamma <= 50
        for k in range(1, 31):
            term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
            term /= rl
            total += term
        out[~small] = total / np.sqrt(2.0 * math.pi * rl)
    return out


def one_minus_scaled_I(gamma: float, z: np.ndarray) -> np.ndarray:
    """1 - sqrt(2 pi z) e^(-z) I_gamma(z), stable for all z >= 0.

    For large z the direct form cancels to noise, so the asymptotic tail
    series (whose leading term is (4 gamma^2 - 1)/(8 z)) is summed instead;
    the neglected exponentially small part is below e^(-2z).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 40.0
    if np.any(small):
        zs = z[small]
        out[small] = 1.0 - np.sqrt(2.0 * math.pi * zs) * bessel_I_scaled_arr(gamma, zs)
    if np.any(~small):
        zl = z[~small]
        mu = 4.0 * gamma * gamma
        term = np.ones_like(zl)
        total = np.zeros_like(zl)
        for k in range(1, 40):
            term = term * (-(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)) / zl
            total += term
        out[~small] = -total
    return out


# ---------------------------------------------------------------------------
# one-sided stable density, normalized so that the Laplace exponent is x^a


def _stable_series(a: float, x: float) -> tuple[float, float]:
    """Tail series for the standard one-sided a-stable density at x.

    Returns (value, max_term); the second lets callers detect cancellation.
    """
    total = 0.0
    max_term = 0.0
    prev_mag = math.inf
    sign = 1.0
    log_x = math.log(x)
    for k in range(1, 400):
        log_mag = math.lgamma(a * k + 1.0) - math.lgamma(k + 1.0) - (a * k + 1.0) * log_x
        s = math.sin(math.pi * a * k)
        if log_mag > 700.0:
            return math.nan, math.inf
        term = sign * math.exp(log_mag) * s
        total += term
        mag = abs(term)
        max_term = max(max_term, mag)
        # rational multiples of the index make single sine factors vanish, so
        # two consecutive tiny terms are required before declaring convergence
        if k > 3 and max(mag, prev_mag) < 1e-17 * max(abs(total), 1e-300):
            return total / math.pi, max_term
        prev_mag = mag
        sign = -sign
    return math.nan, math.inf


def _zolotarev_A(a: float, phi: np.ndarray) -> np.ndarray:
    """Integrand kernel of the one-sided stable integral representation."""
    one_m = 1.0 - a
    return (
        np.sin(a * phi) ** (a / one_m)
        * np.sin(one_m * phi)
        / np.sin(phi) ** (1.0 / one_m)
    )


_STABLE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=1024)


def _stable_integral(a: float, x: float) -> float:
    """Integral representation, accurate for small and moderate x."""
    one_m = 1.0 - a
    lam = x ** (-a / one_m)
    a0 = a ** (a / one_m) * one_m  # kernel value at phi = 0, its minimum
    if lam * a0 > 745.0:
        return 0.0  # true value underflows
    # the kernel rises monotonically to +inf at pi; cut where it stops mattering
    lo, hi = 0.0, math.pi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if lam * float(_zolotarev_A(a, np.array([mid]))[0]) > 745.0:
            hi = mid
        else:
            lo = mid
    phi_hi = hi

    def f(phi: np.ndarray) -> np.ndarray:
        A = _zolotarev_A(a, phi)
        return A * np.exp(-lam * A)

    try:
        val = integrate_panels(f, np.linspace(0.0, phi_hi, 9), _STABLE_SPEC, n0=32)
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"stable density integral at a={a}, x={x}: {exc}") from None
    return (a / (math.pi * one_m)) * x ** (-1.0 / one_m) * val


def stable_one_density(a: float, x: float) -> float:
    """Density at x of the standard one-sided a-stable law (unit time).

    Series and integral representations cross-validate in an overlap band;
    outside it the numerically reliable one is used.
    """
    if not (0.0 < a < 1.0):
        raise ValueError("index must lie in (0, 1)")
    if x <= 0.0:
        return 0.0
    val, max_term = _stable_series(a, x)
    # cancellation noise bound of the alternating series: per-term rounding
    # accumulated across the slowly decaying head; the 500x multiplier holds
    # a 2.5x margin over the worst ratio observed in calibration sweeps
    noise = (
        500.0 * max_term * 2.2e-16 / max(abs(val), 1e-300)
        if math.isfinite(val)
        else math.inf
    )
    if noise <= 1e-9 and val > 0.0:
        return val
    integral = _stable_integral(a, x)
    if math.isfinite(val) and val > 0.0 and noise <= 1e-3 and integral > 0.0:
        # cross-validation band: where both claim accuracy they must agree
        if abs(val - integral) > max(1e-6, noise) * max(integral, abs(val)):
            raise NonConvergenceError(
                f"stable density representations disagree at a={a}, x={x}: "
                f"{val} vs {integral}"
            )
    return integral


def stable_density(alpha_half: float, t: float, s: float) -> float:
    """Density of the a-stable subordinator at time t, a = alpha_half.

    Self-similar scaling reduces everything to the unit-time density.
    """
    if t <= 0.0 or s <= 0.0:
        raise ValueError("arguments must be positive")
    scale = t ** (-1.0 / alpha_half)
    return scale * stable_one_density(alpha_half, s * scale)
