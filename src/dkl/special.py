"""Modified Bessel function of the first kind and one-sided stable densities.

The Bessel function has one implementation, :func:`bessel_I_scaled_arr`;
the scalar :func:`bessel_I_scaled` and :func:`bessel_I` are its
one-element case.  It switches from the ascending series (all terms
positive, no cancellation) to the large-argument asymptotic expansion at
r = max(30, gamma^2 / 8), since the expansion needs r large against
gamma^2.  At gamma = 1/2 the factor is elementary (DLMF 10.49(ii)),
e^(-r) I_{1/2}(r) = (1 - e^(-2r)) / sqrt(2 pi r), and is taken in that
closed form; so are the mass defects 1 - sqrt(2 pi z) e^(-z) I_gamma(z)
of :func:`one_minus_scaled_I` at gamma = 1/2 and 3/2.  The exponentially
scaled variant serves overflow-free use inside Gaussian products.

The one-sided stable density likewise has one implementation,
:func:`stable_one_density_arr`, and the scalar :func:`stable_one_density`
is its input-checked one-element case.  It uses a convergent tail series
for large arguments and Zolotarev's integral representation elsewhere,
with a cross-validation band where the two must agree.  The series sums
blocks of terms on arrays, each element stopping at its own term, and
takes its per-term factors and every exp and log from ``math``, so each
element has the bits of the term-by-term scalar loop it replaces.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .quadrature import NonConvergenceError, QuadratureSpec, converge_rows

__all__ = [
    "bessel_I",
    "bessel_I_scaled",
    "bessel_I_scaled_arr",
    "one_minus_scaled_I",
    "stable_one_density",
    "stable_one_density_arr",
    "stable_density",
]

_SERIES_CUT = 30.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def bessel_I_scaled(gamma: float, r: float) -> float:
    """exp(-r) * I_gamma(r): :func:`bessel_I_scaled_arr` at one point."""
    if not gamma >= 0.0:
        raise ValueError(f"order must be >= 0, got {gamma}")
    if not r >= 0.0:
        raise ValueError(f"argument must be >= 0, got {r}")
    return float(bessel_I_scaled_arr(gamma, np.array([r], dtype=float))[0])


def bessel_I(gamma: float, r: float) -> float:
    """I_gamma(r): ascending series up to the switch radius, asymptotics beyond."""
    scaled = bessel_I_scaled(gamma, r)
    if r > 700.0:
        return math.inf  # the plain value overflows; bessel_I_scaled does not
    return scaled * math.exp(r)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def bessel_I_scaled_arr(gamma: float, r: np.ndarray) -> np.ndarray:
    """Vectorized exp(-r) I_gamma(r); raises :class:`NonConvergenceError`
    where the series overflows or its 600 terms run out."""
    r = np.asarray(r, dtype=float)
    if gamma == 0.5:
        # (1 - e^(-2r)) / sqrt(2 pi r), with its limit 0 at r = 0; sqrt(r)
        # apart, so that 2 pi r neither rounds in the subnormals nor overflows
        return np.where(r == 0.0, 0.0, -np.expm1(-2.0 * r) / (_SQRT_2PI * np.sqrt(r)))
    out = np.empty_like(r)
    small = r <= max(_SERIES_CUT, gamma * gamma / 8.0)
    if np.any(small):
        # largest arguments first: they need the most terms, so the elements
        # still summing are always a prefix rs[:k] of this order
        order = np.argsort(-r[small], kind="stable")
        rs = r[small][order]
        try:
            term = np.where(
                rs > 0.0, (0.5 * rs) ** gamma, 1.0 if gamma == 0.0 else 0.0
            ) / math.gamma(gamma + 1.0)
        except OverflowError:
            # Gamma(gamma + 1) overflows from gamma ~ 171 on: take the first term in logs
            try:
                term = np.exp(gamma * np.log(0.5 * rs) - math.lgamma(gamma + 1.0))
            except OverflowError:
                # lgamma overflows in turn from gamma ~ 2.5e305 on.  There
                # gamma^2 / 8 is inf, so every r but NaN is in the series
                # range, and e^(-r) I_gamma(r) underflows at every finite r
                return np.where(small, 0.0, math.nan)
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
        del term, quarter, tk, qk, sk
        # total * exp(-rs), put back in r's order, with no array beyond rs
        np.negative(rs, out=rs)
        total *= np.exp(rs, out=rs)
        rs[order] = total
        out[small] = rs
    if np.any(~small):
        rl = r[~small]
        # fixed 30-term truncation; past max(30, gamma^2 / 8) it is within
        # 2e-13 of scipy's ive for gamma <= 50
        out[~small] = _hankel_sum(gamma, rl, 30, 1.0) / np.sqrt(2.0 * math.pi * rl)
    return out


def _hankel_sum(gamma: float, z: np.ndarray, terms: int, start: float) -> np.ndarray:
    """``start`` plus terms 1 .. ``terms`` of the large-z Hankel series of
    sqrt(2 pi z) e^(-z) I_gamma(z), whose term 0 is 1 (DLMF 10.40.1)."""
    mu = 4.0 * gamma * gamma
    term = np.ones_like(z)
    total = np.full_like(z, start)
    for k in range(1, terms + 1):
        term *= -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k)
        term /= z
        total += term
    return total


def one_minus_scaled_I(gamma: float, z: np.ndarray) -> np.ndarray:
    """1 - sqrt(2 pi z) e^(-z) I_gamma(z), stable for all z >= 0.

    At gamma = 1/2 it is e^(-2z), and at gamma = 3/2 it is
    (1 - e^(-2z))/z - e^(-2z) (DLMF 10.49(ii)), which loses at most one bit
    to cancellation; both are taken in that form at every z.  At other
    orders, for large z the direct form cancels to noise, so the asymptotic
    tail series (whose leading term is (4 gamma^2 - 1)/(8 z)) is summed
    instead; the neglected exponentially small part is below e^(-2z).  The
    series starts at z = gamma^2 once that is past 40: below it the terms
    grow before they fall, and the value is far from 0, so the direct form
    holds.
    """
    z = np.asarray(z, dtype=float)
    if gamma == 0.5:
        return np.exp(-2.0 * z)
    if gamma == 1.5:
        with np.errstate(invalid="ignore"):  # 0 / 0 at z = 0, where the limit is 1
            return np.where(z == 0.0, 1.0, -np.expm1(-2.0 * z) / z - np.exp(-2.0 * z))
    out = np.empty_like(z)
    small = z < max(40.0, gamma * gamma)
    if np.any(small):
        zs = z[small]
        out[small] = 1.0 - np.sqrt(2.0 * math.pi * zs) * bessel_I_scaled_arr(gamma, zs)
    if np.any(~small):
        out[~small] = -_hankel_sum(gamma, z[~small], 39, 0.0)
    return out


# ---------------------------------------------------------------------------
# one-sided stable density, normalized so that the Laplace exponent is x^a

_TERMS = 399  # series terms k = 1 .. _TERMS
# the series is summed a block of terms at a time over the elements still
# open; most elements stop within the first block
_BLOCKS = (0, 64, 192, _TERMS)


@functools.lru_cache(maxsize=None)
def _series_coefs(a: float) -> list[tuple[np.ndarray, ...]]:
    """Per-term factors of the tail series, computed once per index by ``math``.

    Term k is (-1)^(k+1) exp(c_k - (a k + 1) log x) sin(pi a k), with
    c_k = lgamma(a k + 1) - lgamma(k + 1).  Returns, per block of terms,
    c_k, a k + 1, the signed sine and the stop rule's factor (0 for k <= 3,
    which never stop).
    """
    ks = range(1, _TERMS + 1)
    c = np.array([math.lgamma(a * k + 1.0) - math.lgamma(k + 1.0) for k in ks])
    power = np.array([a * k + 1.0 for k in ks])
    signed_sin = np.array([(1.0 if k % 2 else -1.0) * math.sin(math.pi * a * k) for k in ks])
    factor = np.array([1e-17 if k > 3 else 0.0 for k in ks])
    return [
        tuple(v[i:j] for v in (c, power, signed_sin, factor))
        for i, j in zip(_BLOCKS, _BLOCKS[1:])
    ]


def _stable_series(a: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tail series for the standard one-sided a-stable density at each x > 0.

    Returns (value, max_term); the second lets callers detect cancellation.
    The value is nan where a term overflows or the terms run out.  Each
    element sums its terms left to right and stops at its own first term
    that meets the stop rule.
    """
    val = np.full(len(x), math.nan)
    max_term = np.full(len(x), math.inf)
    # per open element: its index, log x, the running sum, the largest
    # |term| and the last |term| so far
    open_ = np.arange(len(x))
    log_x = np.fromiter(map(math.log, x.tolist()), float, len(x))
    total, peak, last = np.zeros(len(x)), np.zeros(len(x)), np.full(len(x), math.inf)
    for c, power, signed_sin, factor in _series_coefs(a):
        log_mag = c - power * log_x[:, None]
        log_mag[log_mag > 700.0] = math.nan  # math.exp raises past 709.78
        exps = np.fromiter(map(math.exp, log_mag.ravel().tolist()), float, log_mag.size)
        # column 0 carries the running sum, column j the j-th term of the block
        term = np.empty((len(open_), len(c) + 1))
        term[:, 0] = total
        np.multiply(exps.reshape(log_mag.shape), signed_sin, out=term[:, 1:])
        sums = np.add.accumulate(term, axis=1)[:, 1:]  # strictly left to right
        mag = np.abs(term)
        mag[:, 0] = last
        peaks = np.maximum.accumulate(mag[:, 1:], axis=1)
        # an element ends at its first nan term or at the stop rule: rational
        # multiples of the index make single sine factors vanish, so two
        # consecutive tiny terms are required before declaring convergence
        event = ~(np.maximum(mag[:, 1:], mag[:, :-1]) >= factor * np.maximum(np.abs(sums), 1e-300))
        at = event.argmax(axis=1)
        rows = np.arange(len(open_))
        ended = event[rows, at]
        done, r, k = open_[ended], rows[ended], at[ended]
        val[done] = sums[r, k] / math.pi
        max_term[done] = np.maximum(peak[r], peaks[r, k])
        if ended.all():
            break
        keep = ~ended
        open_, log_x = open_[keep], log_x[keep]
        total, last = sums[keep, -1], mag[keep, -1]
        peak = np.maximum(peak[keep], peaks[keep, -1])
    return val, max_term


def _zolotarev_A(a: float, phi: np.ndarray) -> np.ndarray:
    """Integrand kernel of the one-sided stable integral representation."""
    one_m = 1.0 - a
    return (
        np.sin(a * phi) ** (a / one_m)
        * np.sin(one_m * phi)
        / np.sin(phi) ** (1.0 / one_m)
    )


_STABLE_SPEC = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300, max_subdivisions=1024)


def _stable_integral(a: float, x: np.ndarray) -> np.ndarray:
    """Integral representation at each x > 0, accurate for small and moderate
    x: one row of :func:`quadrature.converge_rows` per x.  Raises
    :class:`NonConvergenceError` naming the first x whose row failed."""
    one_m = 1.0 - a
    lam = np.empty(len(x))
    for i, v in enumerate(x.tolist()):
        try:
            lam[i] = v ** (-a / one_m)
        except OverflowError:
            lam[i] = math.inf  # x so small that the true value underflows
    a0 = a ** (a / one_m) * one_m  # kernel value at phi = 0, its minimum
    out = np.zeros(len(x))  # 0 where lam * a0 > 745: the true value underflows
    rows = np.flatnonzero(~(lam * a0 > 745.0))
    # the kernel rises monotonically to +inf at pi; cut where it stops mattering
    lam_r = lam[rows]
    lo, hi = np.zeros(len(rows)), np.full(len(rows), math.pi)
    for i in range(80):
        mid = 0.5 * (lo + hi)
        # once lo and hi are adjacent floats, mid is one of them and the cut
        # stops moving: the remaining steps would leave every bit as it is
        if i >= 48 and np.all((mid == lo) | (mid == hi)):
            break
        up = lam_r * _zolotarev_A(a, mid) > 745.0
        np.putmask(hi, up, mid)
        np.putmask(lo, ~up, mid)

    def f(phi: np.ndarray, row: np.ndarray) -> np.ndarray:
        A = _zolotarev_A(a, phi)
        return A * np.exp(-lam_r[row] * A)

    vals = converge_rows(f, np.linspace(0.0, hi, 9, axis=1), _STABLE_SPEC, 32)
    for r, x_r, val in zip(rows.tolist(), x[rows].tolist(), vals):
        if isinstance(val, NonConvergenceError):
            raise NonConvergenceError(f"stable density integral at a={a}, x={x_r}: {val}")
        out[r] = (a / (math.pi * one_m)) * x_r ** (-1.0 / one_m) * val
    return out


@np.errstate(over="ignore")  # a sum or noise bound past the float range is inf
def stable_one_density_arr(a: float, x: np.ndarray) -> np.ndarray:
    """Density at each x of the standard one-sided a-stable law (unit time).

    Series and integral representations cross-validate in an overlap band;
    outside it the numerically reliable one is used.  Raises
    :class:`NonConvergenceError` if the two disagree at any element.
    """
    if not (0.0 < a < 1.0):
        raise ValueError("index must lie in (0, 1)")
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = ~(x <= 0.0)  # 0 at x <= 0
    xs = x[pos]
    val, max_term = _stable_series(a, xs)
    # cancellation noise bound of the alternating series: per-term rounding
    # accumulated across the slowly decaying head; the 500x multiplier holds
    # a 2.5x margin over the worst ratio observed in calibration sweeps.
    # It is nan where the series failed, which no test below passes.  Where
    # the largest term is subnormal or 0, so is the density: keep a sum of 0
    noise = 500.0 * max_term * 2.2e-16 / np.maximum(np.abs(val), 1e-300)
    use = (noise <= 1e-9) & ((val > 0.0) | (max_term < np.finfo(float).tiny))
    if not use.all():
        rest = np.flatnonzero(~use)
        integral = _stable_integral(a, xs[rest])
        v, nz = val[rest], noise[rest]
        # cross-validation band: where both claim accuracy they must agree
        bad = (v > 0.0) & (nz <= 1e-3) & (integral > 0.0) & (
            np.abs(v - integral) > np.maximum(1e-6, nz) * np.maximum(integral, np.abs(v))
        )
        if bad.any():
            i = int(np.argmax(bad))
            raise NonConvergenceError(
                f"stable density representations disagree at a={a}, x={float(xs[rest[i]])}: "
                f"{float(v[i])} vs {float(integral[i])}"
            )
        val[rest] = integral
    out[pos] = val
    return out


def stable_one_density(a: float, x: float) -> float:
    """Density at x of the standard one-sided a-stable law (unit time):
    :func:`stable_one_density_arr` at one point."""
    if not -math.inf <= x <= math.inf:
        raise ValueError(f"x must be a number, got {x}")
    return float(stable_one_density_arr(a, np.array([x], dtype=float))[0])


def stable_density(alpha_half: float, t: float, s: float) -> float:
    """Density of the a-stable subordinator at time t, a = alpha_half.

    Self-similar scaling reduces everything to the unit-time density.
    """
    if not (t > 0.0 and s > 0.0):
        raise ValueError("arguments must be positive")
    scale = t ** (-1.0 / alpha_half)
    return scale * stable_one_density(alpha_half, s * scale)
