"""Reference values computed apart from ``dkl``.

Everything here is written from the paper's formulas with numpy, scipy and
mpmath only; nothing imports ``dkl``.  The gates in ``workloads.py`` compare
the library's outputs with these values.

Run as a script to remake the stored ball-integral references:

    python3 dklbench/reference.py --ball-refs dklbench/data/ball_refs.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import mpmath
from scipy import integrate

E = math.e


# ---------------------------------------------------------------------------
# the four-parameter boundary weight and the jump kernel


def weight(b, hmin: float, hmax: float, dist: float) -> float:
    """B from the two heights and the distance:
    (hmin/d ^ 1)^b1 log(e + (hmax^d)/(hmin^d))^b3 (hmax/d ^ 1)^b2 log(e + d/(hmax^d))^b4,
    with a vanishing height and a positive paired exponent giving 0."""
    b1, b2, b3, b4 = b
    if hmin <= 0.0:
        f13 = 1.0 if b1 == 0.0 else 0.0
    else:
        f13 = min(hmin / dist, 1.0) ** b1
        if b3 > 0.0:
            f13 *= math.log(E + min(hmax, dist) / min(hmin, dist)) ** b3
    if hmax <= 0.0:
        f24 = 1.0 if b2 == 0.0 else 0.0
    else:
        f24 = min(hmax / dist, 1.0) ** b2
        if b4 > 0.0:
            f24 *= math.log(E + dist / min(hmax, dist)) ** b4
    return f13 * f24


def jump_kernel(b, alpha: float, x, y) -> float:
    """J(x, y) = B(x, y) / |x - y|^(d + alpha); points are coordinate tuples
    with the height last."""
    dist = math.dist(x, y)
    return weight(b, min(x[-1], y[-1]), max(x[-1], y[-1]), dist) * dist ** (-(len(x) + alpha))


# ---------------------------------------------------------------------------
# killing-constant map


def killing_C1(alpha: float, beta, q: float, dps: int = 30) -> float:
    """C(alpha, q, B) in dimension 1 by mpmath quadrature of its defining
    integral over (0, 1), split at s = 1/2:
    (s^q - 1)(1 - s^(alpha-q-1)) / (1-s)^(1+alpha) * B(heights s and 1, distance 1-s).

    The half (1/2, 1) is integrated in u = 1 - s with the numerator written
    through expm1/log1p, so nodes next to s = 1 keep their digits; both halves
    are taken in v with s (or u) = v^10, which makes the algebraic endpoint
    singularities smooth enough for tanh-sinh to converge."""
    b1, b2, b3, b4 = beta
    with mpmath.workdps(dps):
        a = mpmath.mpf(alpha)
        qq = mpmath.mpf(q)
        e2 = a - qq - 1

        def w(s, u):  # heights s and 1 at distance u = 1 - s, all ratios exact
            out = mpmath.mpf(1)
            if b1:
                out *= mpmath.power(min(s / u, 1), b1)
            if b3:
                out *= mpmath.log(mpmath.e + min(1, u) / min(s, u)) ** b3
            if b2:
                out *= mpmath.power(min(1 / u, 1), b2)
            if b4:
                out *= mpmath.log(mpmath.e + u / min(1, u)) ** b4
            return out

        def left(s):
            u = 1 - s
            num = (mpmath.power(s, qq) - 1) * (1 - mpmath.power(s, e2))
            return num / mpmath.power(u, 1 + a) * w(s, u)

        def right(u):
            ls = mpmath.log1p(-u)
            num = mpmath.expm1(qq * ls) * -mpmath.expm1(e2 * ls)
            return num / mpmath.power(u, 1 + a) * w(1 - u, u)

        k = 10
        top = mpmath.power(mpmath.mpf(1) / 2, mpmath.mpf(1) / k)

        def smooth(g):
            return mpmath.quad(lambda v: g(v**k) * k * v ** (k - 1), [0, top])

        return float(smooth(left) + smooth(right))


def killing_dim_factor(d: int, alpha: float) -> float:
    """C_d / C_1 for the unit weight (beta = 0):
    |S^(d-2)| Gamma((d-1)/2) Gamma((alpha+1)/2) / (2 Gamma((d+alpha)/2))."""
    sphere = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)
    return sphere * math.gamma((d - 1) / 2.0) * math.gamma((alpha + 1.0) / 2.0) / (
        2.0 * math.gamma((d + alpha) / 2.0)
    )


# ---------------------------------------------------------------------------
# the mid-ball two-jump integral


def ball_integral(alpha: float, beta, t: float, x, y, epsrel: float = 1e-10, limit: int = 200) -> float:
    """t |x-y|^(d+alpha) times the integral over the ball of centre x + |x-y|/2 e_d
    and radius |x-y|/4 of J(x + u e_d, z) J(z, y + u e_d) dz, u = t^(1/alpha),
    by SciPy adaptive quadrature (QUADPACK); d = 1 or 2, in polar coordinates
    for d = 2.  Warnings QUADPACK raises on the kinks of B are silenced: at
    epsrel 1e-10 and 1e-12 the d = 2 values agree to 2e-10."""
    d = len(x)
    u = t ** (1.0 / alpha)
    dist = math.dist(x, y)
    X = tuple(x[:-1]) + (x[-1] + u,)
    Y = tuple(y[:-1]) + (y[-1] + u,)
    radius = dist / 4.0
    ch = x[-1] + dist / 2.0
    scale = t * dist ** (d + alpha)
    if d == 1:

        def f1(z):
            return jump_kernel(beta, alpha, X, (z,)) * jump_kernel(beta, alpha, (z,), Y)

        pts = sorted({p for p in (X[0], Y[0]) if ch - radius < p < ch + radius})
        val, _ = integrate.quad(
            f1, ch - radius, ch + radius, epsabs=0.0, epsrel=epsrel, limit=limit, points=pts or None
        )
        return scale * val
    if d != 2:
        raise ValueError("d must be 1 or 2")
    cx = x[0]

    def inner(rho):
        def f(phi):
            z = (cx + rho * math.cos(phi), ch + rho * math.sin(phi))
            return jump_kernel(beta, alpha, X, z) * jump_kernel(beta, alpha, z, Y)

        return rho * integrate.quad(f, 0.0, 2.0 * math.pi, epsabs=0.0, epsrel=epsrel, limit=limit)[0]

    return scale * integrate.quad(inner, 0.0, radius, epsabs=0.0, epsrel=epsrel, limit=limit)[0]


# ---------------------------------------------------------------------------
# the killed Cauchy process on the half-line (gamma = 1/2, alpha = 1)


def cauchy_p(t: float, x: float, y: float) -> float:
    """Transition density of the Cauchy process killed on leaving (0, inf):
    (t/pi) [1/((x-y)^2 + t^2) - 1/((x+y)^2 + t^2)]."""
    return (t / math.pi) * (1.0 / ((x - y) ** 2 + t * t) - 1.0 / ((x + y) ** 2 + t * t))


def cauchy_kappa(x: float) -> float:
    """Killing function of that process: 2 / (pi x)."""
    return 2.0 / (math.pi * x)


def cauchy_survival(xi: float) -> float:
    """Survival probability at xi = x / t: (2/pi) arctan(xi)."""
    return 2.0 / math.pi * math.atan(xi)


def levy_half_density(w: float) -> float:
    """Density of the one-sided 1/2-stable law with Laplace exponent
    lambda^(1/2): w^(-3/2) exp(-1/(4w)) / (2 sqrt(pi))."""
    return w ** -1.5 * math.exp(-0.25 / w) / (2.0 * math.sqrt(math.pi))


# ---------------------------------------------------------------------------
# stored references


def _ball_refs(path: Path) -> None:
    from inputs import ball_cases  # the benchmark's own generator

    warnings.simplefilter("ignore", integrate.IntegrationWarning)
    out = []
    for d, cases in ((1, ball_cases(1)), (2, ball_cases(2))):
        for case in cases:
            t0 = time.perf_counter()
            ref = ball_integral(case["alpha"], case["beta"], case["t"], case["x"], case["y"])
            dt = time.perf_counter() - t0
            out.append(dict(case, ref=ref))
            print(f"d={d} case {case['id']}: {ref!r} ({dt:.1f} s)", file=sys.stderr)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ball-refs", type=Path, required=True, help="output JSON file")
    args = ap.parse_args(argv)
    _ball_refs(args.ball_refs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
