"""The three workloads: what each item calls in ``dkl`` and the gate its
output must pass.

A workload object (whose ``dkl`` modules ``run.py`` has imported) has
  ``setup()``   the lazy set-up its first calls would trigger,
  ``items``     the fixed list of input dicts for one pass,
  ``run(item)`` the timed call, returning a comparable output,
  ``gate(item, outputs)`` None when the output is right, else the reason.

Every accuracy bound is a relative error of 10 x the rel_tol the call was
given (the factor ``_tensor_integral`` and ``oracle_kappa`` use in their own
stopping tests), measured against ``reference.py`` or against a property the
method must have.  Gates run after the timed passes, on the first pass's
outputs; later passes must reproduce them bit for bit.

``dkl`` modules are looked up at call time (``dkl.heatkernel...``) so that
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

import inputs
import reference as ref

HERE = Path(__file__).resolve().parent

def _ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def _rel(val: float, want: float) -> float:
    return abs(val - want) / abs(want)


class _Modules:
    """``dkl.<module>`` resolved from the loaded modules on every access."""

    def __getattr__(self, name):
        return sys.modules["dkl." + name]


dkl = _Modules()

# ---------------------------------------------------------------------------


class Queries:
    """In-process ``dkl.cli.main`` calls writing CSV files."""

    name = "queries"

    def __init__(self, seed: int, workdir: Path | None):
        self.items = inputs.query_items(seed)
        self.workdir = workdir

    def setup(self) -> None:
        pass  # argparse and the CSV writer need no warming

    def run(self, item):
        path = self.workdir / "query.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = dkl.cli.main(item["argv"] + ["--out", str(path)])
        text = path.read_text(encoding="utf-8") if rc == 0 else ""
        path.unlink(missing_ok=True)
        return rc, text, err.getvalue()

    # -- gates -------------------------------------------------------------

    @staticmethod
    def _rows(out):
        return list(csv.DictReader(io.StringIO(out[1])))

    def _killing_ref(self, item, q: float) -> float:
        c1 = ref.killing_C1(item["alpha"], item["beta"], q)
        return c1 if item["dim"] == 1 else c1 * ref.killing_dim_factor(item["dim"], item["alpha"])

    def _round_trip(self, item, q: float):
        kappa = item["kappa"]
        # solve_q stops once |C(q) - kappa| <= max(abs_tol, rel_tol (1 + kappa))
        bound = 10.0 * max(inputs.QUERY_TOL * 1e-3, inputs.QUERY_TOL * (1.0 + kappa))
        miss = abs(self._killing_ref(item, q) - kappa)
        if miss > bound:
            return f"C(q={q!r}) misses kappa={kappa!r} by {miss:.3g} > {bound:.3g}"
        return None

    def gate(self, item, outputs):
        out = outputs[item["key"]]
        if out[0] != 0:
            return f"exit code {out[0]}: {out[2].strip()}"
        cls = item["cls"]
        if cls == "solve-q":
            return self._round_trip(item, float(self._rows(out)[0]["q"]))
        if cls == "c-shape":
            return self._gate_shape(item, out)
        if item.get("role") == "identity":
            return self._round_trip(item, float(self._rows(out)[0]["q"]))
        if item["role"] == "base":
            return self._gate_map_cells(item, out) if cls == "map" else None
        base = next(
            outputs[o["key"]] for o in self.items if o.get("group") == item["group"] and o["role"] == "base"
        )
        if base[0] != 0:
            return "its base item failed"
        return getattr(self, f"_gate_{cls}")(item, self._rows(base), self._rows(out))

    def _gate_shape(self, item, out):
        rows = [(float(r["q"]), float(r["c_value"])) for r in self._rows(out)]
        rel, absol = inputs.QUERY_TOL, inputs.QUERY_TOL * 1e-3
        for i in (5, 18):
            q, c = rows[i]
            want = ref.killing_C1(item["alpha"], item["beta"], q)
            if abs(c - want) > 10.0 * max(absol, rel * abs(want)):
                return f"C({q!r}) = {c!r}, reference {want!r}"
        if item["beta"][0] == 0.0:  # C(q) = C(alpha - 1 - q); the grid is symmetric
            n = len(rows)
            for i in range(n // 2):
                a, b = rows[i][1], rows[n - 1 - i][1]
                if abs(a - b) > 10.0 * (rel * max(abs(a), abs(b)) + absol):
                    return f"mirror pair {i}: {a!r} vs {b!r}"
        alpha = item["alpha"]
        step = rows[1][0] - rows[0][0]
        if abs(alpha - 1.0) >= 2.0 * step:  # both zeros resolved by the grid
            zeros = out[2].split("zeros=")[1].split()[0].split(",")
            for z, want in zip(map(float, zeros), (min(alpha - 1.0, 0.0), max(alpha - 1.0, 0.0))):
                if abs(z - want) > 1e-6:
                    return f"zero at {z!r}, expected {want!r}"
        return None

    @staticmethod
    def _gate_hke(item, base, out):
        b, o = base[0], out[0]
        if item["role"] == "swap":
            pairs = [("stable", "stable"), ("one_jump", "one_jump"), ("two_jump", "two_jump"),
                     ("survival_x", "survival_y"), ("survival_y", "survival_x"),
                     ("free_value", "free_value"), ("killed_value", "killed_value")]
            factor = {k: 1.0 for k, _ in pairs}
        else:
            pairs = [(k, k) for k in ("stable", "one_jump", "two_jump", "survival_x",
                                      "survival_y", "free_value", "killed_value")]
            up = 2.0 ** (item["scale"] * item["dim"])  # densities scale like length^-d
            factor = {k: (up if k in ("stable", "free_value", "killed_value") else 1.0) for k, _ in pairs}
        if b["regime"] != o["regime"]:
            return "regime differs"
        for kb, ko in pairs:
            u = _ulps(float(b[kb]), float(o[ko]) * factor[kb])
            if u > 4.0:
                return f"{kb}: {u:.1f} ulp"
        return None

    @staticmethod
    def _gate_green(item, base, out):
        b, o = base[0], out[0]
        if b["q"] != o["q"]:
            return "q differs"
        vb, vo = float(b["value"]), float(o["value"])
        if item["role"] == "scaled":  # G scales like |x-y|^(alpha-d)
            argv = item["argv"]
            x, y = float(argv[argv.index("--x") + 1]), float(argv[argv.index("--y") + 1])
            dist = abs(x - y)
            r = 2.0 ** item["scale"]
            e = 1.0 - item["alpha"]
            vb, vo = vb * (dist / r) ** e, vo * dist**e
        u = _ulps(vb, vo)
        return f"value: {u:.1f} ulp" if u > 4.0 else None

    @staticmethod
    def _gate_map(item, base, out):
        r = 2.0 ** item["scale"]
        dim = item["dim"]
        for rb, ro in zip(base, out):
            for j in range(1, dim + 1):
                if float(rb[f"y{j}"]) * r != float(ro[f"y{j}"]):
                    return "grid not rescaled exactly"
            if (rb["tag"], rb["both_zero"], rb["valid"]) != (ro["tag"], ro["both_zero"], ro["valid"]):
                return f"cell {rb} vs {ro}"
            for k in ("one_jump", "two_jump"):
                u = _ulps(float(rb[k]), float(ro[k]))
                if u > 4.0:
                    return f"{k}: {u:.1f} ulp"
        return None

    @staticmethod
    def _gate_map_cells(item, out):
        """Each cell's bracket terms against the paper's formulas."""
        alpha, (b1, b2, b3, b4) = item["alpha"], item["beta"]
        critical = b2 == alpha + b1
        argv = item["argv"]
        t = float(argv[argv.index("--t") + 1])
        x = [float(v) for v in argv[argv.index("--x") + 1].split(",")]
        u = t ** (1.0 / alpha)
        for row in Queries._rows(out):
            y = [float(row[f"y{j}"]) for j in range(1, item["dim"] + 1)]
            dist = math.dist(x, y)
            lo, hi = min(x[-1], y[-1]) + u, max(x[-1], y[-1]) + u
            one = ref.weight(item["beta"], lo, hi, dist)
            two = (
                min(1.0, (u / dist) ** alpha)
                * min(lo / dist, 1.0) ** b1
                * min(hi / dist, 1.0) ** b1
                * math.log(ref.E + dist / min(hi, dist)) ** (b3 + b4 + 1.0 if critical else b3)
                * math.log(ref.E + dist / min(lo, dist)) ** b3
            )
            for k, want in (("one_jump", one), ("two_jump", two)):
                got = float(row[k])
                if abs(got - want) > 1e-12 * abs(want):
                    return f"{k} at y={y}: {got!r} vs {want!r}"
        return None


# ---------------------------------------------------------------------------


class Estimates:
    """Quadrature checks of the heat-kernel and Green estimates and the lemmas."""

    name = "estimates"
    # criterion 08's tolerance for the ball and unified integrals
    REL_TOL = 1e-7

    def __init__(self, seed: int, workdir: Path | None):
        refs = {c["id"]: c["ref"] for c in json.loads((HERE / "data" / "ball_refs.json").read_text())}
        self.items = []
        for dim in (1, 2):
            for case in inputs.ball_cases(dim):
                self.items.append(dict(case, cls=f"ball_d{dim}", key=f"ball-{case['id']}",
                                       ref=refs[case["id"]],
                                       fault=inputs.FAULT_BALL if dim == 2 else None))
        self.items += [{"cls": "check", "key": f"check-{lid}", "lemma": lid} for lid in LEMMAS]
        self.items += inputs.unified_items(seed)
        self.items += inputs.green_items(seed)

    def setup(self) -> None:
        dkl.constants.load_constants()  # the frozen ceilings the checks read
        Q = dkl.quadrature.QuadratureSpec
        self.spec = Q(rel_tol=self.REL_TOL, abs_tol=1e-300)
        self.check_spec = Q(rel_tol=inputs.CHECK_TOL, abs_tol=1e-12)

    def _params(self, item):
        g = dkl.geometry
        return g.ModelParams(item["dim"], item["alpha"], tuple(item["beta"]))

    def run(self, item):
        d, cls = dkl, item["cls"]
        if cls == "check":
            rep = d.inequalities.check(item["lemma"], inputs.CHECK_SEED, inputs.CHECK_BUDGET,
                                       self.check_spec)
            return (rep.samples, rep.excluded, rep.min_ratio, rep.max_ratio, rep.passed)
        p = self._params(item)
        pt = d.geometry.HalfSpacePoint.from_coords
        x, y = pt(item["x"]), pt(item["y"])
        if cls == "green":
            return (d.green.green_by_time_integration(p, item["q"], x, y).value,
                    d.green.green_estimate(p, item["q"], x, y).value)
        w = d.geometry.standard_weight(p)
        if cls == "unified":
            return (d.heatkernel.hke_unified(p, w, item["t"], x, y, self.spec),
                    d.heatkernel.hke_closed(p, item["t"], x, y).free_value)
        return (d.heatkernel.twojump_ball_integral(p, w, item["t"], x, y, self.spec),)

    def gate(self, item, outputs):
        out = outputs[item["key"]]
        cls = item["cls"]
        if cls == "check":
            samples, excluded, _lo, _hi, passed = out
            if not passed or excluded or samples != inputs.CHECK_BUDGET:
                return f"report failed: samples={samples} excluded={excluded} passed={passed}"
            return None
        if cls.startswith("ball"):
            err = _rel(out[0], item["ref"])
            bound = 10.0 * self.REL_TOL
            return f"relative error {err:.3g} > {bound:g}" if err > bound else None
        r = out[0] / out[1]
        name = f"acc_unified_{item['regime']}" if cls == "unified" else f"acc_green_{item['combo']}"
        ceiling = inputs.FROZEN[name] * inputs.SLACK
        worst = max(r, 1.0 / r)
        return f"ratio {worst:.4g} > {ceiling:.4g} ({name})" if worst > ceiling else None


LEMMAS = ["cal_0", "cal_00", "cal_2", "cal_3", "cal_basic", "cal_green", "cal_new1", "cal_new2",
          "comp_AB", "kill_log", "kill_log_2", "l_cal1", "lower_2", "slowly_varying",
          "slowly_varying_2", "two_jump_region"]


# ---------------------------------------------------------------------------


class Oracle:
    """The subordinate killed Brownian motion: killing function, comparison
    grids, and the closed forms of its Cauchy case."""

    name = "oracle"
    CAUCHY = (0.5, 1.0)  # (gamma, alpha) of the killed Cauchy process
    # default rel_tol of oracle_kappa / oracle_p, of oracle_survival
    P_TOL, SURV_TOL = 1e-8, 1e-7
    # the one-sided stable density is converged to 1e-11 internally
    LEVY_TOL = 1e-11

    def __init__(self, seed: int, workdir: Path | None):
        self.items = []
        for (gamma, alpha), heights in inputs.KAPPA_HEIGHTS.items():
            for h in heights:
                self.items.append({"cls": "kappa", "key": f"kappa-{gamma}-{alpha}-{h}",
                                   "gamma": gamma, "alpha": alpha, "h": h})
        self.items += inputs.compare_items(seed)
        self.items += inputs.cauchy_items(seed)
        self.heights = np.geomspace(0.05, 20.0, 20)

    def setup(self) -> None:
        o = dkl.oracle
        self.ops = {}
        # the first survival call builds the subordinator-density and mass splines
        for gamma, alpha in {self.CAUCHY, *inputs.COMPARE_PARAMS, *inputs.KAPPA_HEIGHTS}:
            op = o.OracleParams(gamma, 1, alpha)
            self.ops[(gamma, alpha)] = op
            if (gamma, alpha) in (self.CAUCHY, *inputs.COMPARE_PARAMS):
                o.oracle_survival(op, 1.0)
        self.spec = dkl.quadrature.QuadratureSpec(rel_tol=inputs.ORACLE_TOL, abs_tol=1e-300)

    def run(self, item):
        o, cls = dkl.oracle, item["cls"]
        pt = dkl.geometry.HalfSpacePoint
        if cls == "kappa":
            return (o.oracle_kappa(self.ops[(item["gamma"], item["alpha"])], pt(1, (), item["h"])),)
        if cls == "compare":
            rep, q_fit, r2 = o.compare_oracle_vs_estimate(
                self.ops[(item["gamma"], item["alpha"])], self.spec, ts=inputs.COMPARE_TS,
                xs=self.heights[item["xs"]], ys=self.heights[item["ys"]])
            return (rep.samples, rep.excluded, rep.min_ratio, rep.max_ratio, q_fit, r2)
        op = self.ops[self.CAUCHY]
        if item["kind"] == "p":
            return (o.oracle_p(op, item["t"], pt(1, (), item["x"]), pt(1, (), item["y"])),)
        if item["kind"] == "survival":
            return (o.oracle_survival(op, item["xi"]),)
        return (dkl.special.stable_one_density(0.5, item["w"]),)

    def gate(self, item, outputs):
        out = outputs[item["key"]]
        cls = item["cls"]
        if cls == "kappa":
            if (item["gamma"], item["alpha"]) == self.CAUCHY:
                err = _rel(out[0], ref.cauchy_kappa(item["h"]))
                return f"relative error {err:.3g}" if err > 10.0 * self.P_TOL else None
            # kappa(x) x^alpha is constant across heights (scale invariance)
            vals = [outputs[o["key"]][0] * o["h"] ** o["alpha"] for o in self.items
                    if o["cls"] == "kappa" and (o["gamma"], o["alpha"]) == (item["gamma"], item["alpha"])]
            spread = (max(vals) - min(vals)) / abs(float(np.mean(vals)))
            return f"homogeneity spread {spread:.3g}" if spread >= 1e-3 else None
        if cls == "compare":
            samples, excluded, lo, hi, _q, r2 = out
            ceiling = inputs.FROZEN[f"acc_oracle_{item['idx']}"] * inputs.SLACK
            want = len(inputs.COMPARE_TS) * len(item["xs"]) * len(item["ys"])
            if excluded or samples != want:
                return f"samples={samples} excluded={excluded}"
            if max(hi, 1.0 / lo) > ceiling:
                return f"ratio {max(hi, 1.0 / lo):.4g} > {ceiling:.4g}"
            return f"R^2 = {r2:.6f} < 0.99" if r2 < 0.99 else None
        kind = item["kind"]
        if kind == "p":
            want, bound = ref.cauchy_p(item["t"], item["x"], item["y"]), 10.0 * self.P_TOL
        elif kind == "survival":
            want, bound = ref.cauchy_survival(item["xi"]), 10.0 * self.SURV_TOL
        else:
            want, bound = ref.levy_half_density(item["w"]), 10.0 * self.LEVY_TOL
        err = _rel(out[0], want)
        return f"relative error {err:.3g} > {bound:g}" if err > bound else None


WORKLOADS = {w.name: w for w in (Queries, Estimates, Oracle)}
