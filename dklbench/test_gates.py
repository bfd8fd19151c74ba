"""Each gate accepts the program's real output and rejects it once the
checked quantity is moved by 10 times the gate's bound.

    python3 -m pytest dklbench/test_gates.py -q

Runs a few cheap items of each workload through ``dkl`` (about 20 s).
"""

from __future__ import annotations

import csv
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

EPS = 2.0**-52
SEED = 3


def _edit(out, row: int, field: str, fn):
    """A CLI output tuple with one CSV field replaced by fn(old)."""
    rows = list(csv.DictReader(io.StringIO(out[1])))
    rows[row][field] = repr(fn(float(rows[row][field])))
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return (out[0], buf.getvalue(), out[2])


def _first(wl, **match):
    return next(it for it in wl.items if all(it.get(k) == v for k, v in match.items()))


def _check(wl, item, outputs, key, bad):
    assert wl.gate(item, outputs) is None
    assert wl.gate(item, {**outputs, key: bad}) is not None


@pytest.fixture(scope="module")
def queries(tmp_path_factory):
    wl = workloads.Queries(SEED, tmp_path_factory.mktemp("q"))
    __import__("dkl.cli")
    return wl


def test_queries_round_trip(queries):
    wl = queries
    item = _first(wl, cls="solve-q", dim=1)
    out = wl.run(item)
    q = float(list(csv.DictReader(io.StringIO(out[1])))[0]["q"])
    bound = 10.0 * inputs.QUERY_TOL * (1.0 + item["kappa"])
    h = 1e-5
    slope = (ref.killing_C1(item["alpha"], item["beta"], q + h)
             - ref.killing_C1(item["alpha"], item["beta"], q - h)) / (2 * h)
    bad = _edit(out, 0, "q", lambda v: v + 10.0 * bound / slope)
    _check(wl, item, {item["key"]: out}, item["key"], bad)


def test_queries_shape(queries):
    wl = queries
    item = next(it for it in wl.items if it["cls"] == "c-shape" and it["beta"][0] == 0.0
                and abs(it["alpha"] - 1.0) > 0.3)
    out = wl.run(item)
    outputs = {item["key"]: out}
    assert wl.gate(item, outputs) is None
    bound = 10.0 * inputs.QUERY_TOL
    for row in (5, 2):  # a referenced value; a mirror pair only
        bad = _edit(out, row, "c_value", lambda v: v * (1.0 + 10.0 * bound) + 10.0 * bound)
        assert wl.gate(item, {item["key"]: bad}) is not None
    zeros = out[2].split("zeros=")[1].split()[0]
    z0 = float(zeros.split(",")[0])
    bad = (out[0], out[1], out[2].replace(zeros, f"{z0 + 1e-5!r},{zeros.split(',')[1]}"))
    assert wl.gate(item, {item["key"]: bad}) is not None


@pytest.mark.parametrize("cls,field", [("hke", "free_value"), ("green", "value"), ("map", "one_jump")])
def test_queries_exact_pairs(queries, cls, field):
    wl = queries
    base = _first(wl, cls=cls, role="base")
    group = [it for it in wl.items if it.get("group") == base["group"]]
    outputs = {it["key"]: wl.run(it) for it in group}
    for it in group:
        assert wl.gate(it, outputs) is None, it["key"]
    other = next(it for it in group if it["role"] != "base")
    bad = _edit(outputs[other["key"]], 0, field, lambda v: v * (1.0 + 40.0 * EPS))
    assert wl.gate(other, {**outputs, other["key"]: bad}) is not None
    if cls == "map":  # the base cells against the paper's bracket formulas
        bad = _edit(outputs[base["key"]], 0, field, lambda v: v * (1.0 + 1e-11))
        assert wl.gate(base, {**outputs, base["key"]: bad}) is not None


@pytest.fixture(scope="module")
def estimates():
    wl = workloads.Estimates(SEED, None)
    for m in ("geometry", "heatkernel", "green", "inequalities", "quadrature", "constants"):
        __import__("dkl." + m)
    wl.setup()
    return wl


def test_estimates(estimates):
    wl = estimates
    item = _first(wl, cls="ball_d1")
    out = wl.run(item)
    _check(wl, item, {item["key"]: out}, item["key"], (out[0] * (1.0 + 10.0 * 10.0 * wl.REL_TOL),))
    for cls, name in (("unified", "acc_unified_twojump"), ("green", None)):
        item = _first(wl, cls=cls, regime="twojump") if cls == "unified" else _first(wl, cls=cls)
        name = name or f"acc_green_{item['combo']}"
        out = wl.run(item)
        ceiling = inputs.FROZEN[name] * inputs.SLACK
        _check(wl, item, {item["key"]: out}, item["key"], (out[1] * 10.0 * ceiling, out[1]))
    item = _first(wl, cls="check", lemma="comp_AB")
    out = wl.run(item)
    _check(wl, item, {item["key"]: out}, item["key"], (out[0] - 1, 1) + out[2:])


@pytest.fixture(scope="module")
def oracle():
    wl = workloads.Oracle(SEED, None)
    for m in ("oracle", "special", "geometry", "quadrature"):
        __import__("dkl." + m)
    wl.setup()
    return wl


@pytest.mark.parametrize("kind,tol", [("p", "P_TOL"), ("survival", "SURV_TOL"), ("levy", "LEVY_TOL")])
def test_oracle_closed_forms(oracle, kind, tol):
    wl = oracle
    item = _first(wl, cls="cauchy", kind=kind)
    out = wl.run(item)
    bound = 10.0 * getattr(wl, tol)
    _check(wl, item, {item["key"]: out}, item["key"], (out[0] * (1.0 + 10.0 * bound),))


def test_oracle_kappa_and_grid(oracle):
    wl = oracle
    item = _first(wl, cls="kappa", gamma=0.5, h=1.0)
    out = wl.run(item)
    _check(wl, item, {item["key"]: out}, item["key"], (out[0] * (1.0 + 100.0 * wl.P_TOL),))
    item = _first(wl, cls="compare", idx=0)
    out = wl.run(item)
    samples, excluded, lo, hi, q, r2 = out
    _check(wl, item, {item["key"]: out}, item["key"], (samples, excluded, lo, hi, q, 0.9))
    ceiling = inputs.FROZEN["acc_oracle_0"] * inputs.SLACK
    assert wl.gate(item, {item["key"]: (samples, excluded, lo, 10.0 * ceiling, q, r2)}) is not None


def test_killing_identity_reference():
    """The d >= 2 identity the fixed killing-map items rely on: with beta = 0,
    C_d(q) = C_1(q) * |S^(d-2)| Gamma((d-1)/2) Gamma((alpha+1)/2) / (2 Gamma((d+alpha)/2)),
    and C vanishes at 0 and alpha - 1."""
    assert ref.killing_dim_factor(2, 1.0) == pytest.approx(2.0 * math.gamma(0.5) * 1.0 / (2 * math.gamma(1.5)))
    for alpha in (0.6, 1.3):
        assert abs(ref.killing_C1(alpha, (0, 0, 0, 0), 0.0)) < 1e-25
        assert abs(ref.killing_C1(alpha, (0, 0, 0, 0), alpha - 1.0)) < 1e-12
