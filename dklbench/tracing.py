"""Per-layer tracing of ``dkl`` from outside the program.

``Tracer.install`` replaces each traced public function with a wrapper in
the namespace of every loaded ``dkl`` module that holds it (so
``panel_nodes`` is wrapped inside ``dkl.killing`` as well as in
``dkl.quadrature``); ``uninstall`` puts the originals back.  Wrappers only
observe: arguments and results pass through untouched, so traced and
untraced runs compute the same bits.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by ``save``.  A span's self time is its duration minus the time
its child spans cover.  Functions called once per point (the scalar weight
and the jump kernel) get counts only, no spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, function, what is recorded besides calls)
#   span      a span per call: calls, s (inclusive), self_s
#   count     calls only
#   elements  calls and array elements, no span
#   nodes     calls and returned quadrature nodes, no span
#   evals     a span plus integrand evaluations, all rounds and the accepted one
#   span+elements, check (a span also named after the lemma id)
LAYERS = [
    ("geometry", "weight_from_heights", "count"),
    ("geometry", "eval_J", "count"),
    ("geometry", "weight_from_heights_arr", "elements"),
    ("quadrature", "integrate_panels", "evals"),
    ("quadrature", "panel_nodes", "nodes"),
    ("killing", "compute_C", "span"),
    ("killing", "solve_q", "span"),
    ("killing", "scan_shape", "span"),
    ("heatkernel", "hke_closed", "span"),
    ("heatkernel", "dominance_map", "span"),
    ("heatkernel", "twojump_ball_integral", "span"),
    ("heatkernel", "hke_unified", "span"),
    ("green", "green_estimate", "span"),
    ("green", "green_by_time_integration", "span"),
    ("inequalities", "check", "check"),
    ("oracle", "oracle_kappa", "span"),
    ("oracle", "compare_oracle_vs_estimate", "span"),
    ("oracle", "oracle_p", "span"),
    ("oracle", "oracle_survival", "span"),
    ("special", "one_minus_scaled_I", "span+elements"),
    ("special", "bessel_I_scaled_arr", "span+elements"),
    ("special", "stable_one_density", "span"),
    ("cli", "main", "span"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []
        self.stats: dict[str, float] = defaultdict(float)

    # -- aggregates --------------------------------------------------------

    def reset_stats(self) -> dict[str, float]:
        """Return the aggregates gathered since the last reset and start anew."""
        out, self.stats = dict(self.stats), defaultdict(float)
        return out

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, names, fn, args, kwargs):
        idx = len(self.span_start)
        self.span_name.append(self._nid(names[-1]))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            child = self._child.pop()
            dur = t1 - t0
            self.span_start[idx] = t0
            self.span_end[idx] = t1
            if self._child:
                self._child[-1] += dur
            st = self.stats
            for name in names:
                st[name + ".calls"] += 1
                st[name + ".s"] += dur
                st[name + ".self_s"] += dur - child

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        tracer = self  # stats is rebound on reset, so wrappers read it through here

        if kind == "count":

            def wrapper(*args, **kwargs):
                tracer.stats[name + ".calls"] += 1
                return fn(*args, **kwargs)

        elif kind == "elements":

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.stats[name + ".calls"] += 1
                tracer.stats[name + ".elements"] += np.size(out)
                return out

        elif kind == "nodes":

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                tracer.stats[name + ".calls"] += 1
                tracer.stats[name + ".nodes"] += len(out[0])
                return out

        elif kind == "span":

            def wrapper(*args, **kwargs):
                return tracer._span((name,), fn, args, kwargs)

        elif kind == "span+elements":

            def wrapper(*args, **kwargs):
                out = tracer._span((name,), fn, args, kwargs)
                tracer.stats[name + ".elements"] += np.size(out)
                return out

        elif kind == "check":

            def wrapper(lemma_id, *args, **kwargs):
                return tracer._span((name, f"{name}.{lemma_id}"), fn, (lemma_id,) + args, kwargs)

        elif kind == "evals":

            def wrapper(f, *args, **kwargs):
                sizes = []

                def counted(nodes):
                    sizes.append(len(nodes))
                    return f(nodes)

                try:
                    out = tracer._span((name,), fn, (counted,) + args, kwargs)
                except Exception:
                    tracer.stats[name + ".evals"] += sum(sizes)
                    raise
                tracer.stats[name + ".evals"] += sum(sizes)
                tracer.stats[name + ".final_evals"] += sizes[-1]
                return out

        else:
            raise ValueError(kind)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k == "dkl" or k.startswith("dkl.")}
        for short, func, kind in LAYERS:
            home = mods.get("dkl." + short)
            if home is None:
                continue
            orig = getattr(home, func)
            wrapper = self._wrap(f"{short}.{func}", kind, orig)
            for mod in mods.values():
                if getattr(mod, func, None) is orig:
                    self._patches.append((mod, func, orig))
                    setattr(mod, func, wrapper)

    def uninstall(self) -> None:
        for mod, func, orig in reversed(self._patches):
            setattr(mod, func, orig)
        self._patches.clear()

    def save(self, path, summary: dict) -> None:
        """Spans as flat arrays (name index, start, end, parent index; -1 for
        none) plus the names and the run's per-layer summary as JSON."""
        import json

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            summary=np.array(json.dumps(summary)),
        )
