"""Tracing of betheq from outside the package.

`Tracer.install()` replaces chosen public functions with wrappers, both at
their defining module and at every other betheq module that bound the
same function object by name (``from .detlab import det_exact`` binds
``conjectures.det_exact``).  Calls between functions of one module go
through that module's globals, so they are caught too.  Each wrapped call
records a span (name, start, end, parent, attributes) in memory; the
counted-only functions record a call count and no span, because they are
called tens of thousands of times per pass.  `uninstall()` restores the
originals, so an untraced pass always runs the unpatched code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import mpmath

# (module, function) -> span group.  Functions sharing a group add their
# self times together.
SPANNED = {
    ("qfunctions", "elem_periodic"): "qfunctions.elem_periodic",
    ("qfunctions", "elem_twisted"): "qfunctions.elem_twisted",
    ("qfunctions", "elem_reflecting"): "qfunctions.elem_reflecting",
    ("qfunctions", "check_recursion_periodic"): "qfunctions.checks",
    ("qfunctions", "hyp_failures"): "qfunctions.checks",
    ("qfunctions", "verify_hyp_identity"): "qfunctions.checks",
    ("symfunc", "schur_nk"): "symfunc.schur_nk",
    ("detlab", "det_exact"): "detlab.det_exact",
    ("asmcounts", "asm_count"): "asmcounts",
    ("asmcounts", "asm_v"): "asmcounts",
    ("asmcounts", "n8"): "asmcounts",
    ("asmcounts", "asm_ht"): "asmcounts",
    ("cli", "run"): "cli.run",
    ("conjectures", "groundstate_schur_det"): "conjectures.groundstate_schur_det",
    ("conjectures", "verify_periodic_product"): "conjectures.verify_periodic_product",
    ("conjectures", "verify_twisted_product"): "conjectures.verify_twisted_product",
    ("conjectures", "verify_reflecting_product"): "conjectures.verify_reflecting_product",
    ("conjectures", "verify_component_sums"): "conjectures.verify_component_sums",
    ("bethe", "solve_roots"): "bethe.solve_roots",
    ("bethe", "bethe_residual"): "bethe.bethe_residual",
    ("bethe", "reflecting_double_product"): "bethe.reflecting_double_product",
    ("bethe", "component_sum_small"): "bethe.component_sum",
    ("bethe", "component_sum_large"): "bethe.component_sum",
    ("bethe", "wavefunction_component"): "bethe.wavefunction_component",
    ("bethe", "energy"): "bethe.energy",
    ("ed", "build_hamiltonian"): "ed.build_hamiltonian",
    ("ed", "groundstate"): "ed.groundstate",
}
COUNTED = {
    ("exact", "gen_binom"): "exact.gen_binom",
    ("exact", "falling_binom"): "exact.falling_binom",
}

# Rows of the seed baseline table in ROADMAP.md: (span group, n, seconds).
# The traced run reports the inclusive time of each row it executes.
ROADMAP_STAGES = [
    ("qfunctions.elem_periodic", 40, 0.19),
    ("qfunctions.elem_reflecting", 20, 0.28),
    ("qfunctions.elem_reflecting", 40, 2.4),
    ("conjectures.verify_periodic_product", 16, 0.04),
    ("conjectures.verify_reflecting_product", 10, 0.13),
    ("conjectures.verify_component_sums", 6, 1.6),
    ("conjectures.verify_component_sums", 7, 11.3),
    ("bethe.solve_roots/periodic", 30, 1.6),
]


def _span_attrs(group, args):
    """The size of the call: n, boundary, matrix dimension or L."""
    if not args:
        return {}
    first = args[0]
    if group == "bethe.solve_roots":
        return {"n": first.n, "boundary": first.boundary.value}
    if group == "detlab.det_exact":
        return {"dim": len(first)}
    if group == "ed.groundstate":
        return {"dim": first.shape[0]}
    if group == "ed.build_hamiltonian":
        return {"L": first}
    if isinstance(first, int) and group != "qfunctions.checks":
        return {"n": first}
    return {}


@dataclass
class Span:
    group: str
    start: float
    parent: int
    attrs: dict
    end: float = 0.0
    error: str | None = None
    result_bits: float | None = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def _spanning(self, group, fn):
        def wrapper(*args, **kwargs):
            span = Span(group, 0.0, self._stack[-1] if self._stack else -1,
                        _span_attrs(group, args))
            index = len(self.spans)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if group == "bethe.solve_roots":
                span.result_bits = _bits(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counting(self, group, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[group] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "betheq" or name.startswith("betheq.")]
        for table, make in ((SPANNED, self._spanning), (COUNTED, self._counting)):
            for (modname, attr), group in table.items():
                original = getattr(sys.modules[f"betheq.{modname}"], attr)
                wrapper = make(group, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, name, original))
                            setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def self_times(self):
        """Self time per span group: duration minus the time covered by
        direct child spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out = defaultdict(float)
        for i, span in enumerate(self.spans):
            out[span.group] += span.end - span.start - child[i]
        return out

    def layer_metrics(self, overhead_s):
        """The per-layer metrics named in BENCHMARK.json, in its units."""
        selfs = self.self_times()
        by_group = defaultdict(list)
        for span in self.spans:
            by_group[span.group].append(span)

        def inclusive(group):
            return sum(s.end - s.start for s in by_group[group])

        metrics = {
            "exact.gen_binom.calls": (self.counts["exact.gen_binom"], "count"),
            "exact.falling_binom.calls": (self.counts["exact.falling_binom"], "count"),
        }
        for group in ("qfunctions.elem_periodic", "qfunctions.elem_twisted",
                      "qfunctions.elem_reflecting", "qfunctions.checks",
                      "symfunc.schur_nk", "detlab.det_exact", "asmcounts",
                      "cli.run", "bethe.solve_roots", "bethe.bethe_residual",
                      "bethe.reflecting_double_product", "bethe.component_sum",
                      "bethe.wavefunction_component", "bethe.energy",
                      "ed.build_hamiltonian", "ed.groundstate"):
            metrics[f"{group}.self_s"] = (selfs[group], "s")
        dets = by_group["detlab.det_exact"]
        metrics["detlab.det_exact.calls"] = (len(dets), "count")
        metrics["detlab.det_exact.max_dim"] = (
            max((s.attrs["dim"] for s in dets), default=0), "count")
        verifiers = [g for g in SPANNED.values() if g.startswith("conjectures.")]
        for group in verifiers:
            if group != "conjectures.groundstate_schur_det":
                metrics[f"{group}.s"] = (inclusive(group), "s")
        metrics["conjectures.self_s"] = (sum(selfs[g] for g in verifiers), "s")
        solves = by_group["bethe.solve_roots"]
        failed = [s for s in solves if s.error]
        metrics["bethe.solve_roots.calls"] = (len(solves), "count")
        metrics["bethe.solve_roots.failed"] = (len(failed), "count")
        metrics["bethe.solve_roots.failed_s"] = (
            sum(s.end - s.start for s in failed), "s")
        # nothing is wasted when a workload solves no roots
        metrics["bethe.solve_roots.ok_ratio"] = (
            (len(solves) - len(failed)) / len(solves) if solves else 1.0, "ratio")
        # 0 when no root set was certified in the run
        metrics["bethe.residual_bits_min"] = (
            min((s.result_bits for s in solves if s.result_bits is not None),
                default=0.0), "bits")
        gs = by_group["ed.groundstate"]
        dim = max((s.attrs["dim"] for s in gs), default=0)
        metrics["ed.dim_max"] = (dim, "count")
        # computed from the dimension, not measured: dense complex128 H
        metrics["ed.h_bytes_max"] = (dim * dim * 16, "bytes")
        metrics["trace.overhead_s"] = (overhead_s, "s")
        return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    def stages(self):
        """Inclusive times of the ROADMAP baseline rows this run executed."""
        rows = []
        for stage, n, roadmap_s in ROADMAP_STAGES:
            group, _, boundary = stage.partition("/")
            for span in self.spans:
                if (span.group == group and span.attrs.get("n") == n
                        and span.attrs.get("boundary", boundary) == boundary
                        and not span.error):
                    rows.append({"stage": stage, "n": n, "roadmap_s": roadmap_s,
                                 "traced_s": span.end - span.start})
                    break
        return rows

    def dump(self):
        return [{"group": s.group, "start": s.start, "end": s.end,
                 "parent": s.parent, "attrs": s.attrs, "error": s.error}
                for s in self.spans]


def _bits(root_set):
    """-log2 of the Bethe residual of a root set; a residual of exactly 0
    counts as the root set's precision."""
    residual = root_set.residual
    if residual == 0:
        return float(root_set.precision)
    return -float(mpmath.log(residual, 2))
