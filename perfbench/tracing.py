"""Per-layer tracing of llfisher from outside the package.

``Tracer.installed()`` replaces each public function listed in ``LAYERS``
by a wrapper that records a span, in every llfisher module that binds the
function (``llfisher.fisher.solve_bethe``, ``llfisher.imaging.box_quadrature``
and so on), and puts the originals back on exit.  Spans stay in memory;
``layer_metrics`` turns them into per-layer self times and counters.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _rows(args, kwargs, table) -> dict:
    return {"rows": table.n_terms}


def _point_rows(args, kwargs, result) -> dict:
    return {"point_rows": len(result[0]) * args[0].n_terms}


def _points(args, kwargs, result) -> dict:
    return {"points": len(result.grid)}


def _imag_residue(args, kwargs, report) -> dict:
    return {"imag_residue": report.method["qfi_imag_residue"]}


def _residual(args, kwargs, solution) -> dict:
    return {"residual": solution.residual}


def _distribution(args, kwargs, dist) -> dict:
    return {
        "images": len(dist.images),
        "live": int(np.count_nonzero(dist.probs)),
        "prob_sum_dev": abs(float(dist.probs.sum()) - 1.0),
    }


def _mle(args, kwargs, result) -> dict:
    return {"needed": len(set(args[0])) * len(result[1])}


# (span name, module, public function, observer of (args, kwargs, result))
LAYERS = (
    ("fisher.sweep", "fisher", "sweep", _points),
    ("fisher.lmax", "fisher", "lmax", None),
    ("fisher.cfi", "fisher", "cfi", None),
    ("fisher.fisher_report", "fisher", "fisher_report", _imag_residue),
    ("fisher.qfi_analytic", "fisher", "qfi_analytic", None),
    ("bethe.solve_bethe", "bethe", "solve_bethe", _residual),
    ("bethe.norm_sq", "bethe", "norm_sq", None),
    ("bethe.dnorm_sq_dc", "bethe", "dnorm_sq_dc", None),
    ("wavefunction.amplitudes", "wavefunction", "amplitudes", _rows),
    ("wavefunction.eval_batch", "wavefunction", "eval_batch", _point_rows),
    ("integrals.simplex_quadrature", "integrals", "simplex_quadrature", None),
    ("integrals.box_quadrature", "integrals", "box_quadrature", None),
    ("imaging.image_distribution", "imaging", "image_distribution", _distribution),
    ("imaging.mle_estimate", "imaging", "mle_estimate", _mle),
    ("imaging.sample_images", "imaging", "sample_images", None),
)
ROOT = "cli"
QFI_SPANS = ("fisher.fisher_report", "fisher.qfi_analytic")


@dataclass
class Span:
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float = 0.0
    end: float = 0.0
    info: Optional[dict] = None


class Tracer:
    """Spans of one traced run, kept in memory in start order."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.missing: list = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self):
        """The span around one CLI invocation."""
        span = self._open(ROOT)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                span.info = observe(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every llfisher binding of each layer function, then restore."""
        modules = [m for n, m in list(sys.modules.items()) if n == "llfisher" or n.startswith("llfisher.")]
        patched = []
        try:
            for name, module, func, observe in LAYERS:
                original = getattr(sys.modules.get(f"llfisher.{module}"), func, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original, observe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass whose wall time was ``wall_s``."""
    own = self_times(spans)
    names = [s.name for s in spans]

    def total(which, values) -> float:
        return float(sum(v for n, v in zip(names, values) if n in which))

    def calls(which) -> int:
        return sum(n in which for n in names)

    def info_sum(which, field):
        return sum(s.info[field] for s in spans if s.name in which and s.info)

    def info_max(which, field) -> float:
        return float(max((s.info[field] for s in spans if s.name in which and s.info), default=0.0))

    def under(parent_names, child_name) -> list:
        """(parent, child) pairs of child spans directly under one of parent_names."""
        return [
            (spans[s.parent], s)
            for s in spans
            if s.name == child_name and s.parent >= 0 and spans[s.parent].name in parent_names
        ]

    durations = [s.end - s.start for s in spans]
    # the QFI table is the first amplitude table built directly under a
    # QFI span; the CFI quadrature builds a second one under fisher_report
    first_table = {}
    for parent, child in under(QFI_SPANS, "wavefunction.amplitudes"):
        first_table.setdefault(id(parent), child.info["rows"])
    mle_computed = sum(
        s.info["images"] for _, s in under(("imaging.mle_estimate",), "imaging.image_distribution")
    )
    mle_needed = info_sum(("imaging.mle_estimate",), "needed")

    self_parts = {
        "cli.self_s": total((ROOT,), own),
        "fisher.dispatch.self_s": total(("fisher.sweep", "fisher.lmax", "fisher.cfi"), own),
        "fisher.qfi_assembly.s": total(QFI_SPANS, own),
        "integrals.simplex_quadrature.self_s": total(("integrals.simplex_quadrature",), own),
        "integrals.box_quadrature.self_s": total(("integrals.box_quadrature",), own),
        "wavefunction.amplitudes.s": total(("wavefunction.amplitudes",), own),
        "wavefunction.eval_batch.s": total(("wavefunction.eval_batch",), own),
        "bethe.solve.s": total(("bethe.solve_bethe",), own),
        "bethe.norm.s": total(("bethe.norm_sq", "bethe.dnorm_sq_dc"), own),
        "imaging.distribution.self_s": total(("imaging.image_distribution",), own),
        "imaging.mle.self_s": total(("imaging.mle_estimate",), own),
        "imaging.sample.s": total(("imaging.sample_images",), own),
    }
    self_sum = sum(self_parts.values())
    return {
        **self_parts,
        "fisher.qfi.calls": calls(QFI_SPANS),
        "fisher.qfi.pairs": sum(r * r for r in first_table.values()),
        "fisher.points": info_sum(("fisher.sweep",), "points"),
        "fisher.lmax.objective_evals": len(under(("fisher.lmax",), "fisher.cfi")),
        "fisher.max_imag_residue": info_max(("fisher.fisher_report",), "imag_residue"),
        "integrals.simplex_quadrature.calls": calls(("integrals.simplex_quadrature",)),
        "integrals.box_quadrature.calls": calls(("integrals.box_quadrature",)),
        "wavefunction.amplitudes.calls": calls(("wavefunction.amplitudes",)),
        "wavefunction.amplitudes.rows": info_sum(("wavefunction.amplitudes",), "rows"),
        "wavefunction.eval_batch.calls": calls(("wavefunction.eval_batch",)),
        "wavefunction.eval_batch.point_rows": info_sum(("wavefunction.eval_batch",), "point_rows"),
        "bethe.solve.calls": calls(("bethe.solve_bethe",)),
        "bethe.max_residual": info_max(("bethe.solve_bethe",), "residual"),
        "imaging.distribution.calls": calls(("imaging.image_distribution",)),
        "imaging.images": info_sum(("imaging.image_distribution",), "images"),
        "imaging.images_live": info_sum(("imaging.image_distribution",), "live"),
        "imaging.max_prob_sum_dev": info_max(("imaging.image_distribution",), "prob_sum_dev"),
        "imaging.mle.s": total(("imaging.mle_estimate",), durations),
        "imaging.mle.images_computed": mle_computed,
        "imaging.mle.images_needed": mle_needed,
        "imaging.mle.useful_frac": mle_needed / mle_computed if mle_computed else 0.0,
        "trace.wall_s": wall_s,
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": wall_s - self_sum,
        "trace.spans": len(spans),
    }


def median_metrics(per_pass: list) -> dict:
    """Metric-wise median over traced passes (counters repeat exactly)."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
