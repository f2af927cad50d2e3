"""Spans around cutcount's layers, recorded from outside the package.

`traced(tracer)` replaces public functions in the module namespaces that
call them with wrappers that record one span per call: name, start, end,
parent span and document id. Spans stay in memory; `layer_metrics` turns
them into per-layer times and exact counts once the traced pass is over.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

# (module, name) pairs: the namespace whose global the caller looks up
WRAPPED = (
    ("cli", "load_document"),
    ("cli", "build_lattice"),
    ("cli", "lattice_from_wiring"),
    ("cli", "mobius_polynomial"),
    ("cli", "f_from_mobius"),
    ("cli", "f_vector_oracle"),
    ("cli", "sweep_f_vector"),
    ("exactgeom", "intersect"),
    ("exactgeom", "validate_semilattice"),
    ("wiring", "validate_semilattice"),
    ("wiring", "validate_wiring"),
    ("faces", "intersect"),
)
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in WRAPPED)
DOC = "doc"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    doc: int
    result: Any = None


class Tracer:
    """In-memory span store; `doc` opens the root span of one document."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._doc = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self._doc)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def doc(self, doc_id: int):
        self._doc = doc_id
        span = self._open(DOC)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        def traced_call(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            # counts are taken after the document ends, outside every span
            span.result = result
            return result

        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    originals = []
    try:
        for module_name, name in WRAPPED:
            module = importlib.import_module(f"cutcount.{module_name}")
            fn = getattr(module, name)
            originals.append((module, name, fn))
            setattr(module, name, tracer.wrap(fn, f"{module_name}.{name}"))
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


def _leq_pairs(L) -> int:
    return sum(len(L.above(x)) for x in L.ids()) - len(L.ids())


def take_counts(spans: list[Span], counts: dict[str, int]) -> None:
    """Add the exact work counts carried by finished spans, then drop the
    results so traced documents do not stay alive."""
    for span in spans:
        counts[f"calls.{span.name}"] += 1
        result, span.result = span.result, None
        if result is None:
            continue
        if span.name == "cli.build_lattice":
            counts["exactgeom.flats"] += len(result.ids())
        elif span.name.endswith(".validate_semilattice"):
            counts["poset.leq_pairs"] += _leq_pairs(result)
        elif span.name == "cli.f_vector_oracle":
            counts["faces.faces"] += sum(result)
        elif span.name == "wiring.validate_wiring":
            counts["wiring.events"] += len(result.events)


def span_times(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self seconds per span name. Self time is a span's
    duration minus its children's; children must nest inside parents."""
    incl: dict[str, float] = defaultdict(float)
    child: list[float] = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                raise RuntimeError(f"span {span.name} is not inside its parent {parent.name}")
            child[span.parent] += span.end - span.start
    selft: dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child):
        incl[span.name] += span.end - span.start
        selft[span.name] += span.end - span.start - covered
    return incl, selft


def firing_errors(counts: dict[str, int], bypassed: frozenset[str]) -> list[str]:
    """Wrapper self-test: each wrapped function is called where the
    workload uses it and never where the workload bypasses it."""
    errors = []
    for name in SPAN_NAMES:
        calls = counts[f"calls.{name}"]
        if name in bypassed and calls:
            errors.append(f"{name} ran {calls} times on a workload that bypasses it")
        elif name not in bypassed and not calls:
            errors.append(f"{name} never ran on a workload that uses it")
    return errors


def layer_metrics(incl, selft, counts, docs: int, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: `_s` totals over the traced pass, `_ms` means per
    document, counts exact."""
    faces = counts["faces.faces"]
    calls = counts["calls.exactgeom.intersect"]
    traced_s = incl[DOC]
    return {
        "faces.oracle_s": (incl["cli.f_vector_oracle"], "s"),
        "faces.us_per_face": (incl["cli.f_vector_oracle"] / faces * 1e6 if faces else 0.0, "us"),
        "faces.intersect_calls": (counts["calls.faces.intersect"], "count"),
        "faces.intersect_s": (incl["faces.intersect"], "s"),
        "faces.faces": (faces, "count"),
        "exactgeom.build_lattice_s": (selft["cli.build_lattice"], "s"),
        "exactgeom.intersect_s": (incl["exactgeom.intersect"], "s"),
        "exactgeom.intersect_calls": (calls, "count"),
        "exactgeom.flats": (counts["exactgeom.flats"], "count"),
        "exactgeom.new_flat_ratio": (counts["exactgeom.flats"] / calls if calls else 0.0, "ratio"),
        "poset.validate_s": (incl["exactgeom.validate_semilattice"] + incl["wiring.validate_semilattice"], "s"),
        "poset.leq_pairs": (counts["poset.leq_pairs"], "count"),
        "poset.mobius_s": (incl["cli.mobius_polynomial"], "s"),
        "poset.fpoly_s": (incl["cli.f_from_mobius"], "s"),
        "wiring.validate_s": (incl["wiring.validate_wiring"], "s"),
        "wiring.lattice_s": (selft["cli.lattice_from_wiring"], "s"),
        "wiring.sweep_s": (incl["cli.sweep_f_vector"], "s"),
        "wiring.events": (counts["wiring.events"], "count"),
        "cli.load_ms": (selft["cli.load_document"] / docs * 1e3, "ms"),
        "cli.self_ms": (selft[DOC] / docs * 1e3, "ms"),
        "trace.docs": (docs, "count"),
        "trace.doc_s": (traced_s, "s"),
        "trace.untraced_doc_s": (untraced_s, "s"),
        "trace.overhead_pct": ((traced_s / untraced_s - 1) * 100, "%"),
        "trace.spans": (sum(counts[f"calls.{name}"] for name in SPAN_NAMES) + docs, "count"),
    }


def baseline_table(workload: str, incl, selft, docs: int, untraced_s: float) -> str:
    """One row in the ROADMAP Baseline columns plus the rest of the
    document time, so old and new numbers line up. Self times of all spans
    sum to the traced document time."""
    lattice = incl["cli.build_lattice"] + incl["cli.lattice_from_wiring"]
    mobius = incl["cli.mobius_polynomial"] + incl["cli.f_from_mobius"]
    oracle = incl["cli.f_vector_oracle"]
    sweep = incl["cli.sweep_f_vector"]
    load = incl["cli.load_document"]
    own = selft[DOC]
    total = incl[DOC]
    head = ("workload", "docs", "lattice", "Möbius + f-poly", "face oracle", "sweep",
            "load", "cli self", "traced total", "untraced total")
    row = (workload, str(docs), *(f"{v:.3f} s" for v in
           (lattice, mobius, oracle, sweep, load, own, total, untraced_s)))
    lines = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head), "| " + " | ".join(row) + " |"]
    shares = ", ".join(
        f"{name} {selft[name] / total:.1%}" for name in (DOC, *SPAN_NAMES) if selft[name]
    )
    lines.append(f"self-time shares: {shares}")
    return "\n".join(lines)
