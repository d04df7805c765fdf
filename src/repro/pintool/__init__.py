"""Pin-analog instrumentation and post-processing (Section IV-B).

The paper instruments the interpreter binary once — annotating each
static instruction (or whole function) with an overhead category — and
reuses the annotation for every guest program. This package mirrors that
pipeline:

* :mod:`~repro.pintool.collector` aggregates per-PC statistics from a
  trace, including origin PCs for caller-dependent functions.
* :mod:`~repro.pintool.annotate` holds the annotation tables: category
  rules per site name and the origin-dependent rules for shared helpers
  such as ``lookdict``.
* :mod:`~repro.pintool.postprocess` resolves function-granularity
  (UNRESOLVED) instructions using the origin rules and charges every
  instruction its simple-core cycles (:func:`attribute`), from which
  every per-category breakdown derives.
"""

from .annotate import AnnotationTable, default_annotations
from .collector import PCStats, StatsCollector
from .postprocess import (
    Attribution,
    Breakdown,
    attribute,
    resolve_categories,
)

__all__ = [
    "AnnotationTable", "default_annotations", "PCStats", "StatsCollector",
    "Attribution", "Breakdown", "attribute", "resolve_categories",
]
