"""``repro.trace`` — end-to-end observability for synthesis runs.

Three layers (see ``docs/observability.md``):

* :mod:`repro.trace.core` — hierarchical spans with attributes/events,
  a per-run :class:`Tracer`, the zero-cost :data:`NULL_TRACER`, and the
  serialized-tree format that crosses service boundaries.
* :mod:`repro.trace.export` — Chrome ``trace_event`` JSON, collapsed
  flamegraph stacks, and a schema validator for the CI smoke gate.
* :mod:`repro.trace.log` — structured (plain or JSON-lines) logging.
"""

from .core import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    iter_span_dicts,
    span_duration,
)
from .export import (
    chrome_trace,
    flamegraph_lines,
    validate_chrome_trace,
    write_chrome_trace,
    write_flamegraph,
)
from .log import configure as configure_logging
from .log import get_logger

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "iter_span_dicts",
    "span_duration",
    "chrome_trace",
    "flamegraph_lines",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_flamegraph",
    "configure_logging",
    "get_logger",
]
