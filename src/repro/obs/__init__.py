"""Observability: the metrics registry and the simulated-clock tracer.

``repro.obs`` is the substrate every layer reports into:

* :class:`MetricsRegistry` — named counters/gauges/histograms with
  labeled dimensions (``tier``, ``level``, ``op``, ``source``, ...),
  snapshot once per run; per-tier I/O accounting and the Fig. 10 latency
  breakdown are derived from it alone.
* :class:`Tracer` — ``with tracer.span("compaction", tier="tlc"): ...``
  spans stamped with *simulated* time, emitted as chrome-trace events
  (JSONL on disk, loadable in chrome://tracing / Perfetto).
* :class:`LatencyAttribution` / :class:`OpContext` — request-scoped
  latency provenance: every sampled operation carries a breakdown of its
  simulated latency by ``(component, tier)``, aggregated per percentile
  band and persisted in run artifacts (``repro-bench explain``).

See ``docs/OBSERVABILITY.md`` for the naming scheme, the trace schema
and worked examples.
"""

from repro.obs.attribution import (
    BAND_LABELS,
    BANDS,
    LatencyAttribution,
    OpContext,
    attribution_table,
    band_breakdown,
    diff_attribution,
    merge_attributions,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    View,
    exponential_buckets,
    label_key,
    percentile_from_buckets,
)
from repro.obs.timeline import TimelineSampler, merge_timelines
from repro.obs.tracing import (
    NOOP_TRACER,
    Tracer,
    jsonl_to_chrome_json,
    read_jsonl,
)

__all__ = [
    "BANDS",
    "BAND_LABELS",
    "LatencyAttribution",
    "OpContext",
    "attribution_table",
    "band_breakdown",
    "diff_attribution",
    "merge_attributions",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "View",
    "DEFAULT_LATENCY_BUCKETS",
    "exponential_buckets",
    "label_key",
    "percentile_from_buckets",
    "TimelineSampler",
    "merge_timelines",
    "Tracer",
    "NOOP_TRACER",
    "jsonl_to_chrome_json",
    "read_jsonl",
]
