"""Observability: the metrics registry, timelines and latency attribution.

``repro.obs`` is the substrate every layer reports into:

* :class:`MetricsRegistry` — named counters/gauges/histograms with
  labeled dimensions (``tier``, ``level``, ``op``, ``source``, ...),
  snapshot once per run; per-tier I/O accounting and the Fig. 10 latency
  breakdown are derived from it alone.
* :class:`TimelineSampler` — registry series sampled on the simulated
  clock, the run's time series.
* :class:`LatencyAttribution` / :class:`OpContext` — request-scoped
  latency provenance: every sampled operation carries a breakdown of its
  simulated latency by ``(component, tier)``, aggregated per percentile
  band and persisted in run artifacts (``repro-bench explain``).

Individual background jobs are not a registry series: the compaction
executor's job log (``db.executor.jobs``, off by default) records one
row per flush, trivial move and merge, and ``repro-bench report --trace``
writes it as a chrome trace. See ``docs/OBSERVABILITY.md`` for the
naming scheme, the job-log schema and worked examples.
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
]
