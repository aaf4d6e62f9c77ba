// Snapshot renderers — the bridge from the in-process registry to the
// outside world.
//
//   render_prometheus   text exposition format (the thing a Prometheus
//                       scrape job or `curl | promtool check metrics`
//                       consumes). Histograms come out as classic
//                       cumulative `_bucket{le=...}` series with the
//                       power-of-2 bucket ceilings as thresholds, plus
//                       `_count` and a midpoint-estimated `_sum`.
//
//   snapshot_records    flattens a Snapshot into metrics::RunRecord rows
//                       (one per series; histograms carry count/p50/p99/
//                       p999/mean) so the one JSON/CSV/table writer,
//                       metrics/emitter — and bench/diff_bench.py — can
//                       ingest live telemetry with zero new plumbing.
#pragma once

#include <ostream>
#include <string_view>
#include <vector>

#include "metrics/emitter.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::telemetry {

/// Prometheus text exposition. `help_prefix` seeds the # HELP lines
/// (e.g. "ltnc"); every metric gets # HELP / # TYPE headers once, label
/// values are escaped per the exposition spec.
void render_prometheus(std::ostream& out, const Snapshot& snap);

/// One RunRecord per series. Counter rows: {metric, label, value}.
/// Gauge rows: {metric, label, value}. Histogram rows:
/// {metric, label, count, p50, p99, p999, mean}.
std::vector<metrics::RunRecord> snapshot_records(const Snapshot& snap);

}  // namespace ltnc::telemetry
