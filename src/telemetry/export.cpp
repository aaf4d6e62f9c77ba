#include "telemetry/export.hpp"

#include <set>
#include <string>

namespace ltnc::telemetry {
namespace {

// `{label,le="..."}` / `{label}` / `` — composes the preformatted
// `key="value"` label with an optional histogram `le`.
std::string label_block(const std::string& label, const std::string& le = {}) {
  if (label.empty() && le.empty()) return {};
  std::string out = "{";
  out += label;
  if (!le.empty()) {
    if (!label.empty()) out += ",";
    out += "le=\"" + le + "\"";
  }
  out += "}";
  return out;
}

// # HELP / # TYPE headers, once per metric name.
void header(std::ostream& out, std::set<std::string>& seen,
            const std::string& name, std::string_view type,
            std::string_view help) {
  if (!seen.insert(name).second) return;
  out << "# HELP " << name << " " << help << "\n";
  out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

void render_prometheus(std::ostream& out, const Snapshot& snap) {
  std::set<std::string> seen;
  for (const auto& c : snap.counters) {
    header(out, seen, c.name, "counter", "ltnc runtime counter");
    out << c.name << label_block(c.label) << " " << c.value << "\n";
  }
  for (const auto& g : snap.gauges) {
    header(out, seen, g.name, "gauge", "ltnc runtime gauge");
    out << g.name << label_block(g.label) << " " << g.value << "\n";
  }
  for (const auto& h : snap.histograms) {
    header(out, seen, h.name, "histogram",
           "ltnc power-of-2 latency histogram (sum is a bucket-midpoint "
           "estimate)");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // cumulative: sparse emission is valid
      cum += h.buckets[i];
      out << h.name << "_bucket"
          << label_block(h.label, std::to_string(Histogram::bucket_ceil(i)))
          << " " << cum << "\n";
    }
    out << h.name << "_bucket" << label_block(h.label, "+Inf") << " " << cum
        << "\n";
    out << h.name << "_sum" << label_block(h.label) << " ";
    metrics::write_double(out, h.sum_estimate());
    out << "\n";
    out << h.name << "_count" << label_block(h.label) << " " << cum << "\n";
  }
}

std::vector<metrics::RunRecord> snapshot_records(const Snapshot& snap) {
  std::vector<metrics::RunRecord> rows;
  rows.reserve(snap.counters.size() + snap.gauges.size() +
               snap.histograms.size());
  // Every row carries the full column set so the CSV writer's
  // uniform-layout check holds across mixed metric kinds.
  auto base = [](const std::string& name, const std::string& label,
                 std::string_view kind) {
    metrics::RunRecord r;
    r.set("metric", name);
    r.set("label", label);
    r.set("kind", std::string(kind));
    return r;
  };
  auto pad_histogram_columns = [](metrics::RunRecord& r) {
    r.set("count", std::uint64_t{0});
    r.set("p50", 0.0);
    r.set("p99", 0.0);
    r.set("p999", 0.0);
    r.set("mean", 0.0);
  };
  for (const auto& c : snap.counters) {
    auto r = base(c.name, c.label, "counter");
    r.set("value", static_cast<double>(c.value));
    pad_histogram_columns(r);
    rows.push_back(std::move(r));
  }
  for (const auto& g : snap.gauges) {
    auto r = base(g.name, g.label, "gauge");
    r.set("value", static_cast<double>(g.value));
    pad_histogram_columns(r);
    rows.push_back(std::move(r));
  }
  for (const auto& h : snap.histograms) {
    auto r = base(h.name, h.label, "histogram");
    const std::uint64_t n = h.count();
    r.set("value", h.sum_estimate());
    r.set("count", n);
    r.set("p50", h.quantile(0.50));
    r.set("p99", h.quantile(0.99));
    r.set("p999", h.quantile(0.999));
    r.set("mean", n == 0 ? 0.0 : h.sum_estimate() / static_cast<double>(n));
    rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace ltnc::telemetry
