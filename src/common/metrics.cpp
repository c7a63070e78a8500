#include "common/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace siphoc {
namespace {

constexpr std::string_view kOverflowLabel = "(overflow)";

// Minimal JSON string escaping: quotes, backslashes, control chars. Metric
// names and node names are ASCII identifiers in practice, but the exporter
// must not emit broken documents for unusual input.
void append_json_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string format_double(double v) {
  // %.17g round-trips but is noisy; %g at 15 digits is lossless for every
  // value the stack produces (byte counts, millisecond latencies).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

// CSV fields are identifiers and numbers; quote only when a delimiter,
// quote, or newline forces it (RFC 4180 style).
std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++counts_[i];
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  const std::size_t n = std::min(counts_.size(), other.counts_.size());
  for (std::size_t i = 0; i < n; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

MetricsRegistry::SeriesKey MetricsRegistry::admit(std::string_view name,
                                                  std::string_view node,
                                                  std::string_view component) {
  SeriesKey key{std::string(name), std::string(node), std::string(component)};
  auto& seen = cardinality_[key.name];
  if (auto it = seen.find(key); it != seen.end()) return key;
  if (seen.size() >= label_cap_) {
    SeriesKey overflow{key.name, std::string(kOverflowLabel),
                       std::string(kOverflowLabel)};
    seen.emplace(overflow, 1);  // idempotent; overflow never counts again
    return overflow;
  }
  seen.emplace(key, 1);
  return key;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view node,
                                  std::string_view component) {
  SeriesKey key = admit(name, node, component);
  auto& slot = counters_[key];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view node,
                              std::string_view component) {
  SeriesKey key = admit(name, node, component);
  auto& slot = gauges_[key];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds,
                                      std::string_view node,
                                      std::string_view component) {
  SeriesKey key = admit(name, node, component);
  auto& slot = histograms_[key];
  if (!slot) {
    slot = std::make_unique<Histogram>(
        std::vector<double>(bounds.begin(), bounds.end()));
  }
  return *slot;
}

void MetricsRegistry::record_span(std::string_view name,
                                  std::string_view component,
                                  std::string_view node, TimePoint t_start,
                                  TimePoint t_end) {
  if (span_capacity_ == 0) {
    ++spans_recorded_;
    return;
  }
  SpanRecord rec{t_start, t_end, std::string(component), std::string(node),
                 std::string(name)};
  if (span_ring_.size() < span_capacity_) {
    span_ring_.push_back(std::move(rec));
  } else {
    span_ring_[span_head_] = std::move(rec);
    span_head_ = (span_head_ + 1) % span_capacity_;
  }
  ++spans_recorded_;
}

void MetricsRegistry::set_span_capacity(std::size_t capacity) {
  // Re-linearise oldest-first, then trim from the front.
  std::vector<SpanRecord> linear = spans();
  if (linear.size() > capacity) {
    linear.erase(linear.begin(),
                 linear.begin() + static_cast<std::ptrdiff_t>(linear.size() -
                                                             capacity));
  }
  span_ring_ = std::move(linear);
  span_capacity_ = capacity;
  span_head_ = 0;  // oldest-first: a full ring overwrites index 0 next
}

std::vector<SpanRecord> MetricsRegistry::spans() const {
  std::vector<SpanRecord> out;
  out.reserve(span_ring_.size());
  for (std::size_t i = 0; i < span_ring_.size(); ++i) {
    std::size_t idx = i;
    if (span_ring_.size() == span_capacity_) {
      idx = (span_head_ + i) % span_ring_.size();
    }
    out.push_back(span_ring_[idx]);
  }
  return out;
}

std::uint64_t MetricsRegistry::spans_dropped() const {
  return spans_recorded_ - span_ring_.size();
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const auto& [key, counter] : counters_) {
    if (key.name == name) total += counter->value();
  }
  return total;
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             std::string_view node,
                                             std::string_view component) const {
  SeriesKey key{std::string(name), std::string(node), std::string(component)};
  auto it = counters_.find(key);
  return it == counters_.end() ? nullptr : it->second.get();
}

std::string MetricsRegistry::to_json(std::size_t merged_cells) const {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema\": \"siphoc.metrics.v1\",\n  \"emitted_at_us\": ";
  out += std::to_string(now().time_since_epoch().count());
  if (merged_cells > 0) {
    out += ",\n  \"merged_cells\": " + std::to_string(merged_cells);
  }
  out += ",\n  \"counters\": [";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_json_escaped(out, key.name);
    out += ", \"node\": ";
    append_json_escaped(out, key.node);
    out += ", \"component\": ";
    append_json_escaped(out, key.component);
    out += ", \"value\": " + std::to_string(counter->value()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_json_escaped(out, key.name);
    out += ", \"node\": ";
    append_json_escaped(out, key.node);
    out += ", \"component\": ";
    append_json_escaped(out, key.component);
    out += ", \"value\": " + format_double(gauge->value()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  first = true;
  for (const auto& [key, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_json_escaped(out, key.name);
    out += ", \"node\": ";
    append_json_escaped(out, key.node);
    out += ", \"component\": ";
    append_json_escaped(out, key.component);
    out += ", \"sum\": " + format_double(histogram->sum());
    out += ", \"count\": " + std::to_string(histogram->count());
    out += ", \"buckets\": [";
    const auto& bounds = histogram->bounds();
    const auto& counts = histogram->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i) out += ", ";
      out += "{\"le\": ";
      out += i < bounds.size() ? format_double(bounds[i]) : "\"+inf\"";
      out += ", \"count\": " + std::to_string(counts[i]) + "}";
    }
    out += "]}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"spans\": [";
  first = true;
  for (const SpanRecord& s : spans()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": ";
    append_json_escaped(out, s.name);
    out += ", \"component\": ";
    append_json_escaped(out, s.component);
    out += ", \"node\": ";
    append_json_escaped(out, s.node);
    out += ", \"t_start_us\": " +
           std::to_string(s.t_start.time_since_epoch().count());
    out += ", \"t_end_us\": " +
           std::to_string(s.t_end.time_since_epoch().count()) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"spans_dropped\": " + std::to_string(spans_dropped());
  out += "\n}\n";
  return out;
}

std::string MetricsRegistry::to_csv() const {
  std::string out = "kind,name,node,component,key,value,value2\n";
  auto row = [&](std::string_view kind, const SeriesKey& key,
                 std::string_view field, const std::string& value,
                 const std::string& value2 = "") {
    out += std::string(kind) + "," + csv_field(key.name) + "," +
           csv_field(key.node) + "," + csv_field(key.component) + "," +
           std::string(field) + "," + value + "," + value2 + "\n";
  };
  for (const auto& [key, counter] : counters_) {
    row("counter", key, "value", std::to_string(counter->value()));
  }
  for (const auto& [key, gauge] : gauges_) {
    row("gauge", key, "value", format_double(gauge->value()));
  }
  for (const auto& [key, histogram] : histograms_) {
    row("histogram", key, "sum", format_double(histogram->sum()));
    row("histogram", key, "count", std::to_string(histogram->count()));
    const auto& bounds = histogram->bounds();
    const auto& counts = histogram->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      row("histogram", key, "le",
          i < bounds.size() ? format_double(bounds[i]) : "+inf",
          std::to_string(counts[i]));
    }
  }
  for (const SpanRecord& s : spans()) {
    SeriesKey key{s.name, s.node, s.component};
    row("span", key, "span",
        std::to_string(s.t_start.time_since_epoch().count()),
        std::to_string(s.t_end.time_since_epoch().count()));
  }
  return out;
}

bool MetricsRegistry::write_file(const std::string& path,
                                 const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "metrics: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  out << contents;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "metrics: short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [key, c] : other.counters_) {
    counter(key.name, key.node, key.component).add(c->value());
  }
  for (const auto& [key, g] : other.gauges_) {
    gauge(key.name, key.node, key.component).set(g->value());
  }
  for (const auto& [key, h] : other.histograms_) {
    histogram(key.name, h->bounds(), key.node, key.component).merge(*h);
  }
  // Spans append oldest-first through the ring, so capacity trimming drops
  // the globally oldest spans exactly as one accumulating registry would.
  for (const SpanRecord& s : other.spans()) {
    record_span(s.name, s.component, s.node, s.t_start, s.t_end);
  }
  // Ring-evicted spans of the source still count as recorded downstream.
  spans_recorded_ += other.spans_dropped();
}

}  // namespace siphoc
