// Metrics registry and span tracer.
//
// Every layer of the stack reports into one registry so benches, examples
// and tests read a single machine-readable surface instead of scraping
// per-component stats structs: the proxy, tunnel, SLP and SIP transport
// count events only here. (The routing, host and medium stats structs
// remain as typed views the benches read.) Three instrument kinds
// (counter, gauge, histogram with fixed bucket boundaries) are labeled by
// (node, component) -- the same pair a LogRecord carries -- and a
// ring-buffer tracer records (t_start, t_end, component, node, name) spans
// for latency-shaped quantities (route discovery, SLP resolution, INVITE
// transactions).
//
// Registries are per-simulation: each SimContext owns one (see
// common/context.hpp and docs/METRICS.md "Per-simulation registries"),
// and a component reaches it only through its simulator. A registry is
// single-threaded by design -- parallel experiment cells each get their
// own and are merged afterwards via merge_from(), in submission order, so
// merged sidecars are independent of thread count.
//
// Timestamps come from the same virtual-time hook Logging uses: the
// simulator registers itself as the time source, so exports line up with
// log lines and trace captures. Export is JSON and CSV; the schemas and
// the full metric catalog are the contract documented in docs/METRICS.md
// (CI validates both directions: every name the code or a sidecar uses
// must be documented, and every documented name must appear as a literal
// in the code).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"

namespace siphoc {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time measurement; may go up and down.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Distribution over fixed bucket upper bounds (a value lands in the first
/// bucket whose bound is >= it; values above every bound land in +inf).
/// Bounds are fixed at first registration of the metric name.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; the last entry is the +inf bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

  /// Accumulates another histogram's buckets/count/sum. Both sides must
  /// share bucket bounds (guaranteed when both were registered under the
  /// same metric name); mismatched extra buckets are ignored defensively.
  void merge(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// One traced interval, virtual-time-stamped.
struct SpanRecord {
  TimePoint t_start{};
  TimePoint t_end{};
  std::string component;
  std::string node;
  std::string name;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// The simulator registers itself here (same hook shape as Logging) so
  /// span timestamps and export headers carry virtual time.
  void set_time_source(std::function<TimePoint()> now) {
    now_ = std::move(now);
  }
  TimePoint now() const { return now_ ? now_() : TimePoint{}; }

  // --- instruments --------------------------------------------------------
  // References stay valid for the registry's lifetime. Creating a series
  // beyond the per-name label cardinality cap returns the shared overflow
  // series (node/component "(overflow)") instead of growing without bound.
  Counter& counter(std::string_view name, std::string_view node = {},
                   std::string_view component = {});
  Gauge& gauge(std::string_view name, std::string_view node = {},
               std::string_view component = {});
  Histogram& histogram(std::string_view name, std::span<const double> bounds,
                       std::string_view node = {},
                       std::string_view component = {});

  /// Max distinct (node, component) pairs per metric name.
  void set_label_cardinality_cap(std::size_t cap) { label_cap_ = cap; }
  std::size_t label_cardinality_cap() const { return label_cap_; }

  // --- tracer -------------------------------------------------------------
  void record_span(std::string_view name, std::string_view component,
                   std::string_view node, TimePoint t_start, TimePoint t_end);
  /// Ring capacity; shrinking drops the oldest retained spans.
  void set_span_capacity(std::size_t capacity);
  std::size_t span_capacity() const { return span_capacity_; }
  /// Retained spans, oldest first.
  std::vector<SpanRecord> spans() const;
  std::uint64_t spans_recorded() const { return spans_recorded_; }
  std::uint64_t spans_dropped() const;

  // --- queries (tests, benches) ------------------------------------------
  /// Sum of a counter across every label set (0 when absent).
  std::uint64_t counter_total(std::string_view name) const;
  /// The series if it exists; does not create.
  const Counter* find_counter(std::string_view name, std::string_view node,
                              std::string_view component) const;

  // --- export -------------------------------------------------------------
  /// Schema "siphoc.metrics.v1"; see docs/METRICS.md. A registry that was
  /// merge_from()'d out of parallel cells passes the cell count so the
  /// sidecar records its provenance ("merged_cells": N).
  std::string to_json(std::size_t merged_cells = 0) const;
  std::string to_csv() const;
  /// Writes `contents` to `path`; false (with a stderr note) on failure.
  static bool write_file(const std::string& path, const std::string& contents);

  /// Folds another registry into this one: counters and histograms
  /// accumulate, gauges take the other side's value (last write wins, like
  /// a sequential run would), spans append through the ring. The parallel
  /// cell runner merges per-cell registries in submission order, which
  /// makes the merged export a pure function of the cell list -- identical
  /// for any thread count.
  void merge_from(const MetricsRegistry& other);

 private:
  struct SeriesKey {
    std::string name;
    std::string node;
    std::string component;
    auto operator<=>(const SeriesKey&) const = default;
  };

  /// Applies the cardinality cap: the key itself, or the overflow key.
  SeriesKey admit(std::string_view name, std::string_view node,
                  std::string_view component);

  std::function<TimePoint()> now_;
  std::size_t label_cap_ = 512;
  std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
  std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
  std::map<SeriesKey, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::map<SeriesKey, int>> cardinality_;

  std::vector<SpanRecord> span_ring_;
  std::size_t span_capacity_ = 4096;
  std::size_t span_head_ = 0;  // next write slot once the ring is full
  std::uint64_t spans_recorded_ = 0;
};

/// Shared latency bucket boundaries, in milliseconds. One scale for every
/// *_ms histogram keeps sidecars comparable across layers and benches.
inline constexpr double kLatencyBucketsMs[] = {
    0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000};

}  // namespace siphoc
