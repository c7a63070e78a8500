// Shared helpers for the benchmark binaries.
//
// The benches reproduce *evaluation tables/figures*: each prints the rows
// of one experiment, measured in virtual time inside the deterministic
// emulation (the interesting quantity; wall time only tells you how fast
// the simulator runs). Repeated runs use distinct seeds and report means.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/context.hpp"
#include "common/metrics.hpp"
#include "scenario/parallel.hpp"

namespace siphoc::bench {

inline double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

inline double maximum(const std::vector<double>& xs) {
  double m = 0;
  for (const double x : xs) m = std::max(m, x);
  return m;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!note.empty()) std::printf("%s\n", note.c_str());
  std::printf("\n");
}

/// Writes `<name>.metrics.json` (and `.csv`) next to the bench's stdout
/// tables: the machine-readable version of the run, in the schema
/// documented in docs/METRICS.md. Returns false (after a stderr note) if
/// the files cannot be written.
inline bool write_metrics_sidecar(const std::string& name,
                                  const MetricsRegistry& registry) {
  const bool json_ok =
      MetricsRegistry::write_file(name + ".metrics.json", registry.to_json());
  const bool csv_ok =
      MetricsRegistry::write_file(name + ".metrics.csv", registry.to_csv());
  if (json_ok) {
    std::printf("metrics sidecar: %s.metrics.json\n", name.c_str());
  }
  return json_ok && csv_ok;
}

/// The parallel-bench variant of write_metrics_sidecar: folds the per-cell
/// registries (submission order) into one export carrying "merged_cells"
/// provenance. Identical bytes for any --threads value.
inline bool write_merged_sidecar(
    const std::string& name,
    const std::vector<std::unique_ptr<SimContext>>& contexts) {
  const MetricsRegistry merged = scenario::merged_metrics(contexts);
  const bool json_ok = MetricsRegistry::write_file(
      name + ".metrics.json", merged.to_json(contexts.size()));
  const bool csv_ok =
      MetricsRegistry::write_file(name + ".metrics.csv", merged.to_csv());
  if (json_ok) {
    std::printf("metrics sidecar: %s.metrics.json (%zu cells merged)\n",
                name.c_str(), contexts.size());
  }
  return json_ok && csv_ok;
}

/// Common bench command line:
///   --quick         shrink the experiment to a seconds-scale smoke run
///                   (ctest uses this so the benches cannot bit-rot)
///   --json <path>   additionally emit the result rows as JSON in the
///                   schema documented in docs/PERFORMANCE.md
///   --threads <n>   fan independent experiment cells across n worker
///                   threads (default 1). Tables, --json output and metrics
///                   sidecars are byte-identical for every value.
///   --regions <r>   shard each simulation into r spatial region lanes
///                   (benches that honor it pass this to
///                   Options::sim_regions). Simulation *content*: rows
///                   change with r, exactly like changing the seed, so the
///                   committed baselines use the default 0. --regions 1
///                   equals --regions 0: both run the sequential kernel.
///   --sim-threads <n>
///                   worker threads inside each (sharded) simulation. Pure
///                   execution policy: byte-identical output for any value.
struct BenchArgs {
  bool quick = false;
  std::string json_path;
  unsigned threads = 1;
  std::uint32_t regions = 0;
  unsigned sim_threads = 1;

  /// Parses the shared bench flags. `--help` prints the usage line and
  /// exits 0; an unknown flag, or one missing its value, prints it and
  /// exits 2 without running the bench.
  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    const auto usage = [&](int status) {
      std::fprintf(status == 0 ? stdout : stderr,
                   "usage: %s [--quick] [--json <path>] [--threads <n>] "
                   "[--regions <r>] [--sim-threads <n>] [--help]\n",
                   argv[0]);
      std::exit(status);
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--quick") {
        args.quick = true;
      } else if (arg == "--help") {
        usage(0);
      } else if (arg == "--json" && has_value) {
        args.json_path = argv[++i];
      } else if (arg == "--threads" && has_value) {
        const long n = std::strtol(argv[++i], nullptr, 10);
        args.threads = n > 1 ? static_cast<unsigned>(n) : 1;
      } else if (arg == "--regions" && has_value) {
        const long n = std::strtol(argv[++i], nullptr, 10);
        args.regions = n > 0 ? static_cast<std::uint32_t>(n) : 0;
      } else if (arg == "--sim-threads" && has_value) {
        const long n = std::strtol(argv[++i], nullptr, 10);
        args.sim_threads = n > 1 ? static_cast<unsigned>(n) : 1;
      } else {
        usage(2);
      }
    }
    return args;
  }
};

/// Wall-clock stopwatch for the "how fast does the simulator itself run"
/// axis of the perf work (virtual-time results are wall-clock independent).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable bench report ("siphoc.bench.v1"): one row per table
/// cell, each a flat label -> numeric-metric map. BENCH_baseline.json is a
/// committed snapshot of these files so PRs leave a perf trajectory.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void add_row(std::string label,
               std::vector<std::pair<std::string, double>> metrics) {
    rows_.push_back({std::move(label), std::move(metrics)});
  }

  std::string to_json() const {
    std::string out = "{\n  \"schema\": \"siphoc.bench.v1\",\n  \"bench\": \"" +
                      bench_ + "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "    {\"label\": \"" + rows_[i].label + "\"";
      for (const auto& [key, value] : rows_[i].metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", value);
        out += ", \"" + key + "\": " + buf;
      }
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  /// Writes the report if `path` is non-empty; reuses the metrics file
  /// writer so failures behave identically to sidecar failures.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    const bool ok = MetricsRegistry::write_file(path, to_json());
    if (ok) std::printf("bench json: %s\n", path.c_str());
    return ok;
  }

 private:
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, double>> metrics;
  };
  std::string bench_;
  std::vector<Row> rows_;
};

}  // namespace siphoc::bench
