// Shared pieces of the benchmark harness: options, quantiles, the metric
// list printed in the result line, the correctness tally, the in-memory
// span recorder of traced runs, and instance generation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "parabb/platform/machine.hpp"
#include "parabb/taskgraph/graph.hpp"
#include "parabb/workload/generator.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool write_expected = false;
  std::string data_dir;   ///< perfbench/data: frozen pools, expected costs
  std::string out_dir;    ///< where traced runs write their spans
  std::string serve_bin;  ///< the parabb_serve binary under test
};

/// Seeds at or above this draw their inputs from the held-out family (for
/// tight-par: the held-out frozen pool). Development uses smaller seeds;
/// the documented held-out seed is kHeldOutSeed.
inline constexpr std::uint64_t kHeldOutSeedBase = 1000000;
inline constexpr std::uint64_t kHeldOutSeed = 1000001;
inline bool is_held_out(std::uint64_t seed) {
  return seed >= kHeldOutSeedBase;
}

/// Generator seed of item `i` of a workload run with `seed`.
std::uint64_t item_seed(std::uint64_t seed, std::uint64_t i);

/// Uniform double in [0, 1) from a SplitMix64 step on `state`: the
/// benchmark's own deterministic randomness.
double uniform01(std::uint64_t& state);

/// A §4.1 graph with path-sliced deadlines at `laxity`.
parabb::TaskGraph make_graph(const parabb::GeneratorConfig& cfg,
                             std::uint64_t gen_seed, double laxity);

/// Linear-interpolation quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process, in kB (VmHWM).
std::uint64_t peak_rss_kb();

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// The metrics of one result line, in insertion order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  std::string to_json() const;

 private:
  std::vector<std::tuple<std::string, double, std::string>> items_;
};

/// Correctness tally: every oracle check is one attempt; a failed check is
/// logged to stderr (the first few in full) and fails the run.
class Tally {
 public:
  bool check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Result {
  Tally tally;
  Metrics metrics;
};

/// Prints the result line ({"correct","attempted","failed","metrics"}).
void print_result(const Result& result);

/// In-memory spans of a traced run: name, start, end, parent, and the id
/// shared by all spans of one job (instance or request). Spans are written
/// out only at the end of the run. External spans (the server's own
/// context/search/certify phases) carry a duration measured on the
/// server's clock; they are sequential within a job, so the parent's self
/// time subtracts their durations.
class Spans {
 public:
  int open(const char* name, std::uint64_t id, int parent = -1);
  void close(int span);
  /// A span whose times (seconds on this recorder's axis) were measured
  /// elsewhere, e.g. from a phase's recorded due and response times.
  int add_interval(const char* name, std::uint64_t id, int parent,
                   double start_s, double end_s);
  void add_external(const char* name, std::uint64_t id, int parent,
                    double dur_s);
  /// Self seconds summed per span name: a span's duration minus the time
  /// its children cover (union of same-clock child intervals, plus the
  /// durations of external children).
  std::map<std::string, double> self_seconds() const;
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double start = 0, end = 0;
    bool external = false;
  };
  double now() const { return since(epoch_); }
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Scoped span; a null recorder makes it a no-op (untraced runs).
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name, std::uint64_t id, int parent = -1)
      : spans_(spans), index_(spans ? spans->open(name, id, parent) : -1) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { end(); }
  void end() {
    if (spans_ && !closed_) spans_->close(index_);
    closed_ = true;
  }
  int index() const { return index_; }

 private:
  Spans* spans_;
  int index_;
  bool closed_ = false;
};

/// The per-layer self-time shares every traced run reports (span names are
/// shared by all workloads so the metric list is the same everywhere).
void set_span_shares(const Spans& spans, Metrics& m);

/// Per-layer metric names that a workload does not exercise are reported
/// as 0 so every traced result carries the full per-layer list.
void fill_missing_layers(Metrics& m);

}  // namespace perfbench
