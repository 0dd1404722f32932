#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "parabb/deadline/slicing.hpp"

namespace perfbench {

double uniform01(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<double>((z ^ (z >> 31)) >> 11) * 0x1.0p-53;
}

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t i) {
  return seed * 1000003ULL + i;
}

parabb::TaskGraph make_graph(const parabb::GeneratorConfig& cfg,
                             std::uint64_t gen_seed, double laxity) {
  parabb::GeneratedGraph g = parabb::generate_graph(cfg, gen_seed);
  parabb::SlicingConfig s;
  s.base = parabb::LaxityBase::kPathWork;
  s.laxity = laxity;
  parabb::assign_deadlines_slicing(g.graph, s);
  return std::move(g.graph);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::runtime_error("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& [n, v, u] : items_) {
    if (n == name) {
      v = value;
      u = unit;
      return;
    }
  }
  items_.emplace_back(name, value, unit);
}

bool Metrics::has(const std::string& name) const {
  for (const auto& item : items_) {
    if (std::get<0>(item) == name) return true;
  }
  return false;
}

std::string Metrics::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value, unit] = items_[i];
    if (i) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

bool Tally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    if (failed_ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failed_;
  }
  return ok;
}

void print_result(const Result& result) {
  const bool correct = result.tally.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max<std::uint64_t>(1, result.tally.attempted())),
              static_cast<unsigned long long>(result.tally.failed()),
              result.metrics.to_json().c_str());
  std::fflush(stdout);
}

int Spans::open(const char* name, std::uint64_t id, int parent) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start = s.end = now();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Spans::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = now();
}

int Spans::add_interval(const char* name, std::uint64_t id, int parent,
                        double start_s, double end_s) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start = start_s;
  s.end = end_s;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void Spans::add_external(const char* name, std::uint64_t id, int parent,
                         double dur_s) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.end = dur_s;
  s.external = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Spans::self_seconds() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    double covered = 0;
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const Span& k = spans_[c];
      if (k.external) {
        covered += k.end - k.start;
      } else {
        iv.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
      }
    }
    std::sort(iv.begin(), iv.end());
    double cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name] += std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

void Spans::write_jsonl(const std::string& path) const {
  std::string out;
  for (const Span& s : spans_) {
    out += "{\"span\":\"" + s.name + "\",\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           (s.external ? ",\"clock\":\"server\",\"dur_s\":" + number(s.end)
                       : ",\"start_s\":" + number(s.start) +
                             ",\"end_s\":" + number(s.end)) +
           "}\n";
  }
  write_file(path, out);
}

void set_span_shares(const Spans& spans, Metrics& m) {
  const std::map<std::string, double> self = spans.self_seconds();
  double total = 0;
  for (const auto& [name, s] : self) total += s;
  const auto share = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || total <= 0 ? 0.0 : it->second / total;
  };
  m.set("span.job.self_share", share("job"), "fraction");
  m.set("span.sched.context.self_share", share("sched.context"), "fraction");
  m.set("span.bnb.search.self_share", share("bnb.search"), "fraction");
  m.set("span.verify.certify.self_share", share("verify.certify"),
        "fraction");
}

void fill_missing_layers(Metrics& m) {
  // Same names and units as BENCHMARK.json's per_layer list.
  static const std::pair<const char*, const char*> kLayers[] = {
      {"workload.generate_ms", "ms"},
      {"sched.context_us", "us"},
      {"sched.edf_us", "us"},
      {"bnb.expanded", "count"},
      {"bnb.generated", "count"},
      {"bnb.pruned_frac", "fraction"},
      {"bnb.peak_active", "count"},
      {"bnb.peak_memory_kb", "kB"},
      {"bnb.expanded_per_s", "1/s"},
      {"bnb.lb_eval_ns", "ns"},
      {"bnb.place_unplace_ns", "ns"},
      {"bnb.activeset_ns", "ns"},
      {"bnb.tt_probe_ns", "ns"},
      {"bnb.lb_share", "fraction"},
      {"bnb.place_unplace_share", "fraction"},
      {"bnb.activeset_share", "fraction"},
      {"bnb.par.speedup_4t", "ratio"},
      {"bnb.par.work_ratio", "ratio"},
      {"bnb.par.steal_success", "fraction"},
      {"bnb.par.steals_per_kexp", "count"},
      {"bnb.par.expanded_per_s_per_thread", "1/s"},
      {"service.parse_us", "us"},
      {"service.fingerprint_us", "us"},
      {"service.serialize_us", "us"},
      {"service.cache_hit_frac", "fraction"},
      {"service.outside_search_ms_p50", "ms"},
      {"service.search_ms_p50", "ms"},
      {"service.latency_p50_ms", "ms"},
      {"service.latency_p99_ms", "ms"},
      {"service.gen_lag_ms_max", "ms"},
      {"service.certify_ms", "ms"},
      {"verify.cert_kb", "kB"},
      {"span.job.self_share", "fraction"},
      {"span.sched.context.self_share", "fraction"},
      {"span.bnb.search.self_share", "fraction"},
      {"span.verify.certify.self_share", "fraction"},
      {"trace.overhead_frac", "fraction"},
  };
  for (const auto& [name, unit] : kLayers) {
    if (!m.has(name)) m.set(name, 0.0, unit);
  }
}

}  // namespace perfbench
