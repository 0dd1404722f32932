// serve-mix: the real parabb_serve binary under a seeded JSONL request mix.
//
// The mix: kRequests requests. About a quarter resubmit an earlier request
// under a new id (cache traffic); about a tenth set `certify`, about 15% set
// `tt`. Plain and tt requests are §4.1 graphs (12-16 tasks) at m=3 with a
// max_generated budget of kBudget vertices, which about 16% of requests
// hit. That keeps the p90 of per-request solve time inside the capped
// group; with m drawn from {2, 3} only 10% hit the budget, the p90 sat on
// the group's edge and spread 0.24 across seeds. Certify requests are
// small §4.1-style graphs (6-7 tasks, m=2) whose whole BFn tree holds fewer
// than 1.1M vertices, so their budget can never bind and every certificate
// can be checked CERTIFIED; a budget-capped certify response could not be.
//
// A fresh `parabb_serve --workers 4` (default cache) serves each phase:
//  * burst — the whole file written as fast as the pipe takes it, the
//    documented `parabb_serve < file` use; gives suite_s, and the server's
//    own search time of each response gives solve_p50/p90_ms. The distinct
//    requests are solved in-process once, before the measuring window, as
//    the reference the responses are checked against.
//  * paced (traced run only) — an open loop at the fixed offered rate
//    kPacedRate, about half the burst throughput on the 4-core reference
//    host, each request timed from when it was due; gives the per-layer
//    service.latency_p50/p99_ms. Open-loop latency swung too much between
//    runs on that host to carry an end-to-end bound (see README.md).
// The load comes from this one process: a writer thread and the reading
// main thread, over one pipe each way.
//
// Why: the only workload where the service (parse, fingerprint, cache,
// dispatch, serialize), TGF parsing and the certificate path do the work.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"
#include "oracle.hpp"
#include "parabb/bnb/engine.hpp"
#include "parabb/sched/edf.hpp"
#include "parabb/service/fingerprint.hpp"
#include "parabb/service/protocol.hpp"
#include "parabb/support/json.hpp"
#include "parabb/taskgraph/io.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "unit_costs.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr std::size_t kRequests = 2000;
constexpr double kDupFrac = 0.25;
constexpr double kCertifyFrac = 0.10;
constexpr double kTTFrac = 0.15;
constexpr std::uint64_t kBudget = 20000;
constexpr std::uint64_t kCertifyBudget = 2000000;
constexpr double kLaxity = 1.5;
constexpr double kPacedRate = 1200.0;  // requests per second
constexpr int kWorkers = 4;
constexpr std::size_t kMinRounds = 2;
constexpr int kTracedPairs = 3;

struct Distinct {
  parabb::TaskGraph graph;
  int procs = 2;
  bool certify = false;
  bool tt = false;
  std::uint64_t budget = 0;
};

struct Mix {
  std::vector<Distinct> distinct;
  std::vector<std::size_t> of;     ///< request index -> distinct index
  std::vector<std::string> lines;  ///< one JSONL request per request index
};

std::string request_line(const Distinct& d, std::size_t index) {
  parabb::JsonValue req = parabb::JsonValue::object();
  req.set("id", "r" + std::to_string(index));
  req.set("graph", parabb::to_tgf(d.graph));
  req.set("procs", d.procs);
  if (d.tt) req.set("tt", true);
  if (d.certify) req.set("certify", true);
  parabb::JsonValue budget = parabb::JsonValue::object();
  budget.set("max_generated", d.budget);
  req.set("budget", std::move(budget));
  return req.dump();
}

Mix make_mix(std::uint64_t seed) {
  Mix mix;
  std::uint64_t rng = seed ^ 0x5e27e1ULL;
  for (std::size_t i = 0; i < kRequests; ++i) {
    if (i > 0 && uniform01(rng) < kDupFrac) {
      const auto j = static_cast<std::size_t>(
          uniform01(rng) * static_cast<double>(mix.distinct.size()));
      mix.of.push_back(j);
      mix.lines.push_back(request_line(mix.distinct[j], i));
      continue;
    }
    Distinct d;
    parabb::GeneratorConfig cfg = parabb::paper_config();
    const double kind = uniform01(rng);
    if (kind < kCertifyFrac) {
      cfg.n_min = 6;
      cfg.n_max = 7;
      cfg.depth_min = 4;
      cfg.depth_max = 6;
      d.certify = true;
      d.budget = kCertifyBudget;
    } else {
      d.procs = 3;
      d.tt = kind < kCertifyFrac + kTTFrac;
      d.budget = kBudget;
    }
    d.graph = make_graph(cfg, item_seed(seed, i), kLaxity);
    mix.of.push_back(mix.distinct.size());
    mix.lines.push_back(request_line(d, i));
    mix.distinct.push_back(std::move(d));
  }
  return mix;
}

/// One parabb_serve child process with a pipe on stdin and one on stdout.
class Server {
 public:
  Server(const std::string& bin, const std::vector<std::string>& extra) {
    int in_pipe[2], out_pipe[2];
    if (pipe2(in_pipe, O_CLOEXEC) != 0 || pipe2(out_pipe, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe failed");
    }
    std::vector<std::string> args = {bin, "--workers",
                                     std::to_string(kWorkers), "--quiet"};
    args.insert(args.end(), extra.begin(), extra.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out_pipe[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, "/dev/null", O_WRONLY, 0);
    const int rc =
        posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_ = fdopen(out_pipe[0], "r");
    if (rc != 0 || out_ == nullptr) {
      throw std::runtime_error("cannot start " + bin + ": " +
                               std::strerror(rc));
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      close_input();
      waitpid(pid_, nullptr, 0);
    }
    if (out_) std::fclose(out_);
  }

  void write_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = ::write(in_fd_, data.data() + off, data.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to parabb_serve failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    char* buf = nullptr;
    std::size_t cap = 0;
    const ssize_t n = getline(&buf, &cap, out_);
    std::string line = n > 0 ? std::string(buf, static_cast<std::size_t>(n))
                             : std::string();
    std::free(buf);
    if (n <= 0) throw std::runtime_error("parabb_serve closed its output");
    if (!line.empty() && line.back() == '\n') line.pop_back();
    return line;
  }

  void close_input() {
    if (in_fd_ >= 0) close(in_fd_);
    in_fd_ = -1;
  }

  /// Closes stdin, waits for the exit; returns the exit status and the
  /// server's peak RSS in kB.
  int wait(std::uint64_t& maxrss_kb) {
    close_input();
    int status = 0;
    rusage ru{};
    wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  FILE* out_ = nullptr;
};

std::size_t request_index(const std::string& response) {
  const std::size_t at = response.find("\"id\":\"r");
  if (at == std::string::npos) return kRequests;
  return std::stoul(response.substr(at + 7));
}

struct Phase {
  double startup_s = 0;
  double wall_s = 0;
  std::vector<double> latency_s;  ///< from due (paced) or burst start
  std::vector<double> lag_s;      ///< paced: send time - due time
  std::vector<std::string> responses;
  parabb::JsonValue counters;
  std::uint64_t maxrss_kb = 0;
  int exit_code = 0;
};

Phase run_phase(const Options& opt, const Mix& mix, bool paced,
                const std::string& spans_path) {
  Phase ph;
  const auto t0 = Clock::now();
  std::vector<std::string> extra;
  if (!spans_path.empty()) extra = {"--spans", spans_path};
  Server server(opt.serve_bin, extra);
  server.write_all("{\"id\":\"ready\",\"metrics\":true}\n");
  server.read_line();
  ph.startup_s = since(t0);

  const std::size_t n = mix.lines.size();
  std::vector<Clock::time_point> done(n), due(n);
  ph.lag_s.resize(n);
  std::string file;
  if (!paced) {
    for (const std::string& l : mix.lines) file += l + "\n";
  }
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = paced ? start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     static_cast<double>(i) / kPacedRate))
                   : start;
  }
  std::string write_error;
  std::thread writer([&] {
    try {
      if (!paced) {
        server.write_all(file);
        return;
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due[i]);
        ph.lag_s[i] = std::chrono::duration<double>(Clock::now() - due[i])
                          .count();
        server.write_all(mix.lines[i] + "\n");
      }
    } catch (const std::exception& e) {
      write_error = e.what();
    }
  });
  ph.responses.resize(n);
  std::string failure;
  try {
    for (std::size_t got = 0; got < n; ++got) {
      std::string line = server.read_line();
      const auto now = Clock::now();
      const std::size_t i = request_index(line);
      if (i >= n) throw std::runtime_error("unexpected response: " + line);
      done[i] = now;
      ph.responses[i] = std::move(line);
    }
  } catch (const std::exception& e) {
    failure = e.what();
  }
  writer.join();
  if (!failure.empty()) throw std::runtime_error(failure);
  if (!write_error.empty()) throw std::runtime_error(write_error);
  ph.wall_s = std::chrono::duration<double>(
                  *std::max_element(done.begin(), done.end()) - start)
                  .count();
  for (std::size_t i = 0; i < n; ++i) {
    ph.latency_s.push_back(
        std::chrono::duration<double>(done[i] - due[i]).count());
  }
  server.write_all("{\"id\":\"final\",\"metrics\":true}\n");
  ph.counters = parabb::JsonValue::parse(server.read_line());
  ph.exit_code = server.wait(ph.maxrss_kb);
  return ph;
}

struct Reference {
  parabb::Time cost = 0;
  bool proved = false;
  std::uint64_t generated = 0;
  parabb::Machine machine;
  parabb::Schedule schedule;
};

/// The mix's distinct requests solved in-process, one after another, by the
/// sequential engine with the service's own parameter mapping: the
/// reference the server's responses are checked against.
std::vector<Reference> reference_pass(const Mix& mix,
                                      parabb::SearchStats* stats,
                                      std::vector<double>* context_s) {
  std::vector<Reference> out;
  for (const Distinct& dist : mix.distinct) {
    const parabb::JobRequest req =
        parabb::request_from_json(request_line(dist, 0));
    const auto td = Clock::now();
    const parabb::SchedContext ctx(req.graph, req.machine);
    if (context_s) context_s->push_back(since(td));
    parabb::Params p = req.params;
    parabb::apply_budget(p, req.budget, nullptr);
    parabb::CertificateBuilder builder;
    if (req.certify) p.certify = &builder;
    parabb::SearchResult r = parabb::solve_bnb(ctx, p);
    out.push_back({r.best_cost, r.proved, r.stats.generated, req.machine,
                   std::move(r.best)});
    if (stats) accumulate(*stats, r.stats);
  }
  return out;
}

/// The server's own search time (the response's `seconds`), in ms, of
/// each plain request (neither `tt` nor `certify`) it did not answer from
/// its cache.
std::vector<double> search_ms(const Mix& mix, const Phase& ph) {
  std::vector<double> out;
  for (std::size_t i = 0; i < ph.responses.size(); ++i) {
    const Distinct& d = mix.distinct[mix.of[i]];
    if (d.tt || d.certify) continue;
    const parabb::JsonValue doc = parabb::JsonValue::parse(ph.responses[i]);
    if (!doc.find("cached")->as_bool()) {
      out.push_back(doc.find("seconds")->as_double() * 1e3);
    }
  }
  return out;
}

/// Checks every response of a phase against the in-process reference and
/// the server's in-band counters against the responses. Collects the
/// certificate text of each distinct certify request into `certs`.
void check_phase(const Mix& mix, const std::vector<Reference>& ref,
                 const Phase& ph, const char* label, Tally& tally,
                 std::map<std::size_t, std::string>* certs,
                 std::uint64_t* cached_out) {
  std::uint64_t cached = 0, optimal = 0, feasible = 0;
  for (std::size_t i = 0; i < ph.responses.size(); ++i) {
    const std::size_t d = mix.of[i];
    const Distinct& dist = mix.distinct[d];
    std::string why;
    try {
      const parabb::JsonValue doc = parabb::JsonValue::parse(ph.responses[i]);
      if (const auto* err = doc.find("error")) {
        throw std::runtime_error("error response: " + err->as_string());
      }
      const std::string outcome = doc.find("outcome")->as_string();
      optimal += outcome == "optimal";
      feasible += outcome == "feasible_timeout";
      const bool is_cached = doc.find("cached")->as_bool();
      cached += is_cached;
      const parabb::Time cost = doc.find("cost")->as_int();
      const bool proved = doc.find("proved")->as_bool();
      std::map<std::string, parabb::TaskId> by_name;
      for (parabb::TaskId t = 0; t < dist.graph.task_count(); ++t) {
        by_name[dist.graph.task(t).name] = t;
      }
      std::vector<parabb::ScheduledTask> entries;
      for (const parabb::JsonValue& e : doc.find("schedule")->items()) {
        entries.push_back({by_name.at(e.find("task")->as_string()),
                           static_cast<parabb::ProcId>(
                               e.find("proc")->as_int()),
                           e.find("start")->as_int(),
                           e.find("finish")->as_int()});
      }
      why = check_solution(
          dist.graph, ref[d].machine,
          parabb::Schedule::from_entries(dist.graph.task_count(), entries),
          cost);
      if (why.empty() && (cost != ref[d].cost || proved != ref[d].proved)) {
        why = "cost " + std::to_string(cost) + " differs from the "
              "in-process solve's " + std::to_string(ref[d].cost);
      }
      if (why.empty() && !is_cached &&
          static_cast<std::uint64_t>(doc.find("generated")->as_int()) !=
              ref[d].generated) {
        why = "generated count differs from the in-process solve";
      }
      if (why.empty() && dist.certify) {
        const parabb::JsonValue* c = doc.find("certificate");
        if (c == nullptr) {
          why = "certify response without a certificate";
        } else if (certs && !certs->count(d)) {
          (*certs)[d] = c->as_string();
        }
      }
    } catch (const std::exception& e) {
      why = std::string("malformed response: ") + e.what();
    }
    tally.check(why.empty(), std::string("serve-mix ") + label + " r" +
                                 std::to_string(i) + ": " + why);
  }
  // The server's in-band counters must match what was counted here.
  std::string why;
  try {
    const parabb::JsonValue& c = *ph.counters.find("metrics")->find("counters");
    const auto counter = [&](const char* name) -> std::uint64_t {
      const parabb::JsonValue* v = c.find(name);
      return v ? static_cast<std::uint64_t>(v->as_int()) : 0;
    };
    if (counter("parabb_service_jobs_completed_total") != ph.responses.size())
      why = "jobs_completed counter disagrees with the responses";
    else if (counter("parabb_service_cache_hits_total") != cached)
      why = "cache_hits counter disagrees with cached responses";
    else if (counter("parabb_service_jobs_optimal_total") != optimal ||
             counter("parabb_service_jobs_feasible_timeout_total") != feasible)
      why = "outcome counters disagree with the responses";
    else if (optimal + feasible != ph.responses.size())
      why = "responses with outcomes other than optimal/feasible_timeout";
    else if (ph.exit_code != 0)
      why = "parabb_serve exited with " + std::to_string(ph.exit_code);
  } catch (const std::exception& e) {
    why = std::string("malformed metrics response: ") + e.what();
  }
  tally.check(why.empty(), std::string("serve-mix ") + label +
                               " counters: " + why);
  if (cached_out) *cached_out = cached;
}

/// Checks each certificate with the independent verifier (outside every
/// timed phase). Returns the mean certificate size in kB.
double check_certificates(const Mix& mix, const std::vector<Reference>& ref,
                          const std::map<std::size_t, std::string>& certs,
                          Tally& tally) {
  double bytes = 0;
  for (const auto& [d, text] : certs) {
    bytes += static_cast<double>(text.size());
    const std::string why = check_certificate(
        mix.distinct[d].graph, ref[d].machine, text, ref[d].cost);
    tally.check(why.empty(),
                "serve-mix certificate of distinct request " +
                    std::to_string(d) + ": " + why);
  }
  return certs.empty() ? 0.0 : bytes / static_cast<double>(certs.size()) / 1024.0;
}

}  // namespace

Result run_serve_mix(const Options& opt) {
  Result res;
  Metrics& m = res.metrics;
  std::signal(SIGPIPE, SIG_IGN);

  std::vector<double> generate_s;
  auto tg = Clock::now();
  Mix mix = make_mix(opt.seed);
  generate_s.push_back(since(tg));
  const std::vector<Expected> expected = load_expected(opt);

  // The traced run takes the engine counts and context build times from
  // the reference pass.
  parabb::SearchStats stats;
  std::vector<double> context_s;
  std::vector<Reference> ref = reference_pass(
      mix, opt.trace ? &stats : nullptr, opt.trace ? &context_s : nullptr);
  if (opt.write_expected) {
    std::vector<Expected> out;
    for (std::size_t i = 0; i < kRequests; ++i) {
      out.push_back({ref[mix.of[i]].cost, ref[mix.of[i]].proved});
    }
    print_expected(opt, out);
    return res;
  }
  for (std::size_t d = 0; d < ref.size(); ++d) {
    res.tally.check(
        check_solution(mix.distinct[d].graph, ref[d].machine,
                       ref[d].schedule, ref[d].cost)
            .empty(),
        "serve-mix in-process solve " + std::to_string(d));
  }
  if (!expected.empty()) {
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Reference& r = ref[mix.of[i]];
      const std::string why =
          i < expected.size() ? check_expected(r.cost, r.proved, expected[i])
                              : "missing expected cost";
      res.tally.check(why.empty(), "serve-mix request r" + std::to_string(i) +
                                       " vs expected: " + why);
    }
  }

  std::map<std::size_t, std::string> certs;
  const auto run_t0 = Clock::now();
  if (!opt.trace) {
    // Percentiles are taken per burst and the run reports their median,
    // like the wall times.
    std::vector<double> setup_s, burst_walls, rss, solve_p50, solve_p90;
    for (std::size_t round = 0;
         round < kMinRounds || since(run_t0) < opt.seconds; ++round) {
      tg = Clock::now();
      const Mix again = make_mix(opt.seed);
      const double gen = since(tg);
      res.tally.check(again.lines == mix.lines,
                      "mix generation is not deterministic");
      const Phase ph = run_phase(opt, again, false, "");
      setup_s.push_back(gen + ph.startup_s);
      rss.push_back(static_cast<double>(ph.maxrss_kb) / 1024.0);
      check_phase(mix, ref, ph, "burst", res.tally,
                  round == 0 ? &certs : nullptr, nullptr);
      burst_walls.push_back(ph.wall_s);
      const std::vector<double> solve = search_ms(mix, ph);
      solve_p50.push_back(quantile(solve, 0.5));
      solve_p90.push_back(quantile(solve, 0.9));
    }
    check_certificates(mix, ref, certs, res.tally);
    std::fprintf(stderr,
                 "serve-mix: %zu rounds of %zu requests (%zu distinct, "
                 "%zu certificates checked)\n",
                 burst_walls.size(), kRequests, mix.distinct.size(),
                 certs.size());
    m.set("setup_s", median(setup_s), "s");
    m.set("suite_s", median(burst_walls), "s");
    m.set("solve_p50_ms", median(solve_p50), "ms");
    m.set("solve_p90_ms", median(solve_p90), "ms");
    // The servers' peak RSS varies with how many `tt` jobs (16 MB tables)
    // happen to run at once; the largest over the run's phases is stable.
    m.set("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
    return res;
  }

  // Traced run. Alternating untraced and traced bursts give the tracing
  // overhead; a traced paced phase gives the service split.
  Spans spans;

  std::filesystem::create_directories(opt.out_dir);
  const std::string stem =
      opt.out_dir + "/serve-mix-" + std::to_string(opt.seed);
  // Untraced and traced bursts alternate for most of the measuring window
  // (the rest goes to the paced phase and the primitives); the overhead
  // compares medians.
  std::vector<double> plain_walls, traced_walls;
  std::uint64_t cached = 0;
  for (int r = 0; r < kTracedPairs || since(run_t0) < opt.seconds * 0.6;
       ++r) {
    const Phase plain = run_phase(opt, mix, false, "");
    check_phase(mix, ref, plain, "burst", res.tally, r == 0 ? &certs : nullptr,
                nullptr);
    plain_walls.push_back(plain.wall_s);
    const Phase burst =
        run_phase(opt, mix, false, stem + "-burst.server.jsonl");
    check_phase(mix, ref, burst, "burst", res.tally, nullptr, &cached);
    traced_walls.push_back(burst.wall_s);
  }
  const Phase paced = run_phase(opt, mix, true, stem + "-paced.server.jsonl");
  check_phase(mix, ref, paced, "paced", res.tally, nullptr, nullptr);

  // Benchmark-side spans: one "job" span per request of the traced paced
  // phase, from when it was due to its response, with the server's
  // context/search/certify spans as its children. The job's self time is
  // the time the request spent outside the engine phases.
  std::vector<int> job_span(kRequests);
  for (std::size_t i = 0; i < kRequests; ++i) {
    const double due_s = static_cast<double>(i) / kPacedRate;
    job_span[i] =
        spans.add_interval("job", i, -1, due_s, due_s + paced.latency_s[i]);
  }
  std::vector<double> certify_ms;
  {
    const std::map<std::string, const char*> layer = {
        {"context", "sched.context"},
        {"search", "bnb.search"},
        {"certify", "verify.certify"}};
    std::istringstream in(read_file(stem + "-paced.server.jsonl"));
    for (std::string line; std::getline(in, line);) {
      const parabb::JsonValue s = parabb::JsonValue::parse(line);
      const std::string tag = s.find("tag")->as_string();
      const auto it = layer.find(s.find("span")->as_string());
      if (it == layer.end() || tag.size() < 2) continue;
      const std::size_t i = std::stoul(tag.substr(1));
      const double dur = s.find("dur_s")->as_double();
      spans.add_external(it->second, i, job_span[i], dur);
      if (it->first == "certify") certify_ms.push_back(dur * 1e3);
    }
  }

  std::vector<double> outside_ms;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const parabb::JsonValue doc = parabb::JsonValue::parse(paced.responses[i]);
    if (doc.find("cached")->as_bool()) continue;
    outside_ms.push_back(
        (paced.latency_s[i] - doc.find("seconds")->as_double()) * 1e3);
  }

  std::vector<double> parse_us, key_us, serialize_us, edf_s;
  std::vector<parabb::SchedContext> ctxs;
  std::vector<const parabb::SchedContext*> sample_ctxs;
  ctxs.reserve(mix.distinct.size());
  for (std::size_t i = 0; i < kRequests; ++i) {
    auto t0 = Clock::now();
    const parabb::JobRequest req = parabb::request_from_json(mix.lines[i]);
    parse_us.push_back(since(t0) * 1e6);
    t0 = Clock::now();
    const std::string key = parabb::request_key(req);
    key_us.push_back(since(t0) * 1e6);
    const Reference& r = ref[mix.of[i]];
    parabb::JobResult jr;
    jr.id = req.id;
    jr.outcome = r.proved ? parabb::JobOutcome::kOptimal
                          : parabb::JobOutcome::kFeasibleTimeout;
    jr.found = true;
    jr.schedule = r.schedule;
    jr.cost = r.cost;
    jr.proved = r.proved;
    jr.generated = r.generated;
    t0 = Clock::now();
    const std::string line = parabb::response_to_json(jr, req.graph);
    serialize_us.push_back(since(t0) * 1e6);
    res.tally.check(!key.empty() && !line.empty(), "service primitives");
  }
  for (const Distinct& d : mix.distinct) {
    if (d.certify) continue;
    ctxs.emplace_back(d.graph, parabb::make_shared_bus_machine(d.procs));
    if (sample_ctxs.size() < 200) sample_ctxs.push_back(&ctxs.back());
    const auto t0 = Clock::now();
    const parabb::EdfResult e = parabb::schedule_edf(ctxs.back());
    edf_s.push_back(since(t0));
    res.tally.check(e.max_lateness > parabb::kTimeNegInf, "EDF result");
  }
  const UnitCosts u =
      measure_unit_costs(sample_ctxs, parabb::LowerBound::kLB1, opt.seed);

  m.set("workload.generate_ms", median(generate_s) * 1e3, "ms");
  m.set("sched.context_us", median(context_s) * 1e6, "us");
  m.set("sched.edf_us", median(edf_s) * 1e6, "us");
  set_bnb_metrics(stats, u, m);
  m.set("service.parse_us", median(parse_us), "us");
  m.set("service.fingerprint_us", median(key_us), "us");
  m.set("service.serialize_us", median(serialize_us), "us");
  m.set("service.cache_hit_frac",
        static_cast<double>(cached) / static_cast<double>(kRequests),
        "fraction");
  m.set("service.outside_search_ms_p50", median(outside_ms), "ms");
  m.set("service.search_ms_p50", median(search_ms(mix, paced)), "ms");
  m.set("service.latency_p50_ms", quantile(paced.latency_s, 0.5) * 1e3, "ms");
  m.set("service.latency_p99_ms", quantile(paced.latency_s, 0.99) * 1e3,
        "ms");
  m.set("service.gen_lag_ms_max",
        *std::max_element(paced.lag_s.begin(), paced.lag_s.end()) * 1e3,
        "ms");
  m.set("service.certify_ms", certify_ms.empty() ? 0.0 : median(certify_ms),
        "ms");
  m.set("verify.cert_kb", check_certificates(mix, ref, certs, res.tally),
        "kB");
  set_span_shares(spans, m);
  m.set("trace.overhead_frac", median(traced_walls) / median(plain_walls) - 1.0,
        "fraction");
  fill_missing_layers(m);
  spans.write_jsonl(stem + ".jsonl");
  return res;
}

}  // namespace perfbench
