#include "oracle.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "parabb/bnb/engine.hpp"
#include "parabb/sched/context.hpp"
#include "parabb/sched/validator.hpp"
#include "parabb/support/json.hpp"
#include "parabb/verify/certificate.hpp"
#include "parabb/verify/certificate_io.hpp"
#include "parabb/verify/verifier.hpp"

namespace perfbench {

using parabb::Time;

Time lateness_of(const parabb::Schedule& s, const parabb::TaskGraph& graph) {
  Time worst = parabb::kTimeNegInf;
  for (parabb::TaskId t = 0; t < graph.task_count(); ++t) {
    const parabb::Task& task = graph.task(t);
    worst = std::max(worst, s.entry(t).finish -
                                (task.phase + task.rel_deadline));
  }
  return worst;
}

std::string check_solution(const parabb::TaskGraph& graph,
                           const parabb::Machine& machine,
                           const parabb::Schedule& s, Time cost) {
  if (s.task_count() != graph.task_count()) {
    return "schedule covers " + std::to_string(s.task_count()) + " of " +
           std::to_string(graph.task_count()) + " tasks";
  }
  const parabb::ValidationReport report =
      parabb::validate_schedule(s, graph, machine);
  if (!report.structurally_sound) return "invalid schedule: " + report.error;
  const Time late = lateness_of(s, graph);
  if (late != cost) {
    return "reported cost " + std::to_string(cost) +
           " but the schedule's lateness is " + std::to_string(late);
  }
  return "";
}

std::string check_expected(Time cost, bool proved, const Expected& e) {
  const std::string got = std::to_string(cost) + (proved ? " (proved)" : "");
  const std::string want =
      std::to_string(e.cost) + (e.proved ? " (proved)" : " (feasible)");
  if (proved && e.proved && cost != e.cost) {
    return "optimum " + got + " differs from expected " + want;
  }
  if (proved && !e.proved && cost > e.cost) {
    return "optimum " + got + " exceeds expected feasible cost " + want;
  }
  if (!proved && e.proved && cost < e.cost) {
    return "feasible cost " + got + " beats the expected optimum " + want;
  }
  return "";
}

namespace {

std::string expected_path(const Options& opt) {
  return opt.data_dir + "/expected/" + opt.workload + "-" +
         std::to_string(opt.seed) + ".json";
}

}  // namespace

std::vector<Expected> load_expected(const Options& opt) {
  std::ifstream probe(expected_path(opt));
  if (!probe || opt.write_expected) return {};
  const parabb::JsonValue doc =
      parabb::JsonValue::parse(read_file(expected_path(opt)));
  std::vector<Expected> out;
  for (const parabb::JsonValue& item : doc.find("results")->items()) {
    out.push_back({item.items().at(0).as_int(), item.items().at(1).as_int() != 0});
  }
  return out;
}

void print_expected(const Options& opt, const std::vector<Expected>& items) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu,\n"
              " \"format\": \"[cost, proved] per instance or request, in "
              "input order\",\n \"results\": [",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::printf("%s[%lld,%d]", i == 0 ? "" : (i % 8 == 0 ? ",\n  " : ","),
                static_cast<long long>(items[i].cost),
                items[i].proved ? 1 : 0);
  }
  std::printf("]}\n");
}

std::string check_certificate(const parabb::TaskGraph& graph,
                              const parabb::Machine& machine,
                              const std::string& text, Time cost) {
  try {
    const parabb::Certificate cert =
        parabb::certificate_from_text(text, graph);
    if (cert.cost != cost) {
      return "certificate claims cost " + std::to_string(cert.cost) +
             ", response " + std::to_string(cost);
    }
    const parabb::VerifyReport report =
        parabb::verify_certificate(graph, machine, cert);
    if (!report.certified) return "not certified: " + report.summary();
  } catch (const std::exception& e) {
    return std::string("unreadable certificate: ") + e.what();
  }
  return "";
}

int selftest(const Options&) {
  // One small §4.1-style instance, solved with a certificate.
  parabb::GeneratorConfig cfg = parabb::paper_config();
  cfg.n_min = cfg.n_max = 8;
  cfg.depth_min = 4;
  cfg.depth_max = 6;
  const parabb::TaskGraph graph = make_graph(cfg, 12345, 1.5);
  const parabb::Machine machine = parabb::make_shared_bus_machine(2);
  const parabb::SchedContext ctx(graph, machine);
  parabb::CertificateBuilder builder;
  parabb::Params params;
  params.certify = &builder;
  const parabb::SearchResult r = parabb::solve_bnb(ctx, params);
  const std::string cert_text =
      parabb::certificate_to_text(builder.take(), graph);

  int caught = 0, cases = 0;
  const auto expect = [&](bool want_ok, const std::string& why,
                          const char* label) {
    ++cases;
    const bool ok = why.empty();
    const bool right = ok == want_ok;
    caught += right ? 1 : 0;
    std::printf("%-44s %s%s%s\n", label, ok ? "accepted" : "rejected",
                ok ? "" : ": ", why.c_str());
    if (!right) std::printf("  ^ WRONG: expected %s\n",
                            want_ok ? "accept" : "reject");
  };

  expect(true, check_solution(graph, machine, r.best, r.best_cost),
         "original schedule and cost");
  expect(true, check_certificate(graph, machine, cert_text, r.best_cost),
         "original certificate");
  expect(true, check_expected(r.best_cost, true, {r.best_cost, true}),
         "original cost vs expected");

  expect(false, check_solution(graph, machine, r.best, r.best_cost - 1),
         "corrupted cost (reported - 1)");
  expect(false, check_expected(r.best_cost + 1, true, {r.best_cost, true}),
         "corrupted cost vs expected optimum");

  // Corrupt the schedule: move the last task one tick earlier on its
  // processor, which breaks either its window, a precedence arc or the
  // recomputed lateness.
  std::vector<parabb::ScheduledTask> entries;
  for (parabb::TaskId t = 0; t < r.best.task_count(); ++t) {
    entries.push_back(r.best.entry(t));
  }
  const auto last = std::max_element(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.start < b.start; });
  last->start -= 1;
  last->finish -= 1;
  const parabb::Schedule shifted = parabb::Schedule::from_entries(
      graph.task_count(), entries);
  expect(false, check_solution(graph, machine, shifted, r.best_cost),
         "corrupted schedule (last start - 1)");

  // Corrupt the certificate: claim a cost one below the true optimum in
  // both the response and the certificate's own cost line.
  std::string forged = cert_text;
  const std::string key = " cost=" + std::to_string(r.best_cost) + " ";
  const std::size_t at = forged.find(key);
  if (at != std::string::npos) {
    forged.replace(at, key.size(),
                   " cost=" + std::to_string(r.best_cost - 1) + " ");
  }
  expect(false, check_certificate(graph, machine, forged, r.best_cost - 1),
         "corrupted certificate (cost - 1)");
  std::string dropped = cert_text;
  const std::size_t sched_at = dropped.find("\nsched ");
  if (sched_at != std::string::npos) {
    dropped.erase(sched_at, dropped.find('\n', sched_at + 1) - sched_at);
  }
  expect(false, check_certificate(graph, machine, dropped, r.best_cost),
         "corrupted certificate (one sched line dropped)");

  std::printf("selftest: %d of %d cases behaved as expected\n", caught, cases);
  return caught == cases ? 0 : 1;
}

}  // namespace perfbench
