// Golden search statistics for the sequential engine.
//
// Every SearchStats count field, the cost, `proved`, the certified lower
// bound and the termination reason of a fixed grid of seeded solves,
// compared field by field against tests/data/golden_search_stats.txt. The
// table was recorded from the engine before the in-hand LIFO dive (the
// best child kept in the scratch state instead of being pushed and popped
// back, docs/algorithm.md) replaced the push/pop round trip; any change to
// the order of expansions, to pool accounting or to what the active set
// holds at a poll point shows up here as a changed count.
//
// The grid:
//  * 40 seeded §4.1 instances (m = 3; 20 at the paper's laxity, 20 at
//    laxity 1.1) × {LIFO, FIFO, LLB} × {LB0, LB1, LB2}, each with a
//    20000-generated budget (deterministic for the sequential engine) so
//    the breadth-first rules stay small;
//  * LIFO cases that take the in-hand vertex through every flush point:
//    certification, checkpoint + resume at the first poll, early budget
//    stops, a finite MAXSZAS, the degradation ladder under a memory budget
//    (LIFO, and LLB degrading to LIFO), plus the transposition table,
//    unsorted children, a BR limit, the processor-symmetry dominance hook
//    and from-scratch bounds.
//
// A deliberate search change re-records the table: empty the file, run
// this test, and copy every `actual:` line it prints into the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "parabb/bnb/engine.hpp"
#include "parabb/bnb/hooks.hpp"
#include "parabb/bnb/search_obs.hpp"
#include "parabb/ckpt/checkpoint.hpp"
#include "parabb/ckpt/snapshot.hpp"
#include "parabb/verify/certificate.hpp"
#include "test_util.hpp"

namespace parabb {
namespace {

/// One line of the table: `<case> key=value ...`.
std::string stats_line(const std::string& name, const SearchResult& r) {
  std::ostringstream os;
  os << name;
  for (const SearchStatsField& f : kSearchStatsFields)
    os << ' ' << f.name << '=' << r.stats.*(f.member);
  os << " peak_active=" << r.stats.peak_active
     << " peak_memory_bytes=" << r.stats.peak_memory_bytes
     << " cost=" << r.best_cost << " proved=" << r.proved
     << " clb=" << r.certified_lower_bound
     << " reason=" << static_cast<int>(r.reason);
  return os.str();
}

const char* select_name(SelectRule s) {
  switch (s) {
    case SelectRule::kLIFO: return "lifo";
    case SelectRule::kFIFO: return "fifo";
    case SelectRule::kLLB: return "llb";
  }
  return "?";
}

std::string scratch_file(std::string name) {
  std::replace(name.begin(), name.end(), '/', '_');
  return (std::filesystem::temp_directory_path() /
          ("parabb_golden_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

/// Checkpoint at the first poll point, stop, and resume — twice — so the
/// frontier is serialized while the engine would otherwise hold a vertex
/// in hand. Each incarnation and each snapshot's frontier contributes a
/// line.
void checkpoint_chain(const std::string& tag, const SchedContext& ctx,
                      Params base, std::vector<std::string>& out) {
  const std::string path = scratch_file(tag + ".ckpt");
  SearchSnapshot snap;
  for (int leg = 0; leg < 3; ++leg) {
    CheckpointController ckpt(path, /*every_ms=*/0);
    if (leg < 2) ckpt.request_now(/*stop_after=*/true);
    Params p = base;
    p.ckpt = &ckpt;
    if (leg > 0) p.resume = &snap;
    const SearchResult r = solve_bnb(ctx, p);
    const std::string name = tag + "/leg" + std::to_string(leg);
    out.push_back(stats_line(name, r));
    // A search shorter than one poll interval finishes unsnapshotted.
    if (ckpt.writes() == 0) break;
    if (leg < 2) {
      snap = load_snapshot(path);
      std::ostringstream os;
      os << name << "/snapshot frontier=" << snap.frontier.size()
         << " next_seq=" << snap.next_seq;
      for (const SnapshotVertex& v : snap.frontier)
        os << ' ' << v.seq << ':' << v.lb << ':' << v.path.size();
      out.push_back(os.str());
    }
  }
  std::remove(path.c_str());
}

std::vector<std::string> golden_lines() {
  std::vector<std::string> out;

  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Half at the paper's laxity, half tight (laxity 1.1), where EDF is
    // rarely optimal and the searches are longer.
    const SchedContext ctx = test::make_ctx(
        seed <= 20 ? test::paper_instance(seed) : test::tight_instance(seed),
        3);
    for (const SelectRule s :
         {SelectRule::kLIFO, SelectRule::kFIFO, SelectRule::kLLB}) {
      for (const LowerBound lb :
           {LowerBound::kLB0, LowerBound::kLB1, LowerBound::kLB2}) {
        Params p;
        p.select = s;
        p.lb = lb;
        p.rb.max_generated = 20000;
        out.push_back(stats_line("grid/s" + std::to_string(seed) + "/" +
                                     select_name(s) + "/lb" +
                                     std::to_string(static_cast<int>(lb)),
                                 solve_bnb(ctx, p)));
      }
    }
  }

  // Tight instances from 5.6k to 49k expansions under LIFO/LB1.
  for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{7},
                                   std::uint64_t{29}, std::uint64_t{69}}) {
    const SchedContext ctx = test::make_ctx(test::tight_instance(seed), 3);
    const std::string tag = "tight/s" + std::to_string(seed);

    {
      CertificateBuilder builder;
      Params p;
      p.certify = &builder;
      p.rb.max_generated = 200000;
      const SearchResult r = solve_bnb(ctx, p);
      const Certificate cert = builder.take();
      out.push_back(stats_line(tag + "/certify", r) +
                    " cuts=" + std::to_string(cert.cuts.size()) +
                    " truncated=" + std::to_string(cert.truncated));
    }

    Params budgeted;
    budgeted.rb.max_generated = 200000;
    checkpoint_chain(tag + "/ckpt", ctx, budgeted, out);

    // Budget stops a few expansions in, while a vertex is held in hand:
    // the certified lower bound reads the flushed active set.
    for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{40}}) {
      Params p;
      p.rb.max_generated = budget;
      out.push_back(stats_line(tag + "/budget" + std::to_string(budget),
                               solve_bnb(ctx, p)));
    }

    for (const std::size_t max_active : {std::size_t{4}, std::size_t{16}}) {
      Params p = budgeted;
      p.rb.max_active = max_active;
      out.push_back(stats_line(
          tag + "/max_active" + std::to_string(max_active), solve_bnb(ctx, p)));
    }

    // LIFO under a memory budget a few dozen live vertices wide (the
    // smallest pool chunk is 64 slots): the ladder sheds the table, then,
    // with lowered rungs, tightens MAXSZDB and steps the branching rule
    // down to DF; a budget cliff may end the run.
    {
      Params p = budgeted;
      p.ub = UpperBoundInit::kInfinite;
      p.transposition.enabled = true;
      p.rb.max_memory_bytes = 16000;
      p.degrade.enabled = true;
      out.push_back(stats_line(tag + "/ladder_tt", solve_bnb(ctx, p)));
      p.degrade.shed_tt_frac = 0.2;
      p.degrade.tighten_db_frac = 0.3;
      p.degrade.bf1_frac = 0.4;
      p.degrade.df_frac = 0.5;
      out.push_back(stats_line(tag + "/ladder_low", solve_bnb(ctx, p)));
    }
    // LLB whose last rung switches selection to LIFO mid-run.
    {
      Params p = budgeted;
      p.select = SelectRule::kLLB;
      p.ub = UpperBoundInit::kInfinite;
      p.rb.max_generated = 60000;
      p.rb.max_memory_bytes = 400000;
      p.degrade.enabled = true;
      p.degrade.shed_tt_frac = 0.2;
      p.degrade.tighten_db_frac = 0.3;
      p.degrade.bf1_frac = 0.4;
      p.degrade.df_frac = 0.5;
      out.push_back(stats_line(tag + "/llb_ladder", solve_bnb(ctx, p)));
    }

    {
      Params p = budgeted;
      p.transposition.enabled = true;
      out.push_back(stats_line(tag + "/tt", solve_bnb(ctx, p)));
    }
    {
      Params p = budgeted;
      p.sort_children = false;
      out.push_back(stats_line(tag + "/unsorted", solve_bnb(ctx, p)));
    }
    {
      Params p = budgeted;
      p.br = 0.1;
      out.push_back(stats_line(tag + "/br", solve_bnb(ctx, p)));
    }
    {
      Params p = budgeted;
      p.dominance = make_processor_symmetry_dominance();
      out.push_back(stats_line(tag + "/dominance", solve_bnb(ctx, p)));
    }
    {
      Params p = budgeted;
      p.incremental_lb = false;
      out.push_back(stats_line(tag + "/scratch_lb", solve_bnb(ctx, p)));
    }
  }

  // A budget stop where the vertex in hand has a smaller bound than every
  // vertex in the active set, so the certified lower bound shows whether
  // it was flushed back before the bound was read.
  {
    const SchedContext ctx = test::make_ctx(test::tight_instance(2), 3);
    Params p;
    p.rb.max_generated = 120;
    out.push_back(stats_line("tight/s2/budget120", solve_bnb(ctx, p)));
  }
  return out;
}

/// `case key=value ...` -> (case, {key: value}).
std::pair<std::string, std::map<std::string, std::string>> parse(
    const std::string& line) {
  std::istringstream is(line);
  std::string name;
  is >> name;
  std::map<std::string, std::string> fields;
  std::string tok;
  int positional = 0;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      fields["#" + std::to_string(positional++)] = tok;
    } else {
      fields[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
  return {name, fields};
}

TEST(GoldenStats, SequentialEngineMatchesRecordedCounts) {
  std::ifstream in(PARABB_GOLDEN_STATS_FILE);
  ASSERT_TRUE(in.good()) << "cannot read " << PARABB_GOLDEN_STATS_FILE;
  std::map<std::string, std::map<std::string, std::string>> golden;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    golden.insert(parse(line));
  }

  const std::vector<std::string> lines = golden_lines();
  EXPECT_EQ(lines.size(), golden.size());
  for (const std::string& line : lines) {
    const auto [name, fields] = parse(line);
    const auto it = golden.find(name);
    if (it == golden.end()) {
      ADD_FAILURE() << "case missing from the table\nactual: " << line;
      continue;
    }
    bool same = fields.size() == it->second.size();
    for (const auto& [key, value] : fields) {
      const auto want = it->second.find(key);
      if (want == it->second.end()) {
        same = false;
        ADD_FAILURE() << name << ": unrecorded field " << key;
      } else if (want->second != value) {
        same = false;
        ADD_FAILURE() << name << ": " << key << " = " << value
                      << ", recorded " << want->second;
      }
    }
    if (!same) ADD_FAILURE() << "actual: " << line;
  }
}

}  // namespace
}  // namespace parabb
