// perfbench — the repository benchmark's harness. perfbench/run.py builds
// it and passes the options; see perfbench/README.md for the workloads and
// the metric catalogue.
//
//   perfbench --workload paper-seq --seed 1 --seconds 20 --trace 0
//             --data perfbench/data --serve-bin <parabb_serve> --out <dir>
//   perfbench --host | --selftest | --screen dev|heldout
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "oracle.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper-seq|tight-par|serve-mix "
               "--seed N --seconds S --trace 0|1 --data DIR --serve-bin BIN "
               "--out DIR [--write-expected]\n"
               "       perfbench --host | --selftest | --screen dev|heldout\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string screen;
  bool selftest_mode = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
        return argv[++i];
      };
      if (a == "--host") {
        std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                    PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
        return 0;
      } else if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = value() == "1";
      } else if (a == "--data") {
        opt.data_dir = value();
      } else if (a == "--serve-bin") {
        opt.serve_bin = value();
      } else if (a == "--out") {
        opt.out_dir = value();
      } else if (a == "--write-expected") {
        opt.write_expected = true;
      } else if (a == "--selftest") {
        selftest_mode = true;
      } else if (a == "--screen") {
        screen = value();
      } else {
        return usage();
      }
    }
    if (selftest_mode) return selftest(opt);
    if (!screen.empty()) return screen_tight_par(screen);

    if (opt.write_expected && opt.workload == "tight-par") {
      std::fprintf(stderr, "perfbench: tight-par's expected costs are the "
                           "frozen pool's (data/tight_par.json)\n");
      return 2;
    }
    Result res;
    if (opt.workload == "paper-seq") {
      res = run_paper_seq(opt);
    } else if (opt.workload == "tight-par") {
      res = run_tight_par(opt);
    } else if (opt.workload == "serve-mix") {
      res = run_serve_mix(opt);
    } else {
      return usage();
    }
    if (opt.write_expected) return res.tally.failed() == 0 ? 0 : 1;
    print_result(res);
    return res.tally.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
