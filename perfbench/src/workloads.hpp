// The three workloads of the benchmark (see perfbench/README.md).
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

Result run_paper_seq(const Options& opt);
Result run_tight_par(const Options& opt);
Result run_serve_mix(const Options& opt);

/// Applies the frozen tight-par screening rule to the candidates of one
/// family ("dev" or "heldout") and prints the resulting pool as JSON. Used
/// once, when the workload was defined; never at benchmark time.
int screen_tight_par(const std::string& family);

}  // namespace perfbench
