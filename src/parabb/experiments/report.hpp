// Rendering of experiment results as paper-style tables and CSV.
#pragma once

#include <string>

#include "parabb/experiments/experiment.hpp"
#include "parabb/support/json.hpp"
#include "parabb/support/table.hpp"

namespace parabb {

/// One row per (variant, machine size): searched vertices and maximum
/// lateness as mean ± CI half-width, per-run time, exclusions.
TextTable make_report_table(const ExperimentConfig& config,
                            const ExperimentResult& result);

/// Ratio summary against a reference variant (e.g. "LLB / LIFO vertices"):
/// one row per machine size with vertices and lateness ratios.
TextTable make_ratio_table(const ExperimentConfig& config,
                           const ExperimentResult& result,
                           std::size_t reference_variant);

/// Prints `table` to stdout with a heading; optionally writes CSV to
/// `csv_path` (empty = skip).
void emit(const std::string& heading, const TextTable& table,
          const std::string& csv_path = {});

/// `table` as parabb-bench-v1 {header, rows} (rule rows dropped).
JsonValue table_to_json(const TextTable& table);

/// A parabb-bench-v1 document for `bench_id` with its schema, bench name
/// and host block set — the machine the measurement ran on: nproc, CPU
/// model, compiler and build type, as in perfbench's host block. The
/// caller adds its plan and tables.
JsonValue bench_document(const std::string& bench_id);

}  // namespace parabb
