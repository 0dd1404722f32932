#include "parabb/experiments/report.hpp"

#include <cstdio>
#include <fstream>
#include <thread>

#include "parabb/support/assert.hpp"

namespace parabb {

TextTable make_report_table(const ExperimentConfig& config,
                            const ExperimentResult& result) {
  // Transposition-table columns appear only when some variant uses the
  // table, so the paper-reproduction reports keep their original shape.
  bool any_tt = false;
  for (const AlgorithmVariant& v : config.variants) {
    any_tt |= v.kind == AlgorithmVariant::Kind::kBnB &&
              v.params.transposition.enabled;
  }

  TextTable table;
  std::vector<std::string> header{"variant", "m",    "vertices",
                                  "lateness", "ms/run", "peak |AS|"};
  if (any_tt) {
    header.insert(header.end(), {"TT hit%", "TT evict", "TT coll"});
  }
  header.insert(header.end(), {"excl", "unprov", "runs"});
  table.set_header(std::move(header));
  for (std::size_t v = 0; v < config.variants.size(); ++v) {
    if (v > 0) table.add_rule();
    for (std::size_t mi = 0; mi < config.machine_sizes.size(); ++mi) {
      const CellStats& cell = result.cells[v][mi];
      std::vector<std::string> row{
          config.variants[v].label,
          std::to_string(config.machine_sizes[mi]),
          fmt_ci(cell.vertices.mean(),
                 ci_halfwidth(cell.vertices, config.vertices_confidence), 1),
          fmt_ci(cell.lateness.mean(),
                 ci_halfwidth(cell.lateness, config.lateness_confidence), 2),
          fmt_double(cell.seconds.mean() * 1e3, 3),
          fmt_double(cell.peak_active.mean(), 1),
      };
      if (any_tt) {
        row.push_back(fmt_double(cell.tt_hit_rate.mean() * 100.0, 1));
        row.push_back(fmt_double(cell.tt_evictions.mean(), 1));
        row.push_back(fmt_double(cell.tt_collisions.mean(), 1));
      }
      row.insert(row.end(), {std::to_string(cell.excluded),
                             std::to_string(cell.unproved),
                             std::to_string(cell.vertices.count())});
      table.add_row(std::move(row));
    }
  }
  return table;
}

TextTable make_ratio_table(const ExperimentConfig& config,
                           const ExperimentResult& result,
                           std::size_t reference_variant) {
  PARABB_REQUIRE(reference_variant < config.variants.size(),
                 "reference variant index out of range");
  TextTable table;
  std::vector<std::string> header{"m"};
  for (std::size_t v = 0; v < config.variants.size(); ++v) {
    if (v == reference_variant) continue;
    header.push_back(config.variants[v].label + " vtx/ref");
    header.push_back(config.variants[v].label + " lat-ref");
  }
  table.set_header(std::move(header));
  for (std::size_t mi = 0; mi < config.machine_sizes.size(); ++mi) {
    std::vector<std::string> row{
        std::to_string(config.machine_sizes[mi])};
    const CellStats& ref = result.cells[reference_variant][mi];
    for (std::size_t v = 0; v < config.variants.size(); ++v) {
      if (v == reference_variant) continue;
      const CellStats& cell = result.cells[v][mi];
      const double vr = ref.vertices.mean() > 0
                            ? cell.vertices.mean() / ref.vertices.mean()
                            : 0.0;
      row.push_back(fmt_double(vr, 2) + "x");
      row.push_back(fmt_double(cell.lateness.mean() - ref.lateness.mean(),
                               2));
    }
    table.add_row(std::move(row));
  }
  return table;
}

void emit(const std::string& heading, const TextTable& table,
          const std::string& csv_path) {
  std::printf("\n== %s ==\n%s", heading.c_str(), table.to_string().c_str());
  if (!csv_path.empty()) {
    write_text_file(csv_path, table.to_csv());
    std::printf("(csv written to %s)\n", csv_path.c_str());
  }
  std::fflush(stdout);
}

JsonValue table_to_json(const TextTable& table) {
  JsonValue out = JsonValue::object();
  JsonValue header = JsonValue::array();
  for (const std::string& cell : table.header()) header.push_back(cell);
  out.set("header", std::move(header));
  JsonValue rows = JsonValue::array();
  for (const auto& row : table.rows()) {
    if (row.empty()) continue;  // horizontal rule, not data
    JsonValue r = JsonValue::array();
    for (const std::string& cell : row) r.push_back(cell);
    rows.push_back(std::move(r));
  }
  out.set("rows", std::move(rows));
  return out;
}

namespace {

JsonValue host_json() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      cpu_model = line.substr(colon + 2);
    break;
  }
  JsonValue host = JsonValue::object();
  host.set("nproc",
           static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  host.set("cpu_model", cpu_model);
  host.set("compiler", PARABB_COMPILER);
  host.set("build_type", PARABB_BUILD_TYPE);
  return host;
}

}  // namespace

JsonValue bench_document(const std::string& bench_id) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "parabb-bench-v1");
  doc.set("bench", bench_id);
  doc.set("host", host_json());
  return doc;
}

}  // namespace parabb
