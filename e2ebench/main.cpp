// e2e_bench — the repo benchmark. One workload per run:
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//             [--expect-cv-accuracy X]
//
// Prints comment lines ("# ...") while it runs and ends with one JSON line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics with obs off; --trace 1 reports the per-layer metrics
// of a run that times each layer and turns obs on for its second half.
// Exits non-zero when any correctness check fails. run.py builds this
// binary and is the entry point BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using Runner = void (*)(const e2e::Options&, e2e::Report&);

const std::map<std::string, Runner>& workloads() {
  static const std::map<std::string, Runner> table = {
      {"serve_paper", e2e::run_serve_paper},
      {"serve_cohort_ann", e2e::run_serve_cohort_ann},
      {"train_cohort", e2e::run_train_cohort},
      {"grid_paper", e2e::run_grid_paper},
  };
  return table;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--expect-cv-accuracy X]\nworkloads:",
               why);
  for (const auto& [name, runner] : workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--expect-cv-accuracy") {
      options.has_expected_cv = true;
      options.expected_cv = std::strtod(value, nullptr);
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto it = workloads().find(options.workload);
  if (it == workloads().end()) return usage("unknown workload");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.workdir.empty()) return usage("--workdir is required");

  std::printf("# e2e_bench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  e2e::Report report;
  try {
    it->second(options, report);
  } catch (const std::exception& error) {
    report.fail(std::string("workload threw: ") + error.what());
  }
  return e2e::write_result(report, options.trace);
}
