// Shared scaffolding for the repo benchmark (e2ebench): run options, the
// metric catalogue, the single JSON result writer, and the timing helpers
// every workload uses.
//
// A workload fills a Report: end-to-end metrics in an untraced run
// (--trace 0), per-layer metrics in a traced run (--trace 1), plus the
// attempted / failed operation counts and any correctness failures. main()
// hands the Report to write_result(), which prints the one JSON line the
// run ends with.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // scratch directory for CSV / bundle files
  /// grid_paper only: the cv_accuracy recorded for the default seed; the
  /// run fails unless it reproduces it exactly. Absent = no reference.
  bool has_expected_cv = false;
  double expected_cv = 0.0;
};

/// Seed for query / holdout rows: always distinct from the training seed.
[[nodiscard]] std::uint64_t query_seed(std::uint64_t seed);

/// One metric of the catalogue. `layer` = reported by traced runs only.
struct MetricSpec {
  std::string_view name;
  std::string_view unit;
  bool layer;
};

/// Every metric the benchmark can report, in output order. BENCHMARK.json
/// lists the same names and units (run.py checks that they agree).
[[nodiscard]] const std::vector<MetricSpec>& catalogue();

struct Report {
  std::map<std::string, double> metrics;  // by catalogue name
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures, one line each

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Record a correctness failure: counted as a failed operation too.
  void fail(const std::string& message);
};

/// Print the result object as the last stdout line. End-to-end runs must
/// have measured every end-to-end metric; traced runs report every
/// per-layer metric, 0 for layers the workload does not exercise. Returns
/// the process exit code (non-zero when any check failed).
int write_result(const Report& report, bool trace);

// -- timing ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
[[nodiscard]] double quantile(std::vector<double>& values, double q);

[[nodiscard]] double median(std::vector<double> values);

/// peak_rss_mb: the resident-set high-water mark (MiB) over what a deployed
/// process also goes through, the first set-up and the timed phase. A run
/// repeats its set-up only so that setup_s can be a median; how much of one
/// set-up's freed memory glibc keeps resident under the next depends on
/// where it placed the blocks, which moved serve_paper's process-wide peak
/// between ~126 and ~174 MB on the same code. So the later set-ups are left
/// out, and freed set-up memory is handed back to the OS before timing.
class PeakRss {
 public:
  /// After each set-up; keeps the high-water mark as of the first.
  void setup_done();
  /// Untimed, after the last set-up: returns the allocator's free pages to
  /// the OS (malloc_trim) and restarts the kernel's high-water mark.
  void start_timed_phase();
  /// Larger of the first set-up's and the timed phase's high-water marks.
  [[nodiscard]] double mb() const;

 private:
  double first_setup_mb_ = -1.0;
};

/// Per-layer probes of a traced run: p50 latency in microseconds of each
/// layer call `fns[k](index)` over `calls` calls each, timed one call at a
/// time. The layers are interleaved call by call, so drift in machine speed
/// hits every layer alike and differences between the p50s stay
/// meaningful. `index` runs over `calls` consecutive values per layer
/// (offset per layer); callers reduce it modulo their query count.
[[nodiscard]] std::vector<double> probe_p50_us(
    std::size_t calls, const std::vector<std::function<void(std::size_t)>>& fns);

/// Per-client outcome of a closed-loop phase.
struct ClientLog {
  std::vector<double> latency_us;  // one entry per completed operation
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    // threw
  std::uint64_t matched = 0;   // answer equal to the set-up reference
  std::uint64_t correct = 0;   // answer equal to the true label
  std::uint64_t rows = 0;      // patient rows answered
};

/// Sum of per-thread totals into one log (latencies concatenated).
[[nodiscard]] ClientLog merge(std::span<const ClientLog> logs);

/// Add `from`'s counts (not its latencies) to `into`.
void add_counts(ClientLog& into, const ClientLog& from);

/// Length of one measurement window. Latency quantiles and rates are taken
/// per window and reported as the median across windows, so a burst of
/// outside load on a shared machine moves one window, not the result.
inline constexpr double kWindowSeconds = 1.0;

/// Closed loop in back-to-back windows filling `seconds` (at least one):
/// `clients` threads each call `op(client, i, log)` for i = 0, 1, ... and
/// wait for it before the next call; `op` records into its own client's log
/// only. `digest(logs, wall)` receives each window's per-client logs.
void windowed_loop(std::size_t clients, double seconds,
                   const std::function<void(std::size_t, std::uint64_t, ClientLog&)>& op,
                   const std::function<void(std::vector<ClientLog>&, double)>& digest);

/// Log one phase's request tally to stdout as a comment line.
void print_phase(const char* phase, const ClientLog& total);

/// Scope of a traced phase: zeroes the obs registry and turns metrics
/// recording on until destruction. Library span tracing stays off: at grid
/// scale the pool's per-task flow events overflow its per-thread span
/// buffers, so the benchmark times the layers itself instead.
class ObsScope {
 public:
  ObsScope();
  ~ObsScope();
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
};

/// (traced - untraced) / untraced for two per-operation times.
[[nodiscard]] inline double overhead_fraction(double untraced, double traced) {
  return (traced - untraced) / untraced;
}

/// Set-ups per run: `untraced` in an untraced run (setup_s is their
/// median), one in a traced run, which reports no setup_s.
[[nodiscard]] inline std::size_t setup_count(const Options& options, std::size_t untraced) {
  return options.trace ? 1 : untraced;
}

// -- workloads (one translation unit each family) ----------------------------

void run_serve_paper(const Options& options, Report& report);
void run_serve_cohort_ann(const Options& options, Report& report);
void run_train_cohort(const Options& options, Report& report);
void run_grid_paper(const Options& options, Report& report);

}  // namespace e2e
