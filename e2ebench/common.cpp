#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"

namespace e2e {

std::uint64_t query_seed(std::uint64_t seed) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x5EED;
}

const std::vector<MetricSpec>& catalogue() {
  static const std::vector<MetricSpec> specs = {
      // End-to-end: one value per workload, every workload.
      {"setup_s", "s", false},
      {"p50_us", "us", false},
      {"p99_us", "us", false},
      {"qps", "1/s", false},
      {"rows_per_s", "rows/s", false},
      {"accuracy", "fraction", false},
      {"match_fraction", "fraction", false},
      {"success_fraction", "fraction", false},
      {"peak_rss_mb", "MB", false},
      // Per-layer, from the traced run.
      {"data.csv_prescan_s", "s", true},
      {"data.chunk_s", "s", true},
      {"data.chunk_calls", "count", true},
      {"extractor.encode_row_us", "us", true},
      {"extractor.fit_s", "s", true},
      {"extractor.shard_encode_s", "s", true},
      {"extractor.shard_encodes", "count", true},
      {"hamming.predict_us", "us", true},
      {"ann.probes_per_query", "count", true},
      {"ann.candidates_per_query", "count", true},
      {"ann.reranked_per_query", "count", true},
      {"ann.word_ops_per_query", "count", true},
      {"ann.sketch_blocks_per_query", "count", true},
      {"ann.rerank_ratio", "fraction", true},
      {"ann.build_s", "s", true},
      {"ann.build_bytes_peak", "bytes", true},
      {"ann.index_bytes", "bytes", true},
      {"ml.predict_us.logistic", "us", true},
      {"ml.predict_us.random_forest", "us", true},
      {"ml.fit_s.logistic", "s", true},
      {"ml.fit_s.naive_bayes", "s", true},
      {"ml.fit_s.decision_tree", "s", true},
      {"ml.shard_passes.logistic", "count", true},
      {"ml.shard_passes.naive_bayes", "count", true},
      {"ml.shard_passes.decision_tree", "count", true},
      {"ml.shard_wait_s.logistic", "s", true},
      {"ml.shard_wait_s.naive_bayes", "s", true},
      {"ml.shard_wait_s.decision_tree", "s", true},
      {"bundle.save_s", "s", true},
      {"bundle.load_s", "s", true},
      {"bundle.bytes", "bytes", true},
      {"serve.overhead_us", "us", true},
      {"serve.burst_ms", "ms", true},
      {"serve.batches_per_burst", "count", true},
      {"serve.queue_depth_max", "count", true},
      {"grid.encode_tasks", "count", true},
      {"grid.cache_hits", "count", true},
      {"grid.cache_misses", "count", true},
      {"grid.dedup_ratio", "ratio", true},
      {"grid.tasks_executed", "count", true},
      {"grid.steals", "count", true},
      {"grid.loo_s", "s", true},
      {"grid.fold_encode_s", "s", true},
      {"grid.model_fit_s", "s", true},
      {"trace.overhead_fraction", "fraction", true},
  };
  return specs;
}

void Report::fail(const std::string& message) {
  errors.push_back(message);
  ++failed;
}

namespace {

// Minimal JSON emission: the result object only ever holds ASCII names,
// units and finite numbers, so no string escaping is needed.
void append_number(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

}  // namespace

int write_result(const Report& report, bool trace) {
  std::vector<std::string> errors = report.errors;
  std::string metrics;
  for (const MetricSpec& spec : catalogue()) {
    if (spec.layer != trace) continue;
    const std::string name(spec.name);
    const auto it = report.metrics.find(name);
    double value = 0.0;
    if (it != report.metrics.end()) {
      value = it->second;
    } else if (!trace) {
      errors.push_back("metric " + name + " was not measured");
    }
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": ";
    append_number(metrics, value);
    metrics += ", \"unit\": \"" + std::string(spec.unit) + "\"}";
  }
  for (const auto& [name, value] : report.metrics) {
    const bool known = std::any_of(
        catalogue().begin(), catalogue().end(),
        [&](const MetricSpec& spec) { return spec.name == name; });
    if (!known) errors.push_back("metric " + name + " is not in the catalogue");
  }

  const std::uint64_t attempted = std::max<std::uint64_t>(report.attempted, 1);
  const std::uint64_t failed =
      std::min(attempted, report.failed + (errors.size() - report.errors.size()));
  for (const std::string& error : errors) {
    std::fprintf(stderr, "e2ebench: FAILED CHECK: %s\n", error.c_str());
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return values[index];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

namespace {

/// VmHWM of /proc/self/status in MiB: unlike getrusage's ru_maxrss, the
/// kernel lets a process reset it.
double hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace

void PeakRss::setup_done() {
  if (first_setup_mb_ < 0.0) first_setup_mb_ = hwm_mb();
}

void PeakRss::start_timed_phase() {
  (void)malloc_trim(0);
  // "5" resets VmHWM to the current RSS (Linux >= 4.0). Should the write
  // fail, VmHWM stays the whole process's peak, which only overstates.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::mb() const { return std::max(first_setup_mb_, hwm_mb()); }

std::vector<double> probe_p50_us(
    std::size_t calls, const std::vector<std::function<void(std::size_t)>>& fns) {
  // Layer k sees index i + k * stride, so consecutive calls never work on
  // the same query: a cache warmed by the previous layer's call would
  // otherwise flatter the next one.
  constexpr std::size_t kStride = 7919;
  std::vector<std::vector<double>> us(fns.size());
  for (std::size_t i = 0; i < calls; ++i) {
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const Clock::time_point start = Clock::now();
      fns[k](i + k * kStride);
      us[k].push_back(seconds_since(start) * 1e6);
    }
  }
  std::vector<double> p50;
  for (std::vector<double>& samples : us) p50.push_back(median(std::move(samples)));
  return p50;
}

ObsScope::ObsScope() {
  hdc::obs::reset_metrics();
  hdc::obs::set_enabled(true);
}

ObsScope::~ObsScope() { hdc::obs::set_enabled(false); }

void add_counts(ClientLog& into, const ClientLog& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.matched += from.matched;
  into.correct += from.correct;
  into.rows += from.rows;
}

ClientLog merge(std::span<const ClientLog> logs) {
  ClientLog total;
  for (const ClientLog& log : logs) {
    total.latency_us.insert(total.latency_us.end(), log.latency_us.begin(),
                            log.latency_us.end());
    add_counts(total, log);
  }
  return total;
}

namespace {

/// One closed-loop window; returns its wall time.
double closed_loop(std::size_t clients, double seconds,
                   const std::function<void(std::size_t, std::uint64_t, ClientLog&)>& op,
                   std::vector<ClientLog>& logs) {
  logs.assign(clients, ClientLog{});
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          op(c, i, log);
          if (Clock::now() >= deadline) stop.store(true, std::memory_order_relaxed);
        }
      });
    }
  }  // jthreads join here
  return seconds_since(start);
}

}  // namespace

void windowed_loop(std::size_t clients, double seconds,
                   const std::function<void(std::size_t, std::uint64_t, ClientLog&)>& op,
                   const std::function<void(std::vector<ClientLog>&, double)>& digest) {
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / kWindowSeconds)));
  std::vector<ClientLog> logs;
  for (std::size_t w = 0; w < windows; ++w) {
    const double wall = closed_loop(clients, seconds / static_cast<double>(windows), op, logs);
    digest(logs, wall);
  }
}

void print_phase(const char* phase, const ClientLog& total) {
  std::printf("# %s: sent=%llu succeeded=%llu failed=%llu\n", phase,
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.attempted - total.failed),
              static_cast<unsigned long long>(total.failed));
}

}  // namespace e2e
