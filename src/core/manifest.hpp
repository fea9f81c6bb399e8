// core::RunManifest — provenance for every produced artifact.
//
// A result (ExperimentResult, GridResult, ModelBundle, BENCH_*.json) is only
// reproducible if it records exactly how it was produced: which dataset
// bytes, which seeds and dimensions, which SIMD tier the dispatcher picked,
// how many threads ran, and whether obs recording and tracing were on.
// RunManifest captures all of that, plus the obs snapshot as
// embedded JSON, at the moment a run finishes. The dataset fingerprint is a
// streaming FNV-1a over the exact value bit patterns, labels, and column
// specs — any edit to the data changes the hash.
//
// Manifests are observability output: embedding or dropping them never
// changes any metric or prediction.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "data/dataset.hpp"

namespace hdc::core {

struct ExperimentConfig;  // core/experiment.hpp

struct RunManifest {
  std::string dataset;            // name(s); comma-joined for grid runs
  std::uint64_t dataset_hash = 0; // dataset_fingerprint(); mixed across grids
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t dimensions = 0;   // hypervector width
  std::uint64_t extractor_seed = 0;
  std::uint64_t split_seed = 0;   // CV / holdout split seed
  std::string simd_tier;          // simd::tier_name(active_tier())
  std::uint64_t threads = 0;      // configured worker count (0 = global pool)
  std::uint64_t hardware_threads = 0;
  bool obs_enabled = false;
  bool trace_enabled = false;
  std::uint64_t shard_rows = 0;   // rows per shard of a streamed build; 0 = resident
  std::uint64_t num_shards = 0;   // shard count over `rows` (1 when resident)
  std::string obs_json;           // obs::to_json(snapshot()) at capture time
};

/// Streaming FNV-1a 64 over the dataset's column specs, labels, and value
/// bit patterns. Deterministic across platforms for identical data.
[[nodiscard]] std::uint64_t dataset_fingerprint(const data::Dataset& ds);

/// Fold `value` into an accumulated fingerprint (for multi-dataset runs).
/// Start from 0; order-sensitive, like the grid's dataset order.
[[nodiscard]] std::uint64_t mix_hash(std::uint64_t acc, std::uint64_t value) noexcept;

/// Capture a manifest for a run over `ds` under `config`, including the
/// current obs snapshot and obs/trace states.
[[nodiscard]] RunManifest make_run_manifest(const data::Dataset& ds,
                                            std::string_view dataset_name,
                                            const ExperimentConfig& config);

/// One JSON object (obs_json embedded verbatim under "obs").
[[nodiscard]] std::string to_json(const RunManifest& manifest);

/// util::serde token round-trip (the bundle "manifest" section body).
void save_manifest(std::ostream& out, const RunManifest& manifest);
[[nodiscard]] RunManifest load_manifest(std::istream& in);

}  // namespace hdc::core
