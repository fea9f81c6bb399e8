// Experiment drivers reproducing the paper's evaluation protocols: the
// per-fold building blocks the k-fold grid (core/grid) schedules, the
// Table IV/V holdout, the Table II Hamming LOO and the Sequential NN
// protocol. Each bench binary is a thin wrapper over these functions and
// run_grid; the unit tests also exercise them on reduced configurations.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/extractor.hpp"
#include "core/manifest.hpp"
#include "data/dataset.hpp"
#include "eval/metrics.hpp"
#include "hv/bit_matrix.hpp"
#include "ml/classifier.hpp"
#include "nn/sequential.hpp"
#include "obs/metrics.hpp"

namespace hdc::core {

/// What the downstream model consumes.
enum class InputMode { kRawFeatures, kHypervectors };

[[nodiscard]] std::string to_string(InputMode mode);

struct ExperimentConfig {
  ExtractorConfig extractor;
  std::uint64_t seed = 42;   // split / CV seed
  double model_budget = 1.0; // scales boosted-model iteration counts
  /// Worker threads for the batch encode / Hamming search engine: 0 = the
  /// process-wide pool. Results are bit-identical for every setting (the
  /// golden determinism test pins 1 vs hardware_threads()).
  std::size_t threads = 0;
};

/// Materialised (X, y) for one fold's train/test rows, in raw or
/// hypervector space. Packed hypervector folds carry bit-packed matrices
/// instead of dense doubles (train_X/test_X stay empty). The grid runner
/// (core/grid) shares one per fold across its model tasks, and the holdout
/// and NN protocols below build them the same way.
struct FoldData {
  ml::Matrix train_X;
  ml::Labels train_y;
  ml::Matrix test_X;
  ml::Labels test_y;
  std::optional<hv::BitMatrix> train_bits;
  std::optional<hv::BitMatrix> test_bits;
};

/// Build a FoldData for the given row subsets. In hypervector mode the
/// extractor is fit on `train` only (no encoding leakage); `allow_packed`
/// gates the BitMatrix fast path (the NN protocol needs dense matrices).
/// Pure function of (ds, indices, config): every call with the same inputs
/// yields the same fold, regardless of the calling thread.
[[nodiscard]] FoldData materialize_fold(const data::Dataset& ds,
                                        std::span<const std::size_t> train,
                                        std::span<const std::size_t> test,
                                        InputMode mode,
                                        const ExperimentConfig& config,
                                        bool allow_packed);

/// fit() / fit_bits() dispatch for whichever representation `fold` carries.
void fit_fold_model(ml::Classifier& model, const FoldData& fold);

/// Test-set accuracy of a fitted model on `fold`'s representation.
[[nodiscard]] double fold_accuracy(const ml::Classifier& model,
                                   const FoldData& fold);

/// Paper Table IV/V protocol: stratified 90/10 holdout, full test metrics.
[[nodiscard]] eval::BinaryMetrics holdout_metrics(const data::Dataset& ds,
                                                  const std::string& model_name,
                                                  InputMode mode,
                                                  double test_fraction,
                                                  const ExperimentConfig& config);

/// Paper Table II (Hamming row): leave-one-out 1-NN Hamming over the whole
/// dataset, encoded once with extractor ranges from the full data (the
/// paper builds all patient hypervectors up front).
[[nodiscard]] eval::BinaryMetrics hamming_loo(const data::Dataset& ds,
                                              const ExperimentConfig& config);

/// Metrics plus the obs-registry state and run provenance captured when the
/// run finished. Snapshot and manifest are pure observability output —
/// identical metrics are produced whether obs recording is on or off.
struct ExperimentResult {
  eval::BinaryMetrics metrics;
  obs::MetricsSnapshot obs;
  RunManifest manifest;
};

/// hamming_loo() plus a global-registry snapshot taken after the run (the
/// encode / search / pool counters accumulated so far in this process) and a
/// RunManifest recording how it was produced. `dataset_name` labels the
/// manifest (the Dataset itself carries no name).
[[nodiscard]] ExperimentResult hamming_loo_observed(
    const data::Dataset& ds, const ExperimentConfig& config,
    std::string_view dataset_name = "");

struct NnProtocolResult {
  double mean_test_accuracy = 0.0;
  double stddev_test_accuracy = 0.0;
  double mean_val_accuracy = 0.0;
  double mean_epochs = 0.0;  // epochs actually run (early stopping)
};

/// Paper Table II (Sequential NN rows): 70/15/15 stratified split, up to
/// 1000 epochs with patience-20 early stopping, repeated `repeats` times
/// with different split seeds; reports the mean testing accuracy.
[[nodiscard]] NnProtocolResult nn_protocol(const data::Dataset& ds, InputMode mode,
                                           std::size_t repeats,
                                           const ExperimentConfig& config,
                                           nn::SequentialConfig nn_config = {});

}  // namespace hdc::core
