// Microsecond-latency classification over a loaded ModelBundle.
//
// Two entry points, one determinism contract:
//
//  * classify(row) — synchronous fast path: encode the record through a
//    scratch-reusing single-row encoder (no per-request allocation after
//    warm-up) and answer from the selected predictor.
//  * submit(row) — request-coalescing queue: concurrent single-record
//    requests are batched by a drain task on the configured ThreadPool and
//    answered with one call per sweep: one packed predict_all_bits for a zoo
//    model, one HammingClassifier::predict_scores search for the Hamming
//    predictor (the ANN index reranks the sweep as query blocks, on the
//    engine's pool, never the process-wide one).
//
// Both paths produce bit-identical predictions for every row regardless of
// batch grouping or thread interleaving: zoo models answer each request via
// the packed row-independent predict_all_bits kernels, a Hamming search
// answers every query row independently of the others in its block (classify
// is a block of one), the Sequential-NN predictor is evaluated per row, and
// the encoder is deterministic by construction. core_serve_test and
// bench_serve assert the contract.
//
// Observability: serve.requests / serve.batches counters, a
// serve.batch_size histogram, a serve.queue_depth gauge, spans around the
// classify / drain hot paths, and on the ANN path serve.ann.candidates /
// serve.ann.probes counters plus one serve.ann.rerank_fraction sample per
// request, identical for both paths.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/bundle.hpp"
#include "hv/encoders.hpp"

namespace hdc::parallel {
class ThreadPool;
}

namespace hdc::core {

struct ServeConfig {
  /// Predictor answering requests: "hamming", "nn", a zoo model name
  /// (e.g. "Logistic Regression"), or empty = first available in that order.
  std::string model;
  /// Most requests folded into one packed predict per drain sweep.
  std::size_t max_batch = 64;
  /// Route hamming k-NN requests through the bundle's ANN index (attached
  /// at load, or built here when the bundle carries none). Requires the
  /// hamming predictor; other predictors reject the flag.
  bool ann = false;
  /// Probe-width override for the ANN path (0 = the index default).
  std::size_t nprobe = 0;
  /// Pool running the drain task; nullptr = process-wide pool.
  parallel::ThreadPool* pool = nullptr;
};

class ServeEngine {
 public:
  /// Takes ownership of the bundle. Throws std::invalid_argument when the
  /// bundle has no extractor or the requested predictor is absent.
  explicit ServeEngine(ModelBundle bundle, ServeConfig config = {});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Synchronous single-record classification (0/1).
  [[nodiscard]] int classify(std::span<const double> row);

  /// Enqueue one record for coalesced classification. The future carries
  /// the prediction, or the per-request error (arity mismatch, missing
  /// values with missing_as_min off). Throws std::runtime_error after
  /// shutdown().
  [[nodiscard]] std::future<int> submit(std::vector<double> row);

  /// Stop accepting requests and block until the queue is drained.
  /// Idempotent; the destructor calls it.
  void shutdown();

  /// Name of the predictor answering requests.
  [[nodiscard]] const std::string& model_name() const noexcept { return model_name_; }

  [[nodiscard]] const ModelBundle& bundle() const noexcept { return bundle_; }

  /// Requests answered so far (classify + drained submits).
  [[nodiscard]] std::uint64_t requests_served() const noexcept;

 private:
  enum class PredictorKind { kHamming, kNn, kMl };

  struct Request {
    std::vector<double> row;
    std::promise<int> result;
  };

  /// Per-thread encode scratch, leased from a free list under mutex_.
  struct Scratch {
    hv::RecordEncoder::Scratch encoder;
    std::vector<double> row_buffer;
  };

  [[nodiscard]] std::unique_ptr<Scratch> acquire_scratch();
  void release_scratch(std::unique_ptr<Scratch> scratch);

  /// Predict one encoded record (already validated).
  [[nodiscard]] int predict_encoded(const hv::BitVector& encoded) const;

  /// Predict packed encoded records through the zoo model or the Hamming
  /// predictor (not the Sequential NN): one call for all rows.
  [[nodiscard]] std::vector<int> predict_packed(hv::PackedHVs rows) const;

  /// Drain-task body: repeatedly swallow up to max_batch queued requests
  /// and answer them with one packed predict, until the queue is empty.
  void drain();

  ModelBundle bundle_;
  ServeConfig config_;
  PredictorKind kind_ = PredictorKind::kHamming;
  const ml::Classifier* ml_model_ = nullptr;  // kMl: borrowed from bundle_
  std::string model_name_;

  std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::deque<Request> queue_;
  std::vector<std::unique_ptr<Scratch>> scratch_pool_;
  bool draining_ = false;
  bool accepting_ = true;
  std::atomic<std::uint64_t> served_{0};
};

}  // namespace hdc::core
