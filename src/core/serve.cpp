#include "core/serve.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hv/bit_matrix.hpp"
#include "hv/search.hpp"
#include "obs/metrics.hpp"
#include "obs/quantile.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "util/timer.hpp"

namespace hdc::core {

namespace {

parallel::ThreadPool& resolve_pool(parallel::ThreadPool* pool) {
  return pool != nullptr ? *pool : parallel::ThreadPool::global();
}

/// Rows per drained batch: powers of two up to 4096, so every max_batch
/// setting in use lands in a finite bucket (the default seconds ladder ends
/// at ~8.4, below a 64-row batch).
constexpr double kBatchSizeBounds[] = {1,   2,   4,    8,    16,   32,  64,
                                       128, 256, 512, 1024, 2048, 4096};

/// Fractions in [0, 1], in tenths.
constexpr double kFractionBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                      0.6, 0.7, 0.8, 0.9, 1.0};

/// Streaming per-request latency for live /metrics scrapes (p50/p90/p99
/// over the retained windows). Registered once; record() is obs-gated.
obs::WindowedHistogram& serve_latency() {
  static obs::WindowedHistogram& h =
      obs::windowed_histogram("serve.latency_seconds");
  return h;
}

}  // namespace

ServeEngine::ServeEngine(ModelBundle bundle, ServeConfig config)
    : bundle_(std::move(bundle)), config_(std::move(config)) {
  if (!bundle_.extractor || !bundle_.extractor->fitted()) {
    throw std::invalid_argument("ServeEngine: bundle has no fitted extractor");
  }
  if (config_.max_batch == 0) {
    throw std::invalid_argument("ServeEngine: max_batch must be >= 1");
  }
  const std::string& want = config_.model;
  if (want.empty() || want == "hamming") {
    if (bundle_.hamming) {
      kind_ = PredictorKind::kHamming;
      model_name_ = "hamming";
    } else if (want == "hamming") {
      throw std::invalid_argument("ServeEngine: bundle has no hamming section");
    }
  }
  if (model_name_.empty() && (want.empty() || want == "nn")) {
    if (bundle_.nn) {
      kind_ = PredictorKind::kNn;
      model_name_ = "nn";
    } else if (want == "nn") {
      throw std::invalid_argument("ServeEngine: bundle has no nn section");
    }
  }
  if (model_name_.empty()) {
    if (want.empty()) {
      if (bundle_.models.empty()) {
        throw std::invalid_argument("ServeEngine: bundle has no predictor");
      }
      ml_model_ = bundle_.models.front().get();
    } else {
      ml_model_ = bundle_.find_model(want);
      if (ml_model_ == nullptr) {
        throw std::invalid_argument("ServeEngine: bundle has no model '" + want +
                                    "'");
      }
    }
    kind_ = PredictorKind::kMl;
    model_name_ = ml_model_->name();
  }
  if (config_.ann && kind_ != PredictorKind::kHamming) {
    throw std::invalid_argument(
        "ServeEngine: ann requires the hamming predictor");
  }
  if (bundle_.hamming) {
    if (config_.ann) {
      // Prefer the index persisted in the bundle (attached by load_bundle);
      // build one here only when the bundle carries none.
      if (!bundle_.hamming->ann_enabled()) bundle_.hamming->enable_ann();
      bundle_.hamming->set_ann_nprobe(config_.nprobe);
    } else {
      // Exact serving stays byte-identical to the kernels even when the
      // bundle happens to carry an index.
      bundle_.hamming->disable_ann();
    }
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

std::unique_ptr<ServeEngine::Scratch> ServeEngine::acquire_scratch() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<Scratch> scratch = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return scratch;
    }
  }
  return std::make_unique<Scratch>();
}

void ServeEngine::release_scratch(std::unique_ptr<Scratch> scratch) {
  const std::lock_guard<std::mutex> lock(mutex_);
  scratch_pool_.push_back(std::move(scratch));
}

std::vector<int> ServeEngine::predict_packed(hv::PackedHVs rows) const {
  if (kind_ == PredictorKind::kMl) {
    return ml_model_->predict_all_bits(hv::BitMatrix::from_rows(std::move(rows)));
  }
  // Hamming: one search call for every row, on the engine's pool, so the
  // ANN path reranks the rows as query blocks.
  std::vector<hv::ann::SearchStats> stats;
  const std::vector<double> scores = bundle_.hamming->predict_scores(
      rows, config_.pool, bundle_.hamming->ann_enabled() ? &stats : nullptr);
  if (obs::enabled() && !stats.empty()) {
    std::uint64_t candidates = 0;
    std::uint64_t probes = 0;
    for (const hv::ann::SearchStats& one : stats) {
      candidates += one.candidates;
      probes += one.probes;
      if (one.candidates > 0) {
        obs::histogram("serve.ann.rerank_fraction", kFractionBounds)
            .record(static_cast<double>(one.reranked) /
                    static_cast<double>(one.candidates));
      }
    }
    obs::counter("serve.ann.candidates").add(candidates);
    obs::counter("serve.ann.probes").add(probes);
  }
  std::vector<int> predictions;
  predictions.reserve(scores.size());
  for (const double score : scores) predictions.push_back(score >= 0.5 ? 1 : 0);
  return predictions;
}

int ServeEngine::predict_encoded(const hv::BitVector& encoded) const {
  if (kind_ == PredictorKind::kNn) {
    // Per-row evaluation in both serve paths, so batching cannot change
    // the answer.
    std::vector<double> dense(encoded.size());
    for (std::size_t i = 0; i < dense.size(); ++i) {
      dense[i] = encoded.get(i) ? 1.0 : 0.0;
    }
    return bundle_.nn->predict_proba(dense) >= 0.5 ? 1 : 0;
  }
  // A single request through the same row-independent batch path the
  // coalesced drain uses — bit-identical by construction.
  return predict_packed(hv::PackedHVs::pack({&encoded, 1})).front();
}

int ServeEngine::classify(std::span<const double> row) {
  obs::Span span("serve.classify");
  const util::Timer timer;  // one clock read; negligible next to encode
  std::unique_ptr<Scratch> scratch = acquire_scratch();
  int prediction = 0;
  try {
    const hv::BitVector encoded = bundle_.extractor->encode_row(
        row, scratch->encoder, scratch->row_buffer);
    prediction = predict_encoded(encoded);
  } catch (...) {
    release_scratch(std::move(scratch));
    throw;
  }
  release_scratch(std::move(scratch));
  served_.fetch_add(1, std::memory_order_relaxed);
  obs::counter("serve.requests").add(1);
  serve_latency().record(timer.seconds());
  return prediction;
}

std::future<int> ServeEngine::submit(std::vector<double> row) {
  Request request;
  request.row = std::move(row);
  std::future<int> result = request.result.get_future();
  bool start_drain = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error("ServeEngine: submit after shutdown");
    }
    queue_.push_back(std::move(request));
    obs::gauge("serve.queue_depth").add(1);
    if (!draining_) {
      draining_ = true;
      start_drain = true;
    }
  }
  if (start_drain) {
    resolve_pool(config_.pool).submit([this] { drain(); });
  }
  return result;
}

void ServeEngine::drain() {
  obs::Span span("serve.drain");
  // ThreadPool tasks must not throw; every failure lands in a promise.
  for (;;) {
    std::vector<Request> batch;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const std::size_t take = std::min(queue_.size(), config_.max_batch);
      if (take == 0) {
        draining_ = false;
        idle_cv_.notify_all();
        return;
      }
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      obs::gauge("serve.queue_depth").add(-static_cast<std::int64_t>(take));
    }
    const util::Timer batch_timer;

    std::unique_ptr<Scratch> scratch = acquire_scratch();
    // Encode sequentially; a bad record fails its own promise only.
    std::vector<hv::BitVector> encoded;
    std::vector<std::size_t> valid;  // batch index of each encoded row
    encoded.reserve(batch.size());
    valid.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      try {
        encoded.push_back(bundle_.extractor->encode_row(
            batch[i].row, scratch->encoder, scratch->row_buffer));
        valid.push_back(i);
      } catch (...) {
        batch[i].result.set_exception(std::current_exception());
      }
    }
    release_scratch(std::move(scratch));

    if (kind_ != PredictorKind::kNn && !encoded.empty()) {
      // The coalescing payoff: one packed predict (zoo) or one blocked
      // search (Hamming) for the whole sweep.
      std::vector<int> predictions;
      try {
        predictions = predict_packed(hv::PackedHVs::pack(encoded));
      } catch (...) {
        for (const std::size_t i : valid) {
          batch[i].result.set_exception(std::current_exception());
        }
      }
      if (predictions.size() == valid.size()) {
        for (std::size_t i = 0; i < valid.size(); ++i) {
          batch[valid[i]].result.set_value(predictions[i]);
        }
        served_.fetch_add(valid.size(), std::memory_order_relaxed);
        obs::counter("serve.requests").add(valid.size());
      }
    } else {
      for (std::size_t i = 0; i < valid.size(); ++i) {
        try {
          batch[valid[i]].result.set_value(predict_encoded(encoded[i]));
          served_.fetch_add(1, std::memory_order_relaxed);
          obs::counter("serve.requests").add(1);
        } catch (...) {
          batch[valid[i]].result.set_exception(std::current_exception());
        }
      }
    }
    obs::counter("serve.batches").add(1);
    obs::histogram("serve.batch_size", kBatchSizeBounds)
        .record(static_cast<double>(batch.size()));
    if (obs::enabled() && !batch.empty()) {
      // Per-request share of the batch's wall time: the coalesced analogue
      // of classify()'s latency sample.
      const double per_request =
          batch_timer.seconds() / static_cast<double>(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        serve_latency().record(per_request);
      }
    }
  }
}

void ServeEngine::shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  accepting_ = false;
  idle_cv_.wait(lock, [this] { return queue_.empty() && !draining_; });
}

std::uint64_t ServeEngine::requests_served() const noexcept {
  return served_.load(std::memory_order_relaxed);
}

}  // namespace hdc::core
