#include "ml/logistic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/dispatch.hpp"

namespace hdc::ml {

namespace {
double sigmoid(double z) noexcept { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegression::LogisticRegression(LogisticConfig config) : config_(config) {
  if (config_.c <= 0.0) throw std::invalid_argument("LogisticRegression: C <= 0");
}

LogisticRegression::BinaryZ LogisticRegression::binary_standardize(
    std::span<const std::size_t> pop, std::size_t n) {
  const std::size_t d = pop.size();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    // For 0/1 columns sum == sum_sq == popcount, and the dense row-order
    // accumulation of +1.0 terms is integer-exact, so these moments are
    // bit-identical to the dense pass.
    for (std::size_t j = 0; j < d; ++j) {
      const double sum = static_cast<double>(pop[j]);
      mean_[j] = sum / static_cast<double>(n);
      const double var = sum / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }
  // A 0/1 feature standardises to one of two constants per column, each
  // equal to the dense (x - mean) * inv_std result exactly.
  BinaryZ table;
  table.z0.resize(d);
  table.z1.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    table.z0[j] = (0.0 - mean_[j]) * inv_std_[j];
    table.z1[j] = (1.0 - mean_[j]) * inv_std_[j];
  }
  return table;
}

template <typename AccumulateGradient>
void LogisticRegression::run_gradient_descent(
    std::size_t n, std::size_t d, const AccumulateGradient& accumulate) {
  w_.assign(d, 0.0);
  b_ = 0.0;
  std::vector<double> vel_w(d, 0.0);
  double vel_b = 0.0;
  const double lambda = 1.0 / (config_.c * static_cast<double>(n));
  std::vector<double> grad(d);

  std::size_t iters_run = 0;
  for (std::size_t iter = 0; iter < config_.max_iter; ++iter) {
    ++iters_run;
    std::fill(grad.begin(), grad.end(), 0.0);
    double grad_b = 0.0;
    accumulate(grad, grad_b);
    double norm_sq = grad_b * grad_b;
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t j = 0; j < d; ++j) {
      grad[j] = grad[j] * inv_n + lambda * w_[j];
      norm_sq += grad[j] * grad[j];
    }
    grad_b *= inv_n;
    if (norm_sq < config_.tol * config_.tol) break;

    for (std::size_t j = 0; j < d; ++j) {
      vel_w[j] = config_.momentum * vel_w[j] - config_.learning_rate * grad[j];
      w_[j] += vel_w[j];
    }
    vel_b = config_.momentum * vel_b - config_.learning_rate * grad_b;
    b_ += vel_b;
  }
  obs::counter("ml.fit.iterations").add(iters_run);
}

void LogisticRegression::fit(const Matrix& X, const Labels& y) {
  obs::Span span("ml.logistic.fit");
  validate_training_data(X, y);
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();

  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    std::vector<double> sum(d, 0.0);
    std::vector<double> sum_sq(d, 0.0);
    for (const auto& row : X) {
      for (std::size_t j = 0; j < d; ++j) {
        sum[j] += row[j];
        sum_sq[j] += row[j] * row[j];
      }
    }
    for (std::size_t j = 0; j < d; ++j) {
      mean_[j] = sum[j] / static_cast<double>(n);
      const double var = sum_sq[j] / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }

  // Standardised copy once; the optimisation loop then touches contiguous
  // memory only.
  std::vector<double> Z(n * d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      Z[i * d + j] = (X[i][j] - mean_[j]) * inv_std_[j];
    }
  }
  run_gradient_descent(n, d, [&](std::vector<double>& grad, double& grad_b) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* zi = Z.data() + i * d;
      double z = b_;
      for (std::size_t j = 0; j < d; ++j) z += w_[j] * zi[j];
      const double err = sigmoid(z) - static_cast<double>(y[i]);
      for (std::size_t j = 0; j < d; ++j) grad[j] += err * zi[j];
      grad_b += err;
    }
  });
}

void LogisticRegression::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  fit_shards(SingleShardSource(X, y));
}

void LogisticRegression::fit_shards(const ShardSource& src) {
  obs::Span span("ml.logistic.fit_shards");
  const std::size_t n = src.rows();
  const std::size_t d = src.cols();
  const std::span<const int> y = src.labels();
  if (n == 0 || d == 0) throw std::invalid_argument("fit: empty training set");
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("fit: labels must be 0/1");
    }
  }

  // Integer popcounts merged across shards equal the whole-column popcount
  // exactly, so these are the same moments fit_bits computes.
  std::vector<std::size_t> pop(d, 0);
  if (config_.standardize) {
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      for (std::size_t j = 0; j < d; ++j) pop[j] += shard.column_popcount(j);
      note_hist_merge(d);
    }
  }
  const BinaryZ table = binary_standardize(pop, n);

  // Each pass reads the resident shard's packed rows directly; the kernels
  // turn every bit into table.z0[j] or table.z1[j] by a select. A block of
  // up to kSelectMaxRows rows computes its logits as independent
  // accumulator chains (each in column order, exactly the serial dot
  // product), then adds its rows' terms into grad[j] in ascending row
  // order. Blocks never span two shards, so the IEEE op sequence, and every
  // iterate, is the same wherever the shard boundaries fall.
  const simd::Kernels& kernels = simd::active();
  double logit[simd::kSelectMaxRows];
  double err[simd::kSelectMaxRows];
  run_gradient_descent(n, d, [&](std::vector<double>& grad, double& grad_b) {
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      const std::size_t begin = src.shard_begin(s);
      for (std::size_t i = 0; i < shard.rows(); i += simd::kSelectMaxRows) {
        const std::size_t block = std::min(simd::kSelectMaxRows, shard.rows() - i);
        const std::uint64_t* rows = shard.row_bits(i);
        kernels.select_dot(rows, block, d, table.z0.data(), table.z1.data(),
                           w_.data(), b_, logit);
        for (std::size_t k = 0; k < block; ++k) {
          err[k] = sigmoid(logit[k]) - static_cast<double>(y[begin + i + k]);
          grad_b += err[k];
        }
        kernels.select_axpy(rows, block, d, table.z0.data(), table.z1.data(),
                            err, grad.data());
      }
    }
  });
}

double LogisticRegression::predict_proba(std::span<const double> x) const {
  if (w_.empty()) throw std::logic_error("LogisticRegression: not fitted");
  if (x.size() != w_.size()) {
    throw std::invalid_argument("LogisticRegression: query arity mismatch");
  }
  double z = b_;
  for (std::size_t j = 0; j < x.size(); ++j) {
    z += w_[j] * (x[j] - mean_[j]) * inv_std_[j];
  }
  return sigmoid(z);
}

void LogisticRegression::save_state(std::ostream& out) const {
  if (w_.empty()) throw std::logic_error("LogisticRegression: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.logistic").tag("v1").nl();
  w.f64(config_.c).u64(config_.max_iter).f64(config_.learning_rate);
  w.f64(config_.momentum).f64(config_.tol).u64(config_.standardize ? 1 : 0).nl();
  w.vec_f64(w_).nl();
  w.f64(b_).nl();
  w.vec_f64(mean_).nl();
  w.vec_f64(inv_std_).nl();
}

void LogisticRegression::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.logistic");
  r.expect("ml.logistic", "model tag");
  r.expect("v1", "format version");
  config_.c = r.f64("c");
  config_.max_iter = r.u64("max_iter");
  config_.learning_rate = r.f64("learning_rate");
  config_.momentum = r.f64("momentum");
  config_.tol = r.f64("tol");
  config_.standardize = r.u64("standardize") != 0;
  // The fields are raw bit patterns: a NaN or infinity would load, then
  // make predict_proba leave [0, 1] and predict answer class 0 silently.
  w_ = r.vec_finite_f64("weights", 1ULL << 24);
  b_ = r.finite_f64("bias");
  mean_ = r.vec_finite_f64("mean", 1ULL << 24);
  inv_std_ = r.vec_finite_f64("inv_std", 1ULL << 24);
  if (w_.empty()) throw r.error("empty weight vector");
  if (mean_.size() != w_.size() || inv_std_.size() != w_.size()) {
    throw r.error("mean/inv_std arity mismatch");
  }
}

}  // namespace hdc::ml
