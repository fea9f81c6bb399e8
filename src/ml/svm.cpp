#include "ml/svm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "ml/sharded.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hdc::ml {

SvcClassifier::SvcClassifier(SvcConfig config) : config_(config) {
  if (config_.c <= 0.0) throw std::invalid_argument("SVC: C <= 0");
}

double SvcClassifier::kernel(std::span<const double> a,
                             std::span<const double> b) const {
  double dot_or_d2 = 0.0;
  if (config_.kernel == SvmKernel::kLinear) {
    for (std::size_t j = 0; j < a.size(); ++j) dot_or_d2 += a[j] * b[j];
    return dot_or_d2;
  }
  for (std::size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] - b[j];
    dot_or_d2 += diff * diff;
  }
  return std::exp(-gamma_ * dot_or_d2);
}

std::vector<double> SvcClassifier::standardized(std::span<const double> x) const {
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    out[j] = (x[j] - mean_[j]) * inv_std_[j];
  }
  return out;
}

void SvcClassifier::fit(const Matrix& X, const Labels& y) {
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
  train_X_.clear();
  train_X_.reserve(n);
  for (const auto& row : X) train_X_.push_back(standardized(row));
  targets_.resize(n);
  for (std::size_t i = 0; i < n; ++i) targets_[i] = y[i] == 1 ? 1.0 : -1.0;
  solve_smo(nullptr);
}

void SvcClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  // One shard under a cap of every row: the subsample is the whole matrix,
  // so this is the packed SMO over X.
  fit_subsample(SingleShardSource(X, y), X.rows());
}

void SvcClassifier::fit_shards(const ShardSource& src) {
  fit_subsample(src, kShardSubsampleRows);
}

void SvcClassifier::fit_subsample(const ShardSource& src, std::size_t cap) {
  obs::Span span("ml.svc.fit_shards");
  const std::size_t n = src.rows();
  const std::size_t d = src.cols();
  const std::span<const int> y = src.labels();
  if (n == 0 || d == 0) throw std::invalid_argument("fit: empty training set");
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("fit: labels must be 0/1");
    }
  }

  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  if (config_.standardize) {
    // Whole-cohort moments from integer popcounts merged across shards —
    // the same values as a single-shard fit over the concatenated matrix.
    std::vector<std::size_t> pop(d, 0);
    for (std::size_t s = 0; s < src.num_shards(); ++s) {
      const hv::BitMatrix& shard = src.shard(s);
      for (std::size_t j = 0; j < d; ++j) pop[j] += shard.column_popcount(j);
      note_hist_merge(d);
    }
    for (std::size_t j = 0; j < d; ++j) {
      const double sum = static_cast<double>(pop[j]);
      mean_[j] = sum / static_cast<double>(n);
      const double var = sum / static_cast<double>(n) - mean_[j] * mean_[j];
      inv_std_[j] = var > 1e-12 ? 1.0 / std::sqrt(var) : 1.0;
    }
  }

  // The kernel matrix is O(rows^2): train the SMO on a deterministic
  // strided subsample (every row when n <= cap).
  const std::vector<std::size_t> indices = strided_subsample(n, cap);
  const hv::BitMatrix sample = gather_rows(src, indices);

  std::vector<double> z0(d);
  std::vector<double> z1(d);
  for (std::size_t j = 0; j < d; ++j) {
    z0[j] = (0.0 - mean_[j]) * inv_std_[j];
    z1[j] = (1.0 - mean_[j]) * inv_std_[j];
  }
  const std::size_t m = sample.rows();
  train_X_.assign(m, std::vector<double>(d));
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t* row = sample.row_bits(i);
    std::vector<double>& out = train_X_[i];
    for (std::size_t j = 0; j < d; ++j) {
      out[j] = (row[j / 64] >> (j % 64)) & 1u ? z1[j] : z0[j];
    }
  }
  targets_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    targets_[i] = y[indices[i]] == 1 ? 1.0 : -1.0;
  }
  solve_smo(&sample);
}

void SvcClassifier::solve_smo(const hv::BitMatrix* bits) {
  const std::size_t n = train_X_.size();
  const std::size_t d = train_X_.front().size();

  // gamma = "scale": 1 / (d * var) over all entries of the (standardised)
  // training matrix, like scikit-learn's heuristic.
  if (config_.gamma > 0.0) {
    gamma_ = config_.gamma;
  } else {
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const auto& row : train_X_) {
      for (const double v : row) {
        sum += v;
        sum_sq += v * v;
      }
    }
    const double count = static_cast<double>(n * d);
    const double mean = sum / count;
    const double var = std::max(1e-12, sum_sq / count - mean * mean);
    gamma_ = 1.0 / (static_cast<double>(d) * var);
  }

  // Precompute the kernel matrix (n is a few hundred in all experiments).
  std::vector<double> K(n * n);
  if (bits != nullptr && config_.kernel == SvmKernel::kRbf) {
    // Squared distance between two standardised 0/1 rows: equal coordinates
    // contribute an exact +0.0 to the dense sum, so accumulating the
    // per-column (z1-z0)^2 table over the XOR of the packed rows in
    // ascending column order is bit-identical ((a-b)^2 == (b-a)^2 in IEEE).
    std::vector<double> dz2(d);
    for (std::size_t j = 0; j < d; ++j) {
      const double dz = (1.0 - mean_[j]) * inv_std_[j] - (0.0 - mean_[j]) * inv_std_[j];
      dz2[j] = dz * dz;
    }
    const std::size_t words = bits->words_per_row();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t* ri = bits->row_bits(i);
      for (std::size_t j = i; j < n; ++j) {
        const std::uint64_t* rj = bits->row_bits(j);
        double d2 = 0.0;
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t diff = ri[w] ^ rj[w];
          while (diff != 0) {
            d2 += dz2[w * 64 + static_cast<std::size_t>(std::countr_zero(diff))];
            diff &= diff - 1;
          }
        }
        const double k = std::exp(-gamma_ * d2);
        K[i * n + j] = k;
        K[j * n + i] = k;
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) {
        const double k = kernel(train_X_[i], train_X_[j]);
        K[i * n + j] = k;
        K[j * n + i] = k;
      }
    }
  }

  alphas_.assign(n, 0.0);
  b_ = 0.0;
  std::vector<double> errors(n);
  const auto decision_cached = [&](std::size_t i) {
    double f = b_;
    for (std::size_t k = 0; k < n; ++k) {
      if (alphas_[k] != 0.0) f += alphas_[k] * targets_[k] * K[k * n + i];
    }
    return f;
  };

  util::Rng rng(config_.seed);
  std::size_t passes = 0;
  std::size_t iter = 0;
  const double c = config_.c;
  while (passes < config_.max_passes && iter < config_.max_iter) {
    ++iter;
    std::size_t changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = decision_cached(i) - targets_[i];
      errors[i] = ei;
      const bool violates = (targets_[i] * ei < -config_.tol && alphas_[i] < c) ||
                            (targets_[i] * ei > config_.tol && alphas_[i] > 0.0);
      if (!violates) continue;

      // Pick j != i at random (simplified SMO heuristic).
      std::size_t j = static_cast<std::size_t>(rng.below(n - 1));
      if (j >= i) ++j;
      const double ej = decision_cached(j) - targets_[j];

      const double ai_old = alphas_[i];
      const double aj_old = alphas_[j];
      double lo = 0.0;
      double hi = 0.0;
      if (targets_[i] != targets_[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;

      const double eta = 2.0 * K[i * n + j] - K[i * n + i] - K[j * n + j];
      if (eta >= 0.0) continue;

      double aj = aj_old - targets_[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-5) continue;
      const double ai = ai_old + targets_[i] * targets_[j] * (aj_old - aj);

      alphas_[i] = ai;
      alphas_[j] = aj;

      const double b1 = b_ - ei - targets_[i] * (ai - ai_old) * K[i * n + i] -
                        targets_[j] * (aj - aj_old) * K[i * n + j];
      const double b2 = b_ - ej - targets_[i] * (ai - ai_old) * K[i * n + j] -
                        targets_[j] * (aj - aj_old) * K[j * n + j];
      if (ai > 0.0 && ai < c) {
        b_ = b1;
      } else if (aj > 0.0 && aj < c) {
        b_ = b2;
      } else {
        b_ = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }
}

double SvcClassifier::decision(std::span<const double> x) const {
  if (train_X_.empty()) throw std::logic_error("SVC: not fitted");
  if (x.size() != train_X_.front().size()) {
    throw std::invalid_argument("SVC: query arity mismatch");
  }
  const std::vector<double> query = standardized(x);
  double f = b_;
  for (std::size_t i = 0; i < train_X_.size(); ++i) {
    if (alphas_[i] != 0.0) f += alphas_[i] * targets_[i] * kernel(train_X_[i], query);
  }
  return f;
}

std::size_t SvcClassifier::support_vector_count() const noexcept {
  std::size_t count = 0;
  for (const double a : alphas_) {
    if (a != 0.0) ++count;
  }
  return count;
}

double SvcClassifier::predict_proba(std::span<const double> x) const {
  return 1.0 / (1.0 + std::exp(-decision(x)));
}


void SvcClassifier::save_state(std::ostream& out) const {
  if (train_X_.empty()) throw std::logic_error("SVC: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.svc").tag("v1").nl();
  w.u64(config_.kernel == SvmKernel::kLinear ? 0 : 1).f64(config_.c);
  w.f64(config_.gamma).f64(config_.tol).u64(config_.max_passes);
  w.u64(config_.max_iter).u64(config_.standardize ? 1 : 0).u64(config_.seed).nl();
  w.f64(gamma_).f64(b_).nl();
  write_matrix(w, train_X_);
  w.vec_f64(targets_).nl();
  w.vec_f64(alphas_).nl();
  w.vec_f64(mean_).nl();
  w.vec_f64(inv_std_).nl();
}

void SvcClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.svc");
  r.expect("ml.svc", "model tag");
  r.expect("v1", "format version");
  const std::uint64_t kernel = r.u64("kernel");
  if (kernel > 1) throw r.error("unknown kernel id " + std::to_string(kernel));
  config_.kernel = kernel == 0 ? SvmKernel::kLinear : SvmKernel::kRbf;
  config_.c = r.f64("c");
  config_.gamma = r.f64("gamma");
  config_.tol = r.f64("tol");
  config_.max_passes = r.u64("max_passes");
  config_.max_iter = r.u64("max_iter");
  config_.standardize = r.u64("standardize") != 0;
  config_.seed = r.u64("seed");
  gamma_ = r.f64("fitted gamma");
  b_ = r.f64("bias");
  train_X_ = read_matrix(r, "support matrix");
  targets_ = r.vec_f64("targets", 1ULL << 24);
  alphas_ = r.vec_f64("alphas", 1ULL << 24);
  mean_ = r.vec_f64("mean", 1ULL << 24);
  inv_std_ = r.vec_f64("inv_std", 1ULL << 24);
  if (train_X_.empty()) throw r.error("empty support matrix");
  if (targets_.size() != train_X_.size() || alphas_.size() != train_X_.size()) {
    throw r.error("targets/alphas row-count mismatch");
  }
  const std::size_t d = train_X_.front().size();
  if (mean_.size() != d || inv_std_.size() != d) {
    throw r.error("mean/inv_std arity mismatch");
  }
}

}  // namespace hdc::ml
