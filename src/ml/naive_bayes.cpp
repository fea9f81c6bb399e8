#include "ml/naive_bayes.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/sharded.hpp"
#include "simd/dispatch.hpp"

namespace hdc::ml {

NaiveBayesClassifier::NaiveBayesClassifier(NaiveBayesConfig config) : config_(config) {
  if (config_.alpha < 0.0) throw std::invalid_argument("NaiveBayes: alpha < 0");
}

void NaiveBayesClassifier::fit(const Matrix& X, const Labels& y) {
  validate_training_data(X, y);
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();
  n_features_ = d;

  bernoulli_.assign(d, true);
  if (!config_.force_bernoulli) {
    for (const auto& row : X) {
      for (std::size_t j = 0; j < d; ++j) {
        if (row[j] != 0.0 && row[j] != 1.0) bernoulli_[j] = false;
      }
    }
  }

  std::size_t count[2] = {0, 0};
  for (const int label : y) ++count[static_cast<std::size_t>(label)];
  if (count[0] == 0 || count[1] == 0) {
    throw std::invalid_argument("NaiveBayes: need both classes in training data");
  }
  for (int c : {0, 1}) {
    log_prior_[c] = std::log(static_cast<double>(count[c]) / static_cast<double>(n));
    mean_[c].assign(d, 0.0);
    var_[c].assign(d, 0.0);
    log_p_one_[c].assign(d, 0.0);
    log_p_zero_[c].assign(d, 0.0);
  }

  // Accumulate sums per class.
  std::vector<double> ones[2] = {std::vector<double>(d, 0.0),
                                 std::vector<double>(d, 0.0)};
  for (std::size_t i = 0; i < n; ++i) {
    const int c = y[i];
    for (std::size_t j = 0; j < d; ++j) {
      mean_[c][j] += X[i][j];
      var_[c][j] += X[i][j] * X[i][j];
      if (X[i][j] >= 0.5) ones[c][j] += 1.0;
    }
  }
  double max_var = 0.0;
  for (int c : {0, 1}) {
    const double nc = static_cast<double>(count[c]);
    for (std::size_t j = 0; j < d; ++j) {
      mean_[c][j] /= nc;
      var_[c][j] = var_[c][j] / nc - mean_[c][j] * mean_[c][j];
      max_var = std::max(max_var, var_[c][j]);
      const double p =
          (ones[c][j] + config_.alpha) / (nc + 2.0 * config_.alpha);
      log_p_one_[c][j] = std::log(p);
      log_p_zero_[c][j] = std::log(1.0 - p);
    }
  }
  const double floor = std::max(config_.var_smoothing * std::max(max_var, 1.0), 1e-12);
  for (int c : {0, 1}) {
    for (std::size_t j = 0; j < d; ++j) var_[c][j] = std::max(var_[c][j], floor);
  }
}

void NaiveBayesClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  validate_training_bits(X, y);
  fit_shards(SingleShardSource(X, y));
}

void NaiveBayesClassifier::fit_shards(const ShardSource& src) {
  const std::size_t n = src.rows();
  const std::size_t d = src.cols();
  const std::span<const int> y = src.labels();
  if (n == 0 || d == 0) throw std::invalid_argument("fit: empty training set");
  for (const int label : y) {
    if (label != 0 && label != 1) {
      throw std::invalid_argument("fit: labels must be 0/1");
    }
  }

  n_features_ = d;
  bernoulli_.assign(d, true);  // packed input is 0/1 by construction

  std::size_t count[2] = {0, 0};
  for (const int label : y) ++count[static_cast<std::size_t>(label)];
  if (count[0] == 0 || count[1] == 0) {
    throw std::invalid_argument("NaiveBayes: need both classes in training data");
  }

  // Per-class ones-counts: masked popcounts per shard, merged by integer
  // addition. ones[c][j] equals the dense path's sum (and sum-of-squares)
  // accumulator for class c, feature j exactly.
  std::vector<std::size_t> ones[2] = {std::vector<std::size_t>(d, 0),
                                      std::vector<std::size_t>(d, 0)};
  const auto& kernels = simd::active();
  for (std::size_t s = 0; s < src.num_shards(); ++s) {
    const hv::BitMatrix& shard = src.shard(s);
    const std::size_t begin = src.shard_begin(s);
    hv::RowMask positive = hv::RowMask::none(shard.rows());
    for (std::size_t i = 0; i < shard.rows(); ++i) {
      if (y[begin + i] == 1) positive.set(i, true);
    }
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t total = shard.column_popcount(j);
      const std::size_t one = kernels.and_popcount(
          shard.column(j), positive.words(), shard.words_per_column());
      ones[1][j] += one;
      ones[0][j] += total - one;
    }
    note_hist_merge(2 * d);
  }

  for (int c : {0, 1}) {
    log_prior_[c] = std::log(static_cast<double>(count[c]) / static_cast<double>(n));
    mean_[c].assign(d, 0.0);
    var_[c].assign(d, 0.0);
    log_p_one_[c].assign(d, 0.0);
    log_p_zero_[c].assign(d, 0.0);
  }
  // Same expressions as fit(): on 0/1 data the sum and sum-of-squares are
  // both the (integer-exact) ones-count, so mean/var/p match bit for bit.
  double max_var = 0.0;
  for (int c : {0, 1}) {
    const double nc = static_cast<double>(count[c]);
    for (std::size_t j = 0; j < d; ++j) {
      const double o = static_cast<double>(ones[c][j]);
      mean_[c][j] = o / nc;
      var_[c][j] = o / nc - mean_[c][j] * mean_[c][j];
      max_var = std::max(max_var, var_[c][j]);
      const double p = (o + config_.alpha) / (nc + 2.0 * config_.alpha);
      log_p_one_[c][j] = std::log(p);
      log_p_zero_[c][j] = std::log(1.0 - p);
    }
  }
  const double floor = std::max(config_.var_smoothing * std::max(max_var, 1.0), 1e-12);
  for (int c : {0, 1}) {
    for (std::size_t j = 0; j < d; ++j) var_[c][j] = std::max(var_[c][j], floor);
  }
}

double NaiveBayesClassifier::predict_proba(std::span<const double> x) const {
  if (n_features_ == 0) throw std::logic_error("NaiveBayes: not fitted");
  if (x.size() != n_features_) {
    throw std::invalid_argument("NaiveBayes: query arity mismatch");
  }
  double log_post[2] = {log_prior_[0], log_prior_[1]};
  for (int c : {0, 1}) {
    for (std::size_t j = 0; j < n_features_; ++j) {
      if (bernoulli_[j]) {
        log_post[c] += x[j] >= 0.5 ? log_p_one_[c][j] : log_p_zero_[c][j];
      } else {
        const double diff = x[j] - mean_[c][j];
        log_post[c] +=
            -0.5 * (std::log(2.0 * M_PI * var_[c][j]) + diff * diff / var_[c][j]);
      }
    }
  }
  // Softmax over the two log-posteriors.
  const double m = std::max(log_post[0], log_post[1]);
  const double e0 = std::exp(log_post[0] - m);
  const double e1 = std::exp(log_post[1] - m);
  return e1 / (e0 + e1);
}


void NaiveBayesClassifier::save_state(std::ostream& out) const {
  if (n_features_ == 0) throw std::logic_error("NaiveBayes: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.naive_bayes").tag("v1").nl();
  w.f64(config_.alpha).f64(config_.var_smoothing);
  w.u64(config_.force_bernoulli ? 1 : 0).nl();
  w.u64(n_features_).nl();
  std::vector<int> bernoulli(bernoulli_.begin(), bernoulli_.end());
  w.vec_int(bernoulli).nl();
  w.f64(log_prior_[0]).f64(log_prior_[1]).nl();
  for (int c = 0; c < 2; ++c) {
    w.vec_f64(mean_[c]).nl();
    w.vec_f64(var_[c]).nl();
    w.vec_f64(log_p_one_[c]).nl();
    w.vec_f64(log_p_zero_[c]).nl();
  }
}

void NaiveBayesClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.naive_bayes");
  r.expect("ml.naive_bayes", "model tag");
  r.expect("v1", "format version");
  config_.alpha = r.f64("alpha");
  config_.var_smoothing = r.f64("var_smoothing");
  config_.force_bernoulli = r.u64("force_bernoulli") != 0;
  n_features_ = r.count("n_features", 1ULL << 24);
  if (n_features_ == 0) throw r.error("zero features");
  const std::vector<int> bernoulli = r.vec_int("bernoulli flags", n_features_);
  if (bernoulli.size() != n_features_) throw r.error("bernoulli flag count mismatch");
  bernoulli_.assign(bernoulli.begin(), bernoulli.end());
  log_prior_[0] = r.f64("log_prior");
  log_prior_[1] = r.f64("log_prior");
  // predict_proba indexes every table up to n_features - 1, and both fits
  // write exactly that many entries.
  const auto table = [&](const char* what) {
    std::vector<double> values = r.vec_f64(what, n_features_);
    if (values.size() != n_features_) {
      throw r.error(std::string(what) + " table has " +
                    std::to_string(values.size()) + " entries, expected " +
                    std::to_string(n_features_));
    }
    return values;
  };
  for (int c = 0; c < 2; ++c) {
    mean_[c] = table("mean");
    var_[c] = table("var");
    log_p_one_[c] = table("log_p_one");
    log_p_zero_[c] = table("log_p_zero");
  }
}

}  // namespace hdc::ml
