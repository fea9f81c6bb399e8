#include "ml/sgd.hpp"

#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hv/bit_matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hdc::ml {

SgdClassifier::SgdClassifier(SgdConfig config) : config_(config) {
  if (config_.alpha <= 0.0) throw std::invalid_argument("SGD: alpha <= 0");
  if (config_.epochs == 0) throw std::invalid_argument("SGD: zero epochs");
}

void SgdClassifier::fit(const Matrix& X, const Labels& y) {
  obs::Span span("ml.sgd.fit");
  validate_training_data(X, y);
  const std::size_t n = X.size();
  const std::size_t d = X.front().size();
  w_.assign(d, 0.0);
  b_ = 0.0;

  util::Rng rng(config_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (const std::size_t i : order) {
      ++t;
      // Inverse-scaling learning rate (sklearn's default 'optimal' schedule
      // behaves like eta0 / (alpha * t) with a burn-in; this is the simpler
      // invscaling form with the same 1/t character).
      const double eta = config_.eta0 / (1.0 + config_.alpha * config_.eta0 *
                                                   static_cast<double>(t));
      const auto& xi = X[i];
      const double target = y[i] == 1 ? 1.0 : -1.0;
      double z = b_;
      for (std::size_t j = 0; j < d; ++j) z += w_[j] * xi[j];

      // dloss/dz for the chosen loss (with margin for hinge).
      double g = 0.0;
      if (config_.loss == SgdLoss::kHinge) {
        if (target * z < 1.0) g = -target;
      } else {
        g = 1.0 / (1.0 + std::exp(-z)) - (target > 0.0 ? 1.0 : 0.0);
      }

      // L2 shrink + (sub)gradient step.
      const double shrink = 1.0 - eta * config_.alpha;
      for (std::size_t j = 0; j < d; ++j) w_[j] *= shrink;
      if (g != 0.0) {
        for (std::size_t j = 0; j < d; ++j) w_[j] -= eta * g * xi[j];
        b_ -= eta * g;
      }
    }
  }
  obs::counter("ml.fit.epochs").add(config_.epochs);
}

void SgdClassifier::fit_bits(const hv::BitMatrix& X, const Labels& y) {
  obs::Span span("ml.sgd.fit_bits");
  validate_training_bits(X, y);
  const std::size_t n = X.rows();
  const std::size_t d = X.cols();
  w_.assign(d, 0.0);
  b_ = 0.0;

  util::Rng rng(config_.seed);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  const std::size_t words = X.words_per_row();
  std::size_t t = 0;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (const std::size_t i : order) {
      ++t;
      const double eta = config_.eta0 / (1.0 + config_.alpha * config_.eta0 *
                                                   static_cast<double>(t));
      const std::uint64_t* xi = X.row_bits(i);
      const double target = y[i] == 1 ? 1.0 : -1.0;
      // Zero features contribute exact identity terms (w * 0.0 adds ±0.0,
      // and no weight is ever -0.0 under round-to-nearest), so visiting
      // only the set bits in ascending order reproduces the dense
      // accumulation bit for bit.
      double z = b_;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = xi[w];
        while (bits != 0) {
          z += w_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
          bits &= bits - 1;
        }
      }

      double g = 0.0;
      if (config_.loss == SgdLoss::kHinge) {
        if (target * z < 1.0) g = -target;
      } else {
        g = 1.0 / (1.0 + std::exp(-z)) - (target > 0.0 ? 1.0 : 0.0);
      }

      // The L2 shrink touches every coordinate, packed or not.
      const double shrink = 1.0 - eta * config_.alpha;
      for (std::size_t j = 0; j < d; ++j) w_[j] *= shrink;
      if (g != 0.0) {
        const double step = eta * g;  // dense computes (eta*g)*x[j]; x[j]==1 here
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = xi[w];
          while (bits != 0) {
            w_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] -= step;
            bits &= bits - 1;
          }
        }
        b_ -= eta * g;
      }
    }
  }
  obs::counter("ml.fit.epochs").add(config_.epochs);
}

double SgdClassifier::decision(std::span<const double> x) const {
  if (w_.empty()) throw std::logic_error("SGD: not fitted");
  if (x.size() != w_.size()) throw std::invalid_argument("SGD: query arity mismatch");
  double z = b_;
  for (std::size_t j = 0; j < x.size(); ++j) z += w_[j] * x[j];
  return z;
}

double SgdClassifier::predict_proba(std::span<const double> x) const {
  // Squash the margin; for the hinge loss this is a calibration-free
  // monotone map which is all predict() needs.
  return 1.0 / (1.0 + std::exp(-decision(x)));
}


void SgdClassifier::save_state(std::ostream& out) const {
  if (w_.empty()) throw std::logic_error("SGD: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("ml.sgd").tag("v1").nl();
  w.u64(config_.loss == SgdLoss::kHinge ? 0 : 1).f64(config_.alpha);
  w.u64(config_.epochs).f64(config_.eta0).u64(config_.seed).nl();
  w.vec_f64(w_).nl();
  w.f64(b_).nl();
}

void SgdClassifier::load_state(std::istream& in) {
  util::serde::Reader r(in, "load ml.sgd");
  r.expect("ml.sgd", "model tag");
  r.expect("v1", "format version");
  const std::uint64_t loss = r.u64("loss");
  if (loss > 1) throw r.error("unknown loss id " + std::to_string(loss));
  config_.loss = loss == 0 ? SgdLoss::kHinge : SgdLoss::kLog;
  config_.alpha = r.f64("alpha");
  config_.epochs = r.u64("epochs");
  config_.eta0 = r.f64("eta0");
  config_.seed = r.u64("seed");
  w_ = r.vec_f64("weights", 1ULL << 24);
  b_ = r.f64("bias");
  if (w_.empty()) throw r.error("empty weight vector");
}

}  // namespace hdc::ml
