#include "nn/sequential.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "data/split.hpp"
#include "util/rng.hpp"

namespace hdc::nn {

Sequential::Sequential(SequentialConfig config) : config_(std::move(config)) {
  if (config_.hidden.empty()) throw std::invalid_argument("Sequential: no hidden layers");
  if (config_.max_epochs == 0) throw std::invalid_argument("Sequential: zero epochs");
  if (config_.batch_size == 0) throw std::invalid_argument("Sequential: zero batch");
}

void Sequential::build(std::size_t input_dim) {
  layers_.clear();
  input_dim_ = input_dim;
  std::size_t in = input_dim;
  std::uint64_t layer_seed = config_.seed;
  for (const std::size_t width : config_.hidden) {
    layers_.push_back(std::make_unique<Dense>(in, width, util::mix_seed(layer_seed, 1)));
    layers_.push_back(std::make_unique<Relu>());
    in = width;
    layer_seed = util::mix_seed(layer_seed, 2);
  }
  layers_.push_back(std::make_unique<Dense>(in, 1, util::mix_seed(layer_seed, 3)));
  layers_.push_back(std::make_unique<Sigmoid>());
}

std::size_t Sequential::parameter_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->parameter_count();
  return total;
}

namespace {
Matrix to_matrix(const ml::Matrix& X, const std::vector<std::size_t>& rows) {
  Matrix out(rows.size(), X.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& src = X[rows[i]];
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  return out;
}
}  // namespace

void Sequential::fit(const ml::Matrix& X, const ml::Labels& y) {
  ml::validate_training_data(X, y);
  const auto split = data::stratified_split(y, config_.internal_val_fraction,
                                            util::mix_seed(config_.seed, 0x5a11d));
  ml::Matrix train_X;
  ml::Labels train_y;
  ml::Matrix val_X;
  ml::Labels val_y;
  for (const std::size_t i : split.train) {
    train_X.push_back(X[i]);
    train_y.push_back(y[i]);
  }
  for (const std::size_t i : split.test) {
    val_X.push_back(X[i]);
    val_y.push_back(y[i]);
  }
  fit_with_validation(train_X, train_y, val_X, val_y);
}

TrainHistory Sequential::fit_with_validation(const ml::Matrix& train_X,
                                             const ml::Labels& train_y,
                                             const ml::Matrix& val_X,
                                             const ml::Labels& val_y) {
  ml::validate_training_data(train_X, train_y);
  if (val_X.size() != val_y.size()) {
    throw std::invalid_argument("Sequential: val X/y size mismatch");
  }
  build(train_X.front().size());
  history_ = TrainHistory{};

  const std::size_t n = train_X.size();
  Matrix val_matrix;
  if (!val_X.empty()) {
    std::vector<std::size_t> all(val_X.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    val_matrix = to_matrix(val_X, all);
  }

  Adam opt(config_.learning_rate);
  util::Rng rng(util::mix_seed(config_.seed, 0xba7c4));
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});

  double best_monitored = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;

  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n; start += config_.batch_size) {
      const std::size_t end = std::min(n, start + config_.batch_size);
      const std::vector<std::size_t> batch_rows(order.begin() + static_cast<std::ptrdiff_t>(start),
                                                order.begin() + static_cast<std::ptrdiff_t>(end));
      Matrix input = to_matrix(train_X, batch_rows);
      std::vector<int> targets(batch_rows.size());
      for (std::size_t i = 0; i < batch_rows.size(); ++i) targets[i] = train_y[batch_rows[i]];

      for (auto& layer : layers_) input = layer->forward(input);
      LossResult loss = binary_cross_entropy(input, targets);
      epoch_loss += loss.loss;
      ++batches;

      opt.begin_step();
      Matrix grad = std::move(loss.grad);
      for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
        grad = (*it)->backward(grad, opt);
      }
    }
    history_.train_loss.push_back(epoch_loss / static_cast<double>(batches));

    // Record the validation loss when a validation set exists; early
    // stopping watches the configured monitor (training loss by default,
    // matching the paper's "the loss function didn't improve").
    double val_loss = history_.train_loss.back();
    if (!val_y.empty()) {
      const Matrix val_pred = forward_batch(val_matrix);
      val_loss = binary_cross_entropy_value(val_pred, val_y);
    }
    history_.val_loss.push_back(val_loss);
    const double monitored =
        (config_.monitor == EarlyStopMonitor::kValLoss && !val_y.empty())
            ? val_loss
            : history_.train_loss.back();

    if (monitored + config_.min_delta < best_monitored) {
      best_monitored = monitored;
      history_.best_epoch = epoch;
      since_best = 0;
    } else if (++since_best >= config_.patience) {
      history_.early_stopped = true;
      break;
    }
  }
  return history_;
}

Matrix Sequential::forward_batch(const Matrix& input) const {
  Matrix out = input;
  for (const auto& layer : layers_) out = layer->infer(out);
  return out;
}

double Sequential::predict_proba(std::span<const double> x) const {
  if (layers_.empty()) throw std::logic_error("Sequential: not fitted");
  if (x.size() != input_dim_) {
    throw std::invalid_argument("Sequential: query arity mismatch");
  }
  Matrix input(1, x.size());
  std::copy(x.begin(), x.end(), input.row(0).begin());
  return forward_batch(input).at(0, 0);
}

std::vector<double> Sequential::predict_proba_batch(const ml::Matrix& X) const {
  if (layers_.empty()) throw std::logic_error("Sequential: not fitted");
  if (X.empty()) return {};
  std::vector<std::size_t> all(X.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const Matrix out = forward_batch(to_matrix(X, all));
  std::vector<double> probs(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) probs[i] = out.at(i, 0);
  return probs;
}

void Sequential::save_state(std::ostream& out) const {
  if (layers_.empty()) throw std::logic_error("Sequential: save of unfitted model");
  util::serde::Writer w(out);
  w.tag("nn.sequential").tag("v1").nl();
  w.u64(config_.hidden.size());
  for (const std::size_t h : config_.hidden) w.u64(h);
  w.nl();
  w.u64(config_.max_epochs).u64(config_.patience);
  w.u64(config_.monitor == EarlyStopMonitor::kTrainLoss ? 0 : 1);
  w.f64(config_.min_delta).u64(config_.batch_size).f64(config_.learning_rate);
  w.f64(config_.internal_val_fraction).u64(config_.seed).nl();
  w.u64(input_dim_).nl();
  std::size_t dense_count = 0;
  for (const auto& layer : layers_) {
    if (dynamic_cast<const Dense*>(layer.get()) != nullptr) ++dense_count;
  }
  w.u64(dense_count).nl();
  for (const auto& layer : layers_) {
    const auto* dense = dynamic_cast<const Dense*>(layer.get());
    if (dense == nullptr) continue;
    for (const Matrix* m : {&dense->weights(), &dense->bias()}) {
      w.u64(m->rows()).u64(m->cols()).nl();
      for (std::size_t i = 0; i < m->rows(); ++i) {
        for (const double v : m->row(i)) w.f64(v);
        w.nl();
      }
    }
  }
}

void Sequential::load_state(std::istream& in) {
  util::serde::Reader r(in, "load nn.sequential");
  r.expect("nn.sequential", "model tag");
  r.expect("v1", "format version");
  const std::size_t n_hidden = r.count("hidden layer count", 64);
  config_.hidden.assign(n_hidden, 0);
  for (std::size_t& h : config_.hidden) {
    h = r.count("hidden width", 1ULL << 20);
    if (h == 0) throw r.error("zero-width hidden layer");
  }
  config_.max_epochs = r.u64("max_epochs");
  config_.patience = r.u64("patience");
  const std::uint64_t monitor = r.u64("monitor");
  if (monitor > 1) {
    throw r.error("monitor must be 0 or 1, got " + std::to_string(monitor));
  }
  config_.monitor =
      monitor == 0 ? EarlyStopMonitor::kTrainLoss : EarlyStopMonitor::kValLoss;
  config_.min_delta = r.finite_f64("min_delta");
  config_.batch_size = r.u64("batch_size");
  config_.learning_rate = r.finite_f64("learning_rate");
  config_.internal_val_fraction = r.finite_f64("internal_val_fraction");
  config_.seed = r.u64("seed");
  input_dim_ = r.count("input_dim", 1ULL << 24);
  if (input_dim_ == 0) throw r.error("zero input dimension");
  build(input_dim_);
  std::size_t dense_count = 0;
  for (const auto& layer : layers_) {
    if (dynamic_cast<Dense*>(layer.get()) != nullptr) ++dense_count;
  }
  const std::size_t stored = r.count("dense layer count", 4096);
  if (stored != dense_count) {
    throw r.error("dense layer count mismatch: stored " + std::to_string(stored) +
                  ", architecture has " + std::to_string(dense_count));
  }
  auto read_nn_matrix = [&r](const char* what) {
    const std::size_t rows = r.count(what, 1ULL << 24);
    const std::size_t cols = r.count(what, 1ULL << 24);
    if (rows * cols > (1ULL << 26)) throw r.error("matrix too large");
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (double& v : m.row(i)) v = r.finite_f64(what);
    }
    return m;
  };
  for (auto& layer : layers_) {
    auto* dense = dynamic_cast<Dense*>(layer.get());
    if (dense == nullptr) continue;
    Matrix weights = read_nn_matrix("dense weights");
    Matrix bias = read_nn_matrix("dense bias");
    try {
      dense->set_parameters(std::move(weights), std::move(bias));
    } catch (const std::invalid_argument& e) {
      throw r.error(e.what());
    }
  }
  history_ = TrainHistory{};
}

}  // namespace hdc::nn
