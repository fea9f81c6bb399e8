#include "eval/report.hpp"

#include "util/str.hpp"

namespace hdc::eval {

namespace {

std::string format_ratio(double value) { return util::format_double(value, 3); }

std::string format_pct(double fraction) { return util::format_percent(fraction, 2); }

}  // namespace

std::vector<std::string> metric_cells(const BinaryMetrics& m) {
  return {format_ratio(m.precision), format_ratio(m.recall),
          format_ratio(m.specificity), format_ratio(m.f1), format_pct(m.accuracy)};
}

std::vector<std::string> paired_metric_cells(const BinaryMetrics& features,
                                             const BinaryMetrics& hd) {
  const std::vector<std::string> f = metric_cells(features);
  const std::vector<std::string> h = metric_cells(hd);
  std::vector<std::string> out;
  out.reserve(f.size() * 2);
  for (std::size_t i = 0; i < f.size(); ++i) {
    out.push_back(f[i]);
    out.push_back(h[i]);
  }
  return out;
}

}  // namespace hdc::eval
