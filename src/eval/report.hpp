// Helpers for rendering metric values the way the paper's tables print them.
#pragma once

#include <string>
#include <vector>

#include "eval/metrics.hpp"

namespace hdc::eval {

/// Cells in the paper's Table IV/V column order: precision, recall,
/// specificity, F1 as "0.829" style three-decimal ratios, then accuracy as a
/// "79.66%" style percentage with two decimals.
[[nodiscard]] std::vector<std::string> metric_cells(const BinaryMetrics& m);

/// Interleave feature/HD metric cells the way Tables IV and V do:
/// {prec_f, prec_hd, rec_f, rec_hd, spec_f, spec_hd, f1_f, f1_hd, acc_f, acc_hd}.
[[nodiscard]] std::vector<std::string> paired_metric_cells(const BinaryMetrics& features,
                                                           const BinaryMetrics& hd);

}  // namespace hdc::eval
