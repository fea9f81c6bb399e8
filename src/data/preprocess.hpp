// Missing-value policies.
//
// The paper evaluates two cleanings of the Pima dataset:
//  * Pima R — rows with any missing value removed;
//  * Pima M — each missing value replaced with the median of its *class*
//    (Artem's Kaggle preprocessing). Note that per-class imputation leaks
//    label information into the features, which is precisely why every model
//    scores much higher on Pima M than on Pima R; our reproduction keeps
//    this behaviour on purpose and documents it.
#pragma once

#include "data/dataset.hpp"

namespace hdc::data {

/// New dataset with every row containing a missing value dropped (Pima R).
[[nodiscard]] Dataset remove_missing_rows(const Dataset& ds);

/// New dataset with each missing cell replaced by the median of the
/// non-missing values *of the same class* in that column (Pima M).
/// Falls back to the overall column median when a class has no data.
[[nodiscard]] Dataset impute_class_median(const Dataset& ds);

}  // namespace hdc::data
