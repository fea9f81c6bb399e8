// Shared fold-encoding cache for the experiment grid.
//
// The paper's grid protocol re-fits the HDC extractor on every CV fold — and
// the serial driver does that once per (model, fold) pair, so ten models
// re-encode the identical fold partition ten times. The grid runner instead
// encodes each (dataset, seed, fold, dim) exactly once into a FoldData
// (bit-packed BitMatrix pair + labels, or dense doubles for raw features)
// and shares it across every model task through this cache.
//
// Entries are ref-counted by *expected consumers*: the producer inserts with
// the number of model tasks that will read the fold, each consumer calls
// release() when its fit/eval finishes, and the entry is evicted the moment
// the count hits zero — so peak memory is bounded by the folds actually in
// flight, not the whole grid. shared_ptr keeps the payload alive for any
// consumer still holding it past eviction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>

#include "core/experiment.hpp"

namespace hdc::core {

/// Identity of one encoded fold. The dataset name stands in for the dataset
/// contents (grid callers name their datasets uniquely); everything else
/// that changes the encoding — CV seed, fold index, dimensionality,
/// extractor seed, input mode — is part of the key.
struct FoldKey {
  std::string dataset;
  std::uint64_t cv_seed = 0;
  std::uint32_t fold = 0;
  std::uint64_t dimensions = 0;
  std::uint64_t extractor_seed = 0;
  InputMode mode = InputMode::kHypervectors;

  friend bool operator<(const FoldKey& a, const FoldKey& b) {
    const auto tie = [](const FoldKey& k) {
      return std::tie(k.dataset, k.cv_seed, k.fold, k.dimensions,
                      k.extractor_seed, k.mode);
    };
    return tie(a) < tie(b);
  }
};

class FoldEncodingCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;       // acquire() served from the cache
    std::uint64_t misses = 0;     // acquire() found nothing
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;  // entries freed after their last release()
    std::size_t peak_entries = 0;
  };

  /// Store an encoding that `expected_users` consumers will acquire+release.
  /// No-op when expected_users is 0. Inserting an existing key adds the
  /// users to the outstanding count (the payloads are interchangeable by
  /// construction).
  void put(const FoldKey& key, std::shared_ptr<const FoldData> fold,
           std::size_t expected_users);

  /// The cached encoding, or nullptr on miss. Each
  /// successful acquire must be paired with one release().
  [[nodiscard]] std::shared_ptr<const FoldData> acquire(const FoldKey& key);

  /// Signal that one expected user is done with the entry; evicts on zero.
  void release(const FoldKey& key);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const FoldData> fold;
    std::size_t users = 0;  // releases still outstanding
  };

  mutable std::mutex mutex_;
  std::map<FoldKey, Entry> entries_;
  Stats stats_;
};

}  // namespace hdc::core
