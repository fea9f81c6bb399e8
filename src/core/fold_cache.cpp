#include "core/fold_cache.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace hdc::core {

namespace {

struct CacheMetrics {
  obs::Counter& hits = obs::counter("grid.cache_hits");
  obs::Counter& misses = obs::counter("grid.cache_misses");
  obs::Counter& evictions = obs::counter("grid.cache_evictions");
  obs::Gauge& entries = obs::gauge("grid.cache_entries");

  static CacheMetrics& get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

}  // namespace

void FoldEncodingCache::put(const FoldKey& key,
                            std::shared_ptr<const FoldData> fold,
                            std::size_t expected_users) {
  if (expected_users == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = entries_[key];
  if (entry.fold == nullptr) {
    entry.fold = std::move(fold);
    ++stats_.insertions;
    stats_.peak_entries = std::max(stats_.peak_entries, entries_.size());
    if (obs::enabled()) CacheMetrics::get().entries.add(1);
  }
  entry.users += expected_users;
}

std::shared_ptr<const FoldData> FoldEncodingCache::acquire(const FoldKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    if (obs::enabled()) CacheMetrics::get().misses.increment();
    return nullptr;
  }
  ++stats_.hits;
  if (obs::enabled()) CacheMetrics::get().hits.increment();
  return it->second.fold;
}

void FoldEncodingCache::release(const FoldKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  if (--it->second.users == 0) {
    entries_.erase(it);
    ++stats_.evictions;
    if (obs::enabled()) {
      CacheMetrics& metrics = CacheMetrics::get();
      metrics.evictions.increment();
      metrics.entries.add(-1);
    }
  }
}

std::size_t FoldEncodingCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

FoldEncodingCache::Stats FoldEncodingCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace hdc::core
