// Memory bound of streamed bundle I/O, in its own binary because it
// replaces the global operator new. Loading or saving a bundle must not
// hold a section body as one block: the rows land straight in their
// PackedHVs (page-allocator storage, which this count leaves out), and
// every other buffer stays small. A loader that reads a body into a string
// before parsing it allocates the whole section at once and fails here.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/hamming_classifier.hpp"
#include "hv/bitvector.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_largest{0};

void note(std::size_t size) noexcept {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
  }
}

}  // namespace

// Plain (unaligned) operator new: strings, streams and vectors come here.
void* operator new(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace {

using hdc::core::ModelBundle;

/// Largest plain allocation made while `fn` runs.
template <typename Fn>
std::size_t largest_allocation(const Fn& fn) {
  g_largest.store(0);
  g_counting.store(true);
  fn();
  g_counting.store(false);
  return g_largest.load();
}

/// Discards what it is given, as a file on a fast disk would take it.
class NullBuf final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override { return n; }
};

/// 3,400 rows of 10,000 bits: a hamming section of ~4.3 MB, with its ANN.
const std::string& artifact() {
  static const std::string saved = [] {
    hdc::util::Rng rng(5);
    std::vector<hdc::hv::BitVector> rows;
    std::vector<int> labels;
    for (int i = 0; i < 3400; ++i) {
      rows.push_back(hdc::hv::BitVector::random(10000, rng));
      labels.push_back(i % 3 == 0 ? 1 : 0);
    }
    ModelBundle bundle;
    bundle.hamming.emplace();
    bundle.hamming->fit(std::move(rows), std::move(labels));
    bundle.hamming->enable_ann();
    std::ostringstream out;
    hdc::core::save_bundle(out, bundle);
    return out.str();
  }();
  return saved;
}

std::uint64_t hamming_section_bytes() {
  const std::string& saved = artifact();
  std::istringstream header(saved.substr(saved.find("section ~hamming ")));
  std::string keyword;
  std::string name;
  std::uint64_t bytes = 0;
  header >> keyword >> name >> bytes;
  return bytes;
}

TEST(BundleMemory, LoadHoldsNoSectionBody) {
  const std::uint64_t section = hamming_section_bytes();
  ASSERT_GE(section, std::uint64_t{4} << 20);
  std::istringstream in(artifact());
  ModelBundle loaded;
  const std::size_t largest =
      largest_allocation([&] { loaded = hdc::core::load_bundle(in); });
  ASSERT_TRUE(loaded.hamming && loaded.hamming->ann_enabled());
  EXPECT_LT(largest, section / 2) << "a load allocated " << largest
                                  << " bytes at once for a " << section
                                  << "-byte section";
}

TEST(BundleMemory, SaveHoldsNoSectionBody) {
  const std::uint64_t section = hamming_section_bytes();
  std::istringstream in(artifact());
  const ModelBundle loaded = hdc::core::load_bundle(in);
  NullBuf null;
  std::ostream out(&null);
  const std::size_t largest =
      largest_allocation([&] { hdc::core::save_bundle(out, loaded); });
  EXPECT_LT(largest, section / 2) << "a save allocated " << largest
                                  << " bytes at once for a " << section
                                  << "-byte section";
}

TEST(BundleMemory, GigabyteHeaderAllocatesNothingLarge) {
  // The largest byte count the loader accepts, over a ~4 MB file.
  std::string lying = artifact();
  const std::size_t count_at = lying.find("section ~hamming ") + 17;
  lying.replace(count_at, lying.find(' ', count_at) - count_at,
                std::to_string(std::uint64_t{1} << 30));
  std::istringstream in(lying);
  const std::size_t largest = largest_allocation([&] {
    EXPECT_THROW((void)hdc::core::load_bundle(in), std::runtime_error);
  });
  EXPECT_LT(largest, std::size_t{1} << 20);
}

}  // namespace
