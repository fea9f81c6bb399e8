#include "core/manifest.hpp"

#include <bit>
#include <sstream>

#include "core/experiment.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "simd/dispatch.hpp"
#include "util/serde.hpp"

namespace hdc::core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void fnv_u64(std::uint64_t& h, std::uint64_t value) noexcept {
  fnv_bytes(h, &value, sizeof(value));
}

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

}  // namespace

std::uint64_t dataset_fingerprint(const data::Dataset& ds) {
  std::uint64_t h = kFnvOffset;
  fnv_u64(h, ds.n_rows());
  fnv_u64(h, ds.n_cols());
  for (const data::ColumnSpec& col : ds.columns()) {
    fnv_bytes(h, col.name.data(), col.name.size());
    fnv_u64(h, static_cast<std::uint64_t>(col.kind));
  }
  for (const int label : ds.labels()) {
    fnv_u64(h, static_cast<std::uint64_t>(label));
  }
  for (std::size_t i = 0; i < ds.n_rows(); ++i) {
    for (std::size_t j = 0; j < ds.n_cols(); ++j) {
      // Bit pattern, not value: distinguishes -0.0/0.0 and hashes NaNs
      // stably (the loaders produce one canonical quiet NaN).
      fnv_u64(h, std::bit_cast<std::uint64_t>(ds.value(i, j)));
    }
  }
  return h;
}

std::uint64_t mix_hash(std::uint64_t acc, std::uint64_t value) noexcept {
  std::uint64_t h = acc == 0 ? kFnvOffset : acc;
  fnv_u64(h, value);
  return h;
}

RunManifest make_run_manifest(const data::Dataset& ds,
                              std::string_view dataset_name,
                              const ExperimentConfig& config) {
  RunManifest m;
  m.dataset = std::string(dataset_name);
  m.dataset_hash = dataset_fingerprint(ds);
  m.rows = ds.n_rows();
  m.cols = ds.n_cols();
  m.dimensions = config.extractor.dimensions;
  m.extractor_seed = config.extractor.seed;
  m.split_seed = config.seed;
  m.simd_tier = simd::tier_name(simd::active_tier());
  m.threads = config.threads;
  m.hardware_threads = parallel::hardware_threads();
  m.obs_enabled = obs::enabled();
  m.trace_enabled = obs::trace_enabled();
  m.num_shards = ds.n_rows() == 0 ? 0 : 1;  // resident: one block, shard_rows 0
  m.obs_json = obs::to_json(obs::snapshot());
  return m;
}

std::string to_json(const RunManifest& manifest) {
  std::string out = "{\"dataset\":";
  append_json_string(out, manifest.dataset);
  out += ",\"dataset_hash\":\"";
  out += util::serde::hex16(manifest.dataset_hash);
  out += "\",\"rows\":" + std::to_string(manifest.rows);
  out += ",\"cols\":" + std::to_string(manifest.cols);
  out += ",\"dimensions\":" + std::to_string(manifest.dimensions);
  out += ",\"extractor_seed\":" + std::to_string(manifest.extractor_seed);
  out += ",\"split_seed\":" + std::to_string(manifest.split_seed);
  out += ",\"simd_tier\":";
  append_json_string(out, manifest.simd_tier);
  out += ",\"threads\":" + std::to_string(manifest.threads);
  out += ",\"hardware_threads\":" + std::to_string(manifest.hardware_threads);
  out += ",\"obs_enabled\":";
  out += manifest.obs_enabled ? "true" : "false";
  out += ",\"trace_enabled\":";
  out += manifest.trace_enabled ? "true" : "false";
  out += ",\"shard_rows\":" + std::to_string(manifest.shard_rows);
  out += ",\"num_shards\":" + std::to_string(manifest.num_shards);
  out += ",\"obs\":";
  out += manifest.obs_json.empty() ? "{}" : manifest.obs_json;
  out += "}";
  return out;
}

void save_manifest(std::ostream& out, const RunManifest& manifest) {
  util::serde::Writer w(out);
  w.tag("manifest").tag("v1").nl();
  w.tag("dataset").str(manifest.dataset).u64(manifest.dataset_hash)
      .u64(manifest.rows).u64(manifest.cols).nl();
  w.tag("run").u64(manifest.dimensions).u64(manifest.extractor_seed)
      .u64(manifest.split_seed).str(manifest.simd_tier)
      .u64(manifest.threads).u64(manifest.hardware_threads).nl();
  // The first two flag slots are retired: written as 1 and ignored on load,
  // so the row keeps its four-slot shape and older bundles still load.
  w.tag("flags").u64(1).u64(1).u64(manifest.obs_enabled ? 1 : 0)
      .u64(manifest.trace_enabled ? 1 : 0).nl();
  w.tag("obs").str(manifest.obs_json).nl();
  w.tag("shards").u64(manifest.shard_rows).u64(manifest.num_shards).nl();
  w.tag("end").nl();
}

RunManifest load_manifest(std::istream& in) {
  util::serde::Reader r(in, "manifest");
  r.expect("manifest", "header");
  r.expect("v1", "version");
  RunManifest m;
  r.expect("dataset", "dataset header");
  m.dataset = r.str("dataset name");
  m.dataset_hash = r.u64("dataset hash");
  m.rows = r.u64("rows");
  m.cols = r.u64("cols");
  r.expect("run", "run header");
  m.dimensions = r.u64("dimensions");
  m.extractor_seed = r.u64("extractor seed");
  m.split_seed = r.u64("split seed");
  m.simd_tier = r.str("simd tier");
  m.threads = r.u64("threads");
  m.hardware_threads = r.u64("hardware threads");
  r.expect("flags", "flags header");
  (void)r.u64("retired flag");
  (void)r.u64("retired flag");
  m.obs_enabled = r.u64("obs_enabled flag") != 0;
  m.trace_enabled = r.u64("trace_enabled flag") != 0;
  r.expect("obs", "obs header");
  m.obs_json = r.str("obs json");
  // Shard geometry is a late addition: bundles written before it simply
  // end here, so accept both shapes.
  std::string tail = r.token("shards or trailer");
  if (tail == "shards") {
    m.shard_rows = r.u64("shard rows");
    m.num_shards = r.u64("shard count");
    tail = r.token("trailer");
  }
  if (tail != "end") throw r.error("expected trailer, got '" + tail + "'");
  return m;
}

}  // namespace hdc::core
