// Shared scaffolding for the benches: the three datasets of the paper
// (Pima R, Pima M, Sylhet) built from the synthetic generators,
// CLI-controlled fidelity knobs, and the one JSON writer every BENCH_*.json
// artifact goes through.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "core/manifest.hpp"
#include "data/preprocess.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"

namespace hdc::bench {

struct BenchSetup {
  data::Dataset pima_r;
  data::Dataset pima_m;
  data::Dataset sylhet;
  core::ExperimentConfig experiment;
  std::size_t kfold = 10;
  std::size_t nn_repeats = 5;
};

/// Flags: --dim N (default 10000), --seed S, --budget B (boosted-model round
/// scale), --kfold K, --repeats R, --fast (reduced fidelity preset).
inline BenchSetup make_setup(int argc, const char* const* argv) {
  const util::Cli cli(argc, argv);
  BenchSetup setup;

  const bool fast = cli.has_flag("--fast");
  std::size_t dim = static_cast<std::size_t>(cli.get_int("--dim", fast ? 2000 : 10000));
  const std::uint64_t seed = cli.get_uint("--seed", 2023);
  setup.experiment.extractor.dimensions = dim;
  setup.experiment.extractor.seed = seed * 77 + 1;
  setup.experiment.seed = seed;
  setup.experiment.model_budget = cli.get_double("--budget", fast ? 0.2 : 0.5);
  setup.kfold = static_cast<std::size_t>(cli.get_int("--kfold", fast ? 5 : 10));
  setup.nn_repeats = static_cast<std::size_t>(cli.get_int("--repeats", fast ? 2 : 3));

  data::PimaConfig pima_config;
  pima_config.seed = seed;
  const data::Dataset pima_raw = data::make_pima(pima_config);
  setup.pima_r = data::remove_missing_rows(pima_raw);
  setup.pima_m = data::impute_class_median(pima_raw);
  data::SylhetConfig sylhet_config;
  sylhet_config.seed = seed + 1;
  setup.sylhet = data::make_sylhet(sylhet_config);

  std::printf("# config: dim=%zu seed=%llu budget=%.2f kfold=%zu repeats=%zu\n",
              dim, static_cast<unsigned long long>(seed),
              setup.experiment.model_budget, setup.kfold, setup.nn_repeats);
  std::printf("# datasets: Pima R n=%zu, Pima M n=%zu, Sylhet n=%zu\n",
              setup.pima_r.n_rows(), setup.pima_m.n_rows(), setup.sylhet.n_rows());
  return setup;
}

/// `"manifest"` provenance block for a bench JSON artifact — the same
/// core::RunManifest the library embeds in results and bundles, so every
/// BENCH_*.json records what was measured (dataset hash, seeds, dims, simd
/// tier, thread count, feature flags). bench-smoke fails artifacts without it.
inline std::string manifest_json(const data::Dataset& ds,
                                 std::string_view dataset_name,
                                 const core::ExperimentConfig& config) {
  return core::to_json(core::make_run_manifest(ds, dataset_name, config));
}

/// Streaming writer for the BENCH_*.json artifacts. Objects and arrays nest
/// through object()/array() ... end(); commas, indentation and string
/// escaping live here instead of in per-bench printf formats. Doubles are
/// written in shortest round-trip form, and a non-finite double (a speedup
/// over a zero time) becomes null, so the artifact always parses.
///
///   JsonWriter json;
///   json.object().field("bench", "bench_x").key("tiers").array();
///   for (...) json.object().field("tier", name).end();
///   json.end().end();
///   return json.write(out_path) ? 0 : 1;
class JsonWriter {
 public:
  JsonWriter& object() { return open('{'); }
  JsonWriter& array() { return open('['); }

  /// Close the innermost open object or array.
  JsonWriter& end() {
    const Scope scope = stack_.back();
    stack_.pop_back();
    if (scope.members > 0) newline();
    out_ += scope.open == '{' ? '}' : ']';
    return *this;
  }

  /// Name the next value inside an object.
  JsonWriter& key(std::string_view name) {
    separate();
    append_string(name);
    out_ += ": ";
    keyed_ = true;
    return *this;
  }

  /// A string, bool, integer or floating-point value.
  template <typename T>
  JsonWriter& value(const T& v) {
    separate();
    if constexpr (std::is_same_v<T, bool>) {
      out_ += v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
      append_double(static_cast<double>(v));
    } else if constexpr (std::is_integral_v<T>) {
      out_ += std::to_string(v);
    } else {
      append_string(std::string_view(v));
    }
    return *this;
  }

  template <typename T>
  JsonWriter& field(std::string_view name, const T& v) {
    return key(name).value(v);
  }

  /// A JSON array of plain values.
  template <typename T>
  JsonWriter& field(std::string_view name, const std::vector<T>& values) {
    key(name).array();
    for (const T& v : values) value(v);
    return end();
  }

  /// An already-serialized JSON value (manifest, obs snapshot), verbatim.
  JsonWriter& raw_field(std::string_view name, std::string_view json) {
    key(name);
    separate();
    out_ += json;
    return *this;
  }

  /// Write the document (plus a trailing newline) to `path`; on failure
  /// print a FATAL line to stderr and return false.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    const bool ok =
        out != nullptr &&
        std::fwrite(out_.data(), 1, out_.size(), out) == out_.size() &&
        std::fputc('\n', out) != EOF;
    if (out != nullptr && std::fclose(out) != 0) return fail(path);
    if (!ok) return fail(path);
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  struct Scope {
    char open;
    std::size_t members;
  };

  JsonWriter& open(char bracket) {
    separate();
    out_ += bracket;
    stack_.push_back({bracket, 0});
    return *this;
  }

  /// Comma + newline + indent before each member (skipped for the value
  /// that follows a key()).
  void separate() {
    if (keyed_) {
      keyed_ = false;
      return;
    }
    if (stack_.empty()) return;
    if (stack_.back().members++ > 0) out_ += ',';
    newline();
  }

  void newline() {
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
  }

  void append_double(double v) {
    if (!std::isfinite(v)) {
      out_ += "null";
      return;
    }
    char buffer[32];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, v);
    out_.append(buffer, result.ptr);
  }

  void append_string(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buffer[8];
        std::snprintf(buffer, sizeof buffer, "\\u%04x",
                      static_cast<unsigned>(c));
        out_ += buffer;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  static bool fail(const std::string& path) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    return false;
  }

  std::string out_;
  std::vector<Scope> stack_;
  bool keyed_ = false;
};

}  // namespace hdc::bench
