// Versioned single-file persistence for a fitted pipeline — the deployable
// artifact the serve path loads. A bundle is a sequence of named sections:
//
//   hdc-bundle v1
//   sections <n>
//   section <~name> <byte-count> <fnv1a-hex16>
//   <raw section body, exactly byte-count bytes>
//   ...
//   end
//
// Each section body is one util::serde stream — tokens, plus binary word
// blocks for packed hypervectors — written and read by its own type's
// serializer (HdcFeatureExtractor::save, HammingClassifier::save,
// hv::ann::Index::save, the ml / nn / manifest serializers), with its
// own magic and version. The section header carries the body's byte count
// and FNV-1a 64 checksum; the loader verifies the checksum *before* parsing
// the body, so any corruption — truncation, bit flips, version skew — is
// reported as a diagnostic std::runtime_error instead of reaching a parser
// as garbage.
//
// Section names:
//   extractor        fitted HdcFeatureExtractor
//   hamming          fitted HammingClassifier
//   ann              prebuilt hv::ann::Index over the hamming rows
//   nn               fitted nn::Sequential
//   model:<name>     fitted zoo model, <name> = ml::Classifier::name()
//   manifest         core::RunManifest of the producing training run
//
// Every section is optional; duplicates and unknown names are errors, and
// `ann` needs `hamming`. When both `extractor` and `hamming` are present the
// hamming rows must be extractor.dimensions() bits wide.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "core/manifest.hpp"
#include "ml/classifier.hpp"
#include "nn/sequential.hpp"

namespace hdc::core {

/// Everything a deployment needs in one artifact. Any subset of the members
/// may be present; save_bundle writes only the fitted/engaged ones.
struct ModelBundle {
  std::optional<HdcFeatureExtractor> extractor;
  std::optional<HammingClassifier> hamming;
  std::unique_ptr<nn::Sequential> nn;
  /// Fitted zoo models, keyed by their Classifier::name().
  std::vector<std::unique_ptr<ml::Classifier>> models;
  /// Provenance of the training run that produced this bundle (optional —
  /// older bundles round-trip without it).
  std::optional<RunManifest> manifest;

  /// Zoo model by exact name; nullptr when absent.
  [[nodiscard]] const ml::Classifier* find_model(std::string_view name) const;

  /// Names of all stored zoo models, in bundle order.
  [[nodiscard]] std::vector<std::string> model_names() const;
};

/// Serialize the engaged members of `bundle`. Throws std::logic_error when
/// nothing is engaged (an empty bundle is almost certainly a caller bug).
void save_bundle(std::ostream& out, const ModelBundle& bundle);

/// Parse + checksum-verify a bundle. Throws std::runtime_error with a
/// section-qualified message on any malformed input.
[[nodiscard]] ModelBundle load_bundle(std::istream& in);

void save_bundle_file(const std::string& path, const ModelBundle& bundle);
[[nodiscard]] ModelBundle load_bundle_file(const std::string& path);

}  // namespace hdc::core
