// Section body codecs for the bundle's `extractor` and `hamming` sections
// (core/bundle): the fitted feature extractor (column encodings + encoding
// seed — a few hundred bytes) and the Hamming classifier (training
// hypervectors + labels). The format is a versioned line-oriented text
// format: human-inspectable and stable across platforms (hypervector words
// are written as hex). The bundle supplies the checksums and the file.
#pragma once

#include <iosfwd>

#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "hv/bitvector.hpp"

namespace hdc::core {

/// BitVector <-> hex text (words little-endian, lowercase hex).
void write_bitvector(std::ostream& out, const hv::BitVector& vector);
[[nodiscard]] hv::BitVector read_bitvector(std::istream& in);

/// Fitted extractor round-trip. Throws std::runtime_error on malformed input.
void save_extractor(std::ostream& out, const HdcFeatureExtractor& extractor);
[[nodiscard]] HdcFeatureExtractor load_extractor(std::istream& in);

/// Fitted Hamming classifier round-trip (1-NN and prototype modes).
void save_hamming(std::ostream& out, const HammingClassifier& model);
[[nodiscard]] HammingClassifier load_hamming(std::istream& in);

}  // namespace hdc::core
