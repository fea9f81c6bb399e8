#include "core/bundle.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "ml/zoo.hpp"
#include "util/serde.hpp"
#include "util/str.hpp"

namespace hdc::core {

namespace {

constexpr const char* kBundleMagic = "hdc-bundle v1";
constexpr std::size_t kMaxSections = 4096;
constexpr std::size_t kMaxSectionBytes = 1ULL << 30;

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("load_bundle: " + message);
}

std::string read_line(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) {
    fail(std::string("unexpected end of input at ") + what);
  }
  return line;
}

/// Writes a section's body into the stream it is given.
using SectionSaver = std::function<void(std::ostream&)>;

/// Header, body and trailing newline of one section. The body is
/// serialized twice: into a measuring sink for the header's byte count and
/// checksum, then straight into `out`.
void write_section(std::ostream& out, std::string_view name,
                   const SectionSaver& saver) {
  util::serde::SectionSink sink;
  {
    std::ostream measure(&sink);
    saver(measure);
    measure.flush();
  }
  const std::uint64_t bytes = sink.bytes();
  out << "section ~" << util::serde::escape(name) << ' ' << bytes << ' '
      << util::serde::hex16(sink.checksum()) << '\n';
  if (!out) return;
  sink.write_to(*out.rdbuf());
  std::ostream body(&sink);
  saver(body);
  body.flush();
  if (!body) {
    out.setstate(std::ios::badbit);
    return;
  }
  if (sink.bytes() != bytes) {
    throw std::logic_error("save_bundle: section '" + std::string(name) + "' wrote " +
                           std::to_string(sink.bytes()) + " bytes, but measured " +
                           std::to_string(bytes));
  }
  out << '\n';
}

/// One section's header line, checked.
struct SectionHeader {
  std::string name;
  std::uint64_t bytes = 0;
  std::string checksum;
};

SectionHeader read_section_header(std::istream& in) {
  std::istringstream header(read_line(in, "section header"));
  std::string keyword;
  std::string name_token;
  SectionHeader section;
  std::string trailing;
  if (!(header >> keyword >> name_token >> section.bytes >> section.checksum) ||
      keyword != "section" || (header >> trailing)) {
    fail("bad section header");
  }
  if (name_token.empty() || name_token.front() != '~') {
    fail("bad section name token '" + name_token + "'");
  }
  try {
    section.name = util::serde::unescape(std::string_view(name_token).substr(1));
  } catch (const std::runtime_error& e) {
    fail(std::string("bad section name token: ") + e.what());
  }
  if (section.bytes > kMaxSectionBytes) {
    fail("section '" + section.name + "' byte count out of range");
  }
  return section;
}

/// A parsed section, held until its checksum is verified.
using StagedSection =
    std::variant<HdcFeatureExtractor, HammingClassifier, hv::ann::Index,
                 std::unique_ptr<nn::Sequential>, RunManifest,
                 std::unique_ptr<ml::Classifier>>;

/// Parse one section body by its name.
StagedSection parse_section(const std::string& name, std::istream& body) {
  if (name == "extractor") return HdcFeatureExtractor::load(body);
  if (name == "hamming") return HammingClassifier::load(body);
  if (name == "ann") return hv::ann::Index::load(body);
  if (name == "nn") {
    auto nn = std::make_unique<nn::Sequential>();
    nn->load_state(body);
    return nn;
  }
  if (name == "manifest") return load_manifest(body);
  if (name.rfind("model:", 0) == 0) {
    // make_model throws on unknown names, covering bad model sections.
    auto model = ml::make_model(name.substr(6));
    model->load_state(body);
    return model;
  }
  throw std::runtime_error("unknown section name");
}

}  // namespace

const ml::Classifier* ModelBundle::find_model(std::string_view name) const {
  for (const auto& model : models) {
    if (model && model->name() == name) return model.get();
  }
  return nullptr;
}

std::vector<std::string> ModelBundle::model_names() const {
  std::vector<std::string> names;
  names.reserve(models.size());
  for (const auto& model : models) {
    if (model) names.push_back(model->name());
  }
  return names;
}

void save_bundle(std::ostream& out, const ModelBundle& bundle) {
  std::vector<std::pair<std::string, SectionSaver>> sections;
  if (bundle.extractor) {
    sections.emplace_back("extractor", [&](std::ostream& o) { bundle.extractor->save(o); });
  }
  if (bundle.hamming) {
    sections.emplace_back("hamming", [&](std::ostream& o) { bundle.hamming->save(o); });
    if (const hv::ann::Index* ann = bundle.hamming->ann_index()) {
      // The prebuilt ANN index rides along so serve start-up skips the
      // build; load re-verifies its fingerprint against the hamming rows.
      sections.emplace_back("ann", [ann](std::ostream& o) { ann->save(o); });
    }
  }
  if (bundle.nn) {
    sections.emplace_back("nn", [&](std::ostream& o) { bundle.nn->save_state(o); });
  }
  for (const auto& model : bundle.models) {
    if (!model) continue;
    const ml::Classifier* fitted = model.get();
    sections.emplace_back("model:" + model->name(),
                          [fitted](std::ostream& o) { fitted->save_state(o); });
  }
  if (bundle.manifest) {
    sections.emplace_back("manifest",
                          [&](std::ostream& o) { save_manifest(o, *bundle.manifest); });
  }
  if (sections.empty()) {
    throw std::logic_error("save_bundle: bundle has no fitted members");
  }

  out << kBundleMagic << '\n';
  out << "sections " << sections.size() << '\n';
  for (const auto& [name, saver] : sections) write_section(out, name, saver);
  out << "end\n";
}

ModelBundle load_bundle(std::istream& in) {
  if (read_line(in, "magic") != kBundleMagic) {
    fail("bad magic (not a bundle, or unsupported version)");
  }
  std::istringstream counts(read_line(in, "section count"));
  std::string keyword;
  std::size_t n_sections = 0;
  if (!(counts >> keyword >> n_sections) || keyword != "sections") {
    fail("bad section-count line");
  }
  if (n_sections > kMaxSections) fail("section count out of range");

  ModelBundle bundle;
  std::optional<hv::ann::Index> ann_section;
  std::vector<std::string> names;
  // The first parser exception and its section, rethrown only once every
  // section's framing and checksum have held, so a damaged file is
  // diagnosed by its damage.
  std::exception_ptr parse_error;
  std::string parse_error_section;
  for (std::size_t s = 0; s < n_sections; ++s) {
    const SectionHeader header = read_section_header(in);
    const bool duplicate =
        std::find(names.begin(), names.end(), header.name) != names.end();
    util::serde::SectionSource source(*in.rdbuf(), header.bytes);
    std::optional<StagedSection> staged;
    if (!duplicate && !parse_error) {
      std::istream body(&source);
      try {
        staged = parse_section(header.name, body);
      } catch (...) {
        parse_error = std::current_exception();
        parse_error_section = header.name;
      }
    }
    // Verify what the parser read plus whatever it left.
    if (!source.drain()) fail("section '" + header.name + "' truncated");
    const std::string actual = util::serde::hex16(source.checksum());
    if (header.checksum != actual) {
      fail("section '" + header.name + "' checksum mismatch (header " +
           header.checksum + ", body " + actual + ")");
    }
    if (in.get() != '\n') {
      fail("section '" + header.name + "' missing trailing newline");
    }
    if (duplicate) fail("duplicate section '" + header.name + "'");
    names.push_back(header.name);
    if (!staged) continue;
    // Verified: commit the section to the bundle.
    std::visit(
        [&](auto& member) {
          using T = std::decay_t<decltype(member)>;
          if constexpr (std::is_same_v<T, HdcFeatureExtractor>) {
            bundle.extractor = std::move(member);
          } else if constexpr (std::is_same_v<T, HammingClassifier>) {
            bundle.hamming = std::move(member);
          } else if constexpr (std::is_same_v<T, hv::ann::Index>) {
            // Attached after the loop: section order in the file is not a
            // contract, and the index must verify against the hamming rows.
            ann_section = std::move(member);
          } else if constexpr (std::is_same_v<T, std::unique_ptr<nn::Sequential>>) {
            bundle.nn = std::move(member);
          } else if constexpr (std::is_same_v<T, RunManifest>) {
            bundle.manifest = std::move(member);
          } else {
            bundle.models.push_back(std::move(member));
          }
        },
        *staged);
  }
  if (util::trim(read_line(in, "end marker")) != "end") fail("missing end marker");
  if (parse_error) {
    try {
      std::rethrow_exception(parse_error);
    } catch (const std::runtime_error& e) {
      fail("section '" + parse_error_section + "': " + e.what());
    } catch (const std::invalid_argument& e) {
      fail("section '" + parse_error_section + "': " + e.what());
    }
  }
  if (bundle.extractor && bundle.hamming &&
      bundle.hamming->packed_vectors().bits() != bundle.extractor->dimensions()) {
    // Every classify() would otherwise fail in the search kernel.
    fail("section 'hamming': rows are " +
         std::to_string(bundle.hamming->packed_vectors().bits()) +
         " bits wide, but section 'extractor' encodes " +
         std::to_string(bundle.extractor->dimensions()) + " bits");
  }
  if (ann_section) {
    if (!bundle.hamming) {
      fail("section 'ann': requires a hamming section");
    }
    try {
      // The hamming rows' fingerprint was taken as they were read, so
      // attach compares it and does not hash the rows again.
      bundle.hamming->attach_ann(std::move(*ann_section));
    } catch (const std::exception& e) {
      fail(std::string("section 'ann': ") + e.what());
    }
  }
  return bundle;
}

void save_bundle_file(const std::string& path, const ModelBundle& bundle) {
  // Binary: section bodies carry raw word blocks ('\n' and 0x1a included).
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_bundle: cannot open " + path);
  save_bundle(out, bundle);
  if (!out) throw std::runtime_error("save_bundle: write failed for " + path);
}

ModelBundle load_bundle_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_bundle: cannot open " + path);
  return load_bundle(in);
}

}  // namespace hdc::core
