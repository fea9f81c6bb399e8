#include "core/bundle.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

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

/// One parsed-but-not-yet-decoded section.
struct RawSection {
  std::string name;
  std::string body;
};

std::vector<RawSection> read_sections(std::istream& in) {
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

  std::vector<RawSection> sections;
  sections.reserve(n_sections);
  for (std::size_t s = 0; s < n_sections; ++s) {
    std::istringstream header(read_line(in, "section header"));
    std::string name_token;
    std::size_t bytes = 0;
    std::string checksum;
    std::string trailing;
    if (!(header >> keyword >> name_token >> bytes >> checksum) ||
        keyword != "section" || (header >> trailing)) {
      fail("bad section header");
    }
    if (name_token.empty() || name_token.front() != '~') {
      fail("bad section name token '" + name_token + "'");
    }
    RawSection section;
    try {
      section.name = util::serde::unescape(std::string_view(name_token).substr(1));
    } catch (const std::runtime_error& e) {
      fail(std::string("bad section name token: ") + e.what());
    }
    if (bytes > kMaxSectionBytes) {
      fail("section '" + section.name + "' byte count out of range");
    }
    section.body.resize(bytes);
    in.read(section.body.data(), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes) {
      fail("section '" + section.name + "' truncated");
    }
    // Integrity check before any parser sees the body.
    const std::string expected = util::serde::hex16(util::serde::fnv1a64(section.body));
    if (checksum != expected) {
      fail("section '" + section.name + "' checksum mismatch (header " + checksum +
           ", body " + expected + ")");
    }
    if (in.get() != '\n') {
      fail("section '" + section.name + "' missing trailing newline");
    }
    for (const RawSection& seen : sections) {
      if (seen.name == section.name) {
        fail("duplicate section '" + section.name + "'");
      }
    }
    sections.push_back(std::move(section));
  }
  if (util::trim(read_line(in, "end marker")) != "end") fail("missing end marker");
  return sections;
}

void write_section(std::ostream& out, std::string_view name,
                   const std::string& body) {
  out << "section ~" << util::serde::escape(name) << ' ' << body.size() << ' '
      << util::serde::hex16(util::serde::fnv1a64(body)) << '\n';
  out << body << '\n';
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
  std::vector<std::pair<std::string, std::string>> sections;
  const auto add = [&sections](std::string name, const auto& saver) {
    std::ostringstream body;
    saver(body);
    sections.emplace_back(std::move(name), body.str());
  };

  if (bundle.extractor) {
    add("extractor", [&](std::ostream& o) { bundle.extractor->save(o); });
  }
  if (bundle.hamming) {
    add("hamming", [&](std::ostream& o) { bundle.hamming->save(o); });
    if (const hv::ann::Index* ann = bundle.hamming->ann_index()) {
      // The prebuilt ANN index rides along so serve start-up skips the
      // build; load re-verifies its fingerprint against the hamming rows.
      add("ann", [&](std::ostream& o) { ann->save(o); });
    }
  }
  if (bundle.nn) {
    add("nn", [&](std::ostream& o) { bundle.nn->save_state(o); });
  }
  for (const auto& model : bundle.models) {
    if (!model) continue;
    add("model:" + model->name(),
        [&](std::ostream& o) { model->save_state(o); });
  }
  if (bundle.manifest) {
    add("manifest",
        [&](std::ostream& o) { save_manifest(o, *bundle.manifest); });
  }
  if (sections.empty()) {
    throw std::logic_error("save_bundle: bundle has no fitted members");
  }

  out << kBundleMagic << '\n';
  out << "sections " << sections.size() << '\n';
  for (const auto& [name, body] : sections) write_section(out, name, body);
  out << "end\n";
}

ModelBundle load_bundle(std::istream& in) {
  ModelBundle bundle;
  std::optional<hv::ann::Index> ann_section;
  for (RawSection& section : read_sections(in)) {
    // The stream takes the body over, so a section's bytes are held once
    // and released as soon as its parser returns.
    std::istringstream body(std::move(section.body));
    try {
      if (section.name == "extractor") {
        bundle.extractor = HdcFeatureExtractor::load(body);
      } else if (section.name == "hamming") {
        bundle.hamming = HammingClassifier::load(body);
      } else if (section.name == "ann") {
        // Attached after the loop: section order in the file is not a
        // contract, and the index must verify against the hamming rows.
        ann_section = hv::ann::Index::load(body);
      } else if (section.name == "nn") {
        bundle.nn = std::make_unique<nn::Sequential>();
        bundle.nn->load_state(body);
      } else if (section.name == "manifest") {
        bundle.manifest = load_manifest(body);
      } else if (section.name.rfind("model:", 0) == 0) {
        // make_model throws on unknown names, covering bad model sections.
        auto model = ml::make_model(section.name.substr(6));
        model->load_state(body);
        bundle.models.push_back(std::move(model));
      } else {
        throw std::runtime_error("unknown section name");
      }
    } catch (const std::runtime_error& e) {
      fail("section '" + section.name + "': " + e.what());
    } catch (const std::invalid_argument& e) {
      fail("section '" + section.name + "': " + e.what());
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
