// Deterministic corruption fuzzing for the bundle loader: truncations at
// every offset stride, bit flips at seeded positions, version bumps, bad
// checksums, duplicate / unknown / retired sections, mutations inside every
// binary word block of the hamming and ann sections, and plain garbage. The
// loader's contract under attack is narrow — either throw a descriptive
// std::runtime_error, or (when the mutation is semantically invisible, e.g.
// a dropped trailing newline) load a bundle that re-serializes byte-identical
// to the pristine artifact. It must never crash, hang, or return a silently
// different model; the suite is ASan/UBSan-clean under the sanitizer configs.
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bundle.hpp"
#include "core/extractor.hpp"
#include "core/hamming_classifier.hpp"
#include "data/synthetic.hpp"
#include "hv/ann.hpp"
#include "ml/zoo.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"

namespace {

using hdc::core::load_bundle;
using hdc::core::ModelBundle;
using hdc::core::save_bundle;

/// Pristine multi-section bundle (extractor + two zoo models), built once.
const std::string& golden_bundle() {
  static const std::string artifact = [] {
    const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
    hdc::core::ExtractorConfig config;
    config.dimensions = 256;
    config.seed = 7;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(ds);
    const hdc::hv::BitMatrix bits = bundle.extractor->transform_bits(ds);
    for (const char* name : {"Logistic Regression", "Decision Tree"}) {
      auto model = hdc::ml::make_model(name, 0.2);
      model->fit_bits(bits, ds.labels());
      bundle.models.push_back(std::move(model));
    }
    std::ostringstream out;
    save_bundle(out, bundle);
    return out.str();
  }();
  return artifact;
}

/// Pristine bundle carrying a hamming predictor with an attached ANN index
/// (an `ann` section alongside `hamming`), built once.
const std::string& golden_ann_bundle() {
  static const std::string artifact = [] {
    const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
    hdc::core::ExtractorConfig config;
    config.dimensions = 256;
    config.seed = 7;
    ModelBundle bundle;
    bundle.extractor.emplace(config);
    bundle.extractor->fit(ds);
    hdc::core::HammingClassifier hamming;
    hamming.fit(bundle.extractor->transform(ds), ds.labels());
    hamming.enable_ann();
    bundle.hamming = std::move(hamming);
    std::ostringstream out;
    save_bundle(out, bundle);
    return out.str();
  }();
  return artifact;
}

/// The fuzz oracle: a mutated artifact must either be rejected with a
/// std::runtime_error, or load into a bundle whose re-serialization is
/// byte-identical to the pristine one (mutations in syntactically dead
/// bytes). Anything else — a crash, another exception type, a silently
/// different model — fails the test.
void expect_rejected_or_identical(const std::string& mutated,
                                  const std::string& pristine,
                                  const std::string& label) {
  std::istringstream in(mutated);
  try {
    const ModelBundle loaded = load_bundle(in);
    std::ostringstream resaved;
    save_bundle(resaved, loaded);
    EXPECT_EQ(resaved.str(), pristine)
        << label << ": loaded without error but the state drifted";
  } catch (const std::runtime_error& e) {
    EXPECT_STRNE(e.what(), "") << label << ": error message is empty";
  }
  // Any other exception type escapes and fails the test outright.
}

void expect_rejected_or_identical(const std::string& mutated,
                                  const std::string& label) {
  expect_rejected_or_identical(mutated, golden_bundle(), label);
}

TEST(BundleCorrupt, PristineLoads) {
  std::istringstream in(golden_bundle());
  const ModelBundle loaded = load_bundle(in);
  std::ostringstream resaved;
  save_bundle(resaved, loaded);
  EXPECT_EQ(resaved.str(), golden_bundle());
}

TEST(BundleCorrupt, TruncationAtEveryStride) {
  const std::string& full = golden_bundle();
  // Every prefix at a 97-byte stride plus the final 16 byte-by-byte — the
  // tail covers the end-marker / trailing-newline edge cases precisely.
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < full.size(); cut += 97) cuts.push_back(cut);
  for (std::size_t back = 1; back <= 16 && back < full.size(); ++back) {
    cuts.push_back(full.size() - back);
  }
  for (const std::size_t cut : cuts) {
    expect_rejected_or_identical(full.substr(0, cut),
                                 "truncate@" + std::to_string(cut));
  }
}

TEST(BundleCorrupt, BitFlipsAtSeededPositions) {
  const std::string& full = golden_bundle();
  hdc::util::Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t pos = rng.below(full.size());
    const int bit = static_cast<int>(rng.below(8));
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    expect_rejected_or_identical(mutated, "flip@" + std::to_string(pos) + "." +
                                              std::to_string(bit));
  }
}

TEST(BundleCorrupt, ByteSmashAtSeededPositions) {
  const std::string& full = golden_bundle();
  hdc::util::Rng rng(42);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t pos = rng.below(full.size());
    std::string mutated = full;
    mutated[pos] = static_cast<char>(rng.below(256));
    expect_rejected_or_identical(mutated, "smash@" + std::to_string(pos));
  }
}

TEST(BundleCorrupt, VersionBumpRejected) {
  std::string mutated = golden_bundle();
  const std::size_t at = mutated.find("hdc-bundle v1");
  ASSERT_NE(at, std::string::npos);
  mutated.replace(at, 13, "hdc-bundle v2");
  std::istringstream in(mutated);
  try {
    (void)load_bundle(in);
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos) << e.what();
  }
}

/// Compose a syntactically valid single-section bundle by hand — the only
/// way to reach body-level parse errors past the checksum gate.
std::string craft_bundle(const std::vector<std::pair<std::string, std::string>>&
                             sections) {
  std::ostringstream out;
  out << "hdc-bundle v1\n";
  out << "sections " << sections.size() << '\n';
  for (const auto& [name, body] : sections) {
    out << "section ~" << hdc::util::serde::escape(name) << ' ' << body.size()
        << ' ' << hdc::util::serde::hex16(hdc::util::serde::fnv1a64(body))
        << '\n'
        << body << '\n';
  }
  out << "end\n";
  return out.str();
}

/// Extract one section body from the golden artifact via a save on the
/// loaded bundle member (bodies are self-contained serializer outputs).
std::string golden_model_body(const std::string& name) {
  std::istringstream in(golden_bundle());
  const ModelBundle loaded = load_bundle(in);
  std::ostringstream body;
  loaded.find_model(name)->save_state(body);
  return body.str();
}

TEST(BundleCorrupt, SectionVersionBumpRejected) {
  // Valid checksum over a body whose serializer version was bumped: the
  // corruption must be caught by the section parser, not the checksum, and
  // the diagnostic must name the section.
  std::string body = golden_model_body("Logistic Regression");
  const std::size_t at = body.find("v1");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 2, "v9");
  const std::string crafted =
      craft_bundle({{"model:Logistic Regression", body}});
  std::istringstream in(crafted);
  try {
    (void)load_bundle(in);
    FAIL() << "bumped section version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("model:Logistic Regression"),
              std::string::npos)
        << e.what();
  }
}

TEST(BundleCorrupt, ChecksumMismatchNamesTheSection) {
  std::string artifact = golden_bundle();
  // Flip one byte inside the first section body (bytes after its header
  // line) so only the checksum can catch it.
  const std::size_t header_end = artifact.find('\n', artifact.find("section ~"));
  ASSERT_NE(header_end, std::string::npos);
  artifact[header_end + 10] = static_cast<char>(artifact[header_end + 10] ^ 1);
  std::istringstream in(artifact);
  try {
    (void)load_bundle(in);
    FAIL() << "checksum mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

TEST(BundleCorrupt, DuplicateSectionRejected) {
  const std::string body = golden_model_body("Decision Tree");
  const std::string crafted = craft_bundle(
      {{"model:Decision Tree", body}, {"model:Decision Tree", body}});
  std::istringstream in(crafted);
  try {
    (void)load_bundle(in);
    FAIL() << "duplicate section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
}

TEST(BundleCorrupt, UnknownSectionRejected) {
  // A name the loader does not know, and the three retired section names
  // (the integer-prototype online learner and the two feature scalers),
  // each with a body their old serializers would have written: all are
  // rejected by name, never skipped.
  const auto scaler_body = [](const char* tag) {
    std::ostringstream out;
    hdc::util::serde::Writer w(out);
    w.tag(tag).tag("v1").nl();
    w.vec_f64(std::vector<double>{0.0, 1.0}).nl();
    w.vec_f64(std::vector<double>{2.0, 3.0}).nl();
    return out.str();
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"mystery", "payload"},
      {"online", "core.online v1\n3 1 7\n4\n1 -1 2 0\n0 3 -2 1\n"},
      {"scaler.minmax", scaler_body("scaler.minmax")},
      {"scaler.standard", scaler_body("scaler.standard")}};
  for (const auto& [name, body] : cases) {
    std::istringstream in(craft_bundle({{name, body}}));
    try {
      (void)load_bundle(in);
      ADD_FAILURE() << "section '" << name << "' accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown section name"), std::string::npos) << what;
      EXPECT_NE(what.find("section '" + name + "'"), std::string::npos) << what;
    }
  }
}

TEST(BundleCorrupt, UnknownModelNameRejected) {
  const std::string crafted =
      craft_bundle({{"model:Quantum Diviner", "ml.tree v1\n"}});
  std::istringstream in(crafted);
  EXPECT_THROW((void)load_bundle(in), std::runtime_error);
}

TEST(BundleCorrupt, SectionCountLiesRejected) {
  // Header promises more sections than the stream carries.
  std::string artifact = golden_bundle();
  const std::size_t at = artifact.find("sections ");
  ASSERT_NE(at, std::string::npos);
  artifact.replace(at, artifact.find('\n', at) - at, "sections 99");
  std::istringstream in(artifact);
  EXPECT_THROW((void)load_bundle(in), std::runtime_error);
}

TEST(BundleCorrupt, GarbageInputsRejected) {
  for (const char* garbage :
       {"", "\n", "hdc-bundle", "hdc-bundle v1", "hdc-bundle v1\nsections",
        "hdc-bundle v1\nsections -1\nend\n",
        "hdc-bundle v1\nsections 1000000000\n",
        "hdc-bundle v1\nsections 1\nsection noname 4 0123456789abcdef\nbody\n",
        "hdc-bundle v1\nsections 0\n", "PK\x03\x04zipfile",
        "{\"json\": true}"}) {
    SCOPED_TRACE(garbage);
    std::istringstream in(garbage);
    EXPECT_THROW((void)load_bundle(in), std::runtime_error);
  }
}

/// save_state body of zoo model `name` fitted on the golden bundle's data.
std::string fitted_model_body(const std::string& name) {
  const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
  hdc::core::ExtractorConfig config;
  config.dimensions = 256;
  config.seed = 7;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  auto model = hdc::ml::make_model(name, 0.2);
  model->fit_bits(extractor.transform_bits(ds), ds.labels());
  std::ostringstream body;
  model->save_state(body);
  return body.str();
}

std::vector<std::string> body_lines(const std::string& body) {
  std::vector<std::string> lines;
  std::istringstream in(body);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string body;
  for (const std::string& line : lines) body += line + '\n';
  return body;
}

/// Whitespace-separated token `k` of a serializer line.
std::string token(const std::string& line, std::size_t k) {
  std::istringstream in(line);
  std::string tok;
  for (std::size_t i = 0; i <= k; ++i) in >> tok;
  return tok;
}

/// `line` with token `k` replaced by `value`.
std::string with_token(const std::string& line, std::size_t k,
                       const std::string& value) {
  std::istringstream in(line);
  std::string out;
  std::size_t i = 0;
  for (std::string tok; in >> tok; ++i) {
    out += (out.empty() ? "" : " ") + (i == k ? value : tok);
  }
  return out;
}

/// A crafted (checksum-valid) model section must be rejected by load_bundle
/// with the section named in the diagnostic.
void expect_section_rejected(const std::string& model, const std::string& body,
                             const std::string& what) {
  const std::string section = "model:" + model;
  std::istringstream in(craft_bundle({{section, body}}));
  try {
    (void)load_bundle(in);
    ADD_FAILURE() << what << " accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(section), std::string::npos) << e.what();
  }
}

/// Point the left child of the split node on `lines[at]` back at itself
/// (node 0): a cycle that would make predict walk forever.
void make_self_loop(std::vector<std::string>& lines, std::size_t at,
                    std::size_t left_token) {
  ASSERT_NE(token(lines[at], 0), "-1") << "root is a leaf";
  lines[at] = with_token(lines[at], left_token, "0");
}

TEST(BundleCorrupt, TreeSelfLoopRejected) {
  // ml.tree: tag, config, n_features/depth, node count, then node 0 as
  // "feature threshold left right prob".
  std::vector<std::string> lines = body_lines(golden_model_body("Decision Tree"));
  make_self_loop(lines, 4, 2);
  expect_section_rejected("Decision Tree", join_lines(lines), "tree self-loop");
}

TEST(BundleCorrupt, GbdtSelfLoopRejected) {
  // ml.gbdt: tag, config, n_features/base, round count, node count, then
  // the first tree's node 0 as "feature threshold left right value".
  std::vector<std::string> lines = body_lines(fitted_model_body("XGBoost"));
  make_self_loop(lines, 5, 2);
  expect_section_rejected("XGBoost", join_lines(lines), "XGBoost self-loop");
}

TEST(BundleCorrupt, HistGbdtSelfLoopRejected) {
  // ml.hist_gbdt: tag, config, n_features/base, one bin-edge line per
  // feature, round count, node count, then the first tree's node 0 as
  // "feature bin threshold left right value".
  std::vector<std::string> lines = body_lines(fitted_model_body("LGBM"));
  const std::size_t features = std::stoul(token(lines[2], 0));
  make_self_loop(lines, 5 + features, 3);
  expect_section_rejected("LGBM", join_lines(lines), "LGBM self-loop");
}

/// One f64 token of a serializer body: token `tok` of line `line`, read by
/// the loader under the field name `name`.
struct Field {
  std::size_t line;
  std::size_t tok;
  const char* name;
};

/// Each field of `pristine` (model section `model`), set to each of the f64
/// bit patterns in `bads` in a checksum-valid section, must be rejected with
/// the section and the field named.
void expect_fields_rejected(const std::string& model,
                            const std::vector<std::string>& pristine,
                            const std::vector<Field>& fields,
                            const std::vector<const char*>& bads) {
  const std::string section = "model:" + model;
  for (const Field& field : fields) {
    for (const char* bad : bads) {
      std::vector<std::string> lines = pristine;
      lines[field.line] = with_token(lines[field.line], field.tok, bad);
      std::istringstream in(craft_bundle({{section, join_lines(lines)}}));
      try {
        (void)load_bundle(in);
        ADD_FAILURE() << model << ' ' << field.name << " = " << bad << " accepted";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(section), std::string::npos) << what;
        EXPECT_NE(what.find(field.name), std::string::npos) << what;
      }
    }
  }
}

constexpr const char* kNaN = "7ff8000000000000";
constexpr const char* kPosInf = "7ff0000000000000";
constexpr const char* kNegInf = "fff0000000000000";

/// Index of the first of `count` vec_f64 lines from `first` with at least
/// one entry (0 when all are empty).
std::size_t first_nonempty_vec(const std::vector<std::string>& lines,
                               std::size_t first, std::size_t count) {
  for (std::size_t i = first; i < first + count; ++i) {
    if (token(lines[i], 0) != "0") return i;
  }
  return 0;
}

TEST(BundleCorrupt, HistGbdtNonFiniteRejected) {
  // ml.hist_gbdt line layout as in HistGbdtSelfLoopRejected. Each double a
  // prediction reads — the config's learning_rate, lambda and
  // min_child_weight, the base margin, a bin edge, and a split node's
  // threshold and value — set to NaN, +Inf or -Inf in a checksum-valid
  // section must be rejected with the section and the field named.
  const std::vector<std::string> pristine = body_lines(fitted_model_body("LGBM"));
  ASSERT_EQ(pristine[0], "ml.hist_gbdt v1");
  const std::size_t features = std::stoul(token(pristine[2], 0));
  const std::size_t edge_line = first_nonempty_vec(pristine, 3, features);
  ASSERT_NE(edge_line, 0u) << "no feature has a bin edge";
  const std::size_t root = 5 + features;
  ASSERT_NE(token(pristine[root], 0), "-1") << "root is a leaf";
  expect_fields_rejected("LGBM", pristine,
                         {{1, 1, "learning_rate"},
                          {1, 4, "lambda"},
                          {1, 5, "min_child_weight"},
                          {2, 1, "base_margin"},
                          {edge_line, 1, "bin edge"},
                          {root, 2, "node threshold"},
                          {root, 5, "node value"}},
                         {kNaN, kPosInf, kNegInf});
}

TEST(BundleCorrupt, TreeFamilyNonFiniteRejected) {
  // Decision Tree (whose loader Random Forest reuses), XGBoost and CatBoost:
  // every double their predictions read, set to NaN or +Inf in a
  // checksum-valid section, must be rejected with the section and the
  // field named.
  struct Case {
    std::string model;
    std::vector<std::string> pristine;
    std::vector<Field> fields;
  };
  std::vector<Case> cases;
  {
    // ml.tree: tag, config, n_features/depth, node count, node 0 as
    // "feature threshold left right prob", ..., importances last.
    const std::vector<std::string> lines = body_lines(fitted_model_body("Decision Tree"));
    ASSERT_NE(token(lines[4], 0), "-1") << "tree root is a leaf";
    ASSERT_NE(token(lines.back(), 0), "0") << "no importances";
    ASSERT_EQ(lines[0], "ml.tree v1");
    cases.push_back({"Decision Tree", lines,
                     {{4, 1, "node threshold"},
                      {4, 4, "node prob"},
                      {lines.size() - 1, 1, "importances"}}});
  }
  {
    // ml.gbdt: tag, "n_rounds learning_rate max_depth lambda gamma
    // min_child_weight base_score", "n_features base_margin", round count,
    // node count, then the first tree's node 0 as
    // "feature threshold left right value".
    const std::vector<std::string> lines = body_lines(fitted_model_body("XGBoost"));
    ASSERT_NE(token(lines[5], 0), "-1") << "XGBoost root is a leaf";
    ASSERT_EQ(lines[0], "ml.gbdt v1");
    cases.push_back({"XGBoost", lines,
                     {{1, 1, "learning_rate"},
                      {1, 3, "lambda"},
                      {1, 4, "gamma"},
                      {1, 5, "min_child_weight"},
                      {1, 6, "base_score"},
                      {2, 1, "base_margin"},
                      {5, 1, "node threshold"},
                      {5, 4, "node value"}}});
  }
  {
    // ml.ordered_gbdt: tag, "n_rounds learning_rate depth lambda max_bins
    // min_child_weight", n_features, one bin-edge line per feature, round
    // count, then per tree: level count, level features, level thresholds,
    // leaf values.
    const std::vector<std::string> lines = body_lines(fitted_model_body("CatBoost"));
    const std::size_t features = std::stoul(token(lines[2], 0));
    const std::size_t edge_line = first_nonempty_vec(lines, 3, features);
    ASSERT_NE(edge_line, 0u) << "no CatBoost feature has a bin edge";
    const std::size_t tree = 4 + features;
    ASSERT_NE(token(lines[tree], 0), "0") << "CatBoost tree has no levels";
    ASSERT_EQ(lines[0], "ml.ordered_gbdt v1");
    cases.push_back({"CatBoost", lines,
                     {{1, 1, "learning_rate"},
                      {1, 3, "lambda"},
                      {1, 5, "min_child_weight"},
                      {edge_line, 1, "bin edges"},
                      {tree + 2, 1, "level thresholds"},
                      {tree + 3, 1, "leaf values"}}});
  }
  for (const Case& c : cases) {
    std::istringstream in(craft_bundle({{"model:" + c.model, join_lines(c.pristine)}}));
    ASSERT_NO_THROW((void)load_bundle(in)) << c.model << " pristine";
    expect_fields_rejected(c.model, c.pristine, c.fields, {kNaN, kPosInf});
  }
}

TEST(BundleCorrupt, NaiveBayesShortTableRejected) {
  // ml.naive_bayes: tag, config, n_features, bernoulli flags, log priors,
  // then per class the mean, var, log_p_one and log_p_zero tables, each a
  // "count v0 v1 ..." line. predict_proba reads n_features entries of every
  // table, so a one-entry table in a checksum-valid section must be
  // rejected with the section and the table named.
  const std::vector<std::string> pristine = body_lines(fitted_model_body("Naive Bayes"));
  ASSERT_EQ(pristine[0], "ml.naive_bayes v1");
  ASSERT_EQ(pristine.size(), 13u);
  const std::string features = token(pristine[2], 0);
  const char* tables[] = {"mean", "var", "log_p_one", "log_p_zero"};
  for (std::size_t t = 0; t < 8; ++t) {
    const std::size_t line = 5 + t;
    ASSERT_EQ(token(pristine[line], 0), features) << tables[t % 4];
    std::vector<std::string> lines = pristine;
    lines[line] = "1 " + token(pristine[line], 1);
    std::istringstream in(craft_bundle({{"model:Naive Bayes", join_lines(lines)}}));
    try {
      (void)load_bundle(in);
      ADD_FAILURE() << "one-entry " << tables[t % 4] << " table accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("model:Naive Bayes"), std::string::npos) << what;
      EXPECT_NE(what.find(tables[t % 4]), std::string::npos) << what;
    }
  }
}

TEST(BundleCorrupt, ForestWithWiderLaterTreeRejected) {
  // ml.forest: tag, config, tree count, then ml.tree bodies. Widen the
  // second tree to 512 features and split its root on feature 300 — past
  // the 256-bit rows the first tree's arity admits to predict_all_bits.
  std::vector<std::string> lines = body_lines(fitted_model_body("Random Forest"));
  std::vector<std::size_t> trees;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "ml.tree v1") trees.push_back(i);
  }
  ASSERT_GE(trees.size(), 2u);
  const std::size_t at = trees[1];
  ASSERT_EQ(token(lines[at + 2], 0), "256");
  lines[at + 2] = with_token(lines[at + 2], 0, "512");
  ASSERT_NE(token(lines[at + 4], 0), "-1") << "root is a leaf";
  lines[at + 4] = with_token(lines[at + 4], 0, "300");
  // Importances may be empty; a 256-entry vector would not match 512.
  lines[at + 4 + std::stoul(token(lines[at + 3], 0))] = "0";
  expect_section_rejected("Random Forest", join_lines(lines), "wider later tree");
}

TEST(BundleCorrupt, LogisticNonFiniteWeightRejected) {
  // ml.logistic: tag, config, then "count w0 w1 ..." as f64 bit patterns.
  // A quiet NaN there is checksum-valid and parses as a double; it must be
  // rejected with the section and the field named, not loaded into a model
  // whose predict_proba leaves [0, 1].
  std::vector<std::string> lines =
      body_lines(golden_model_body("Logistic Regression"));
  ASSERT_EQ(lines[0], "ml.logistic v1");
  lines[2] = with_token(lines[2], 1, "7ff8000000000000");
  std::istringstream in(
      craft_bundle({{"model:Logistic Regression", join_lines(lines)}}));
  try {
    (void)load_bundle(in);
    FAIL() << "NaN logistic weight accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("model:Logistic Regression"), std::string::npos) << what;
    EXPECT_NE(what.find("weights"), std::string::npos) << what;
  }
}

TEST(BundleCorrupt, NnNonFiniteRejected) {
  // nn.sequential line layout: tag; hidden widths; "max_epochs patience
  // monitor min_delta batch_size learning_rate internal_val_fraction seed";
  // input_dim; dense layer count; then per Dense layer a "rows cols" header
  // and its weight rows, then a "1 cols" header and the bias row. A NaN
  // weight, a +Inf bias, a NaN learning_rate and an out-of-range monitor in
  // a checksum-valid section must each be rejected with the section and the
  // field named, not loaded into a network that answers NaN.
  const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
  hdc::core::ExtractorConfig config;
  config.dimensions = 64;
  config.seed = 7;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  hdc::nn::SequentialConfig nn_config;
  nn_config.hidden = {4};
  nn_config.max_epochs = 2;
  hdc::nn::Sequential network(nn_config);
  network.fit(extractor.transform_to_matrix(ds), ds.labels());
  std::ostringstream saved;
  network.save_state(saved);
  const std::vector<std::string> pristine = body_lines(saved.str());
  ASSERT_EQ(pristine[0], "nn.sequential v1");
  const std::size_t weight_rows = std::stoul(token(pristine[5], 0));
  const std::size_t bias_line = 7 + weight_rows;
  ASSERT_EQ(token(pristine[bias_line - 1], 0), "1") << "bias header";

  const struct {
    std::size_t line;
    std::size_t tok;
    const char* value;
    const char* field;
  } cases[] = {{6, 0, kNaN, "dense weights"},
               {bias_line, 0, kPosInf, "dense bias"},
               {2, 5, kNaN, "learning_rate"},
               {2, 2, "7", "monitor"}};
  for (const auto& c : cases) {
    std::vector<std::string> lines = pristine;
    lines[c.line] = with_token(lines[c.line], c.tok, c.value);
    std::istringstream in(craft_bundle({{"nn", join_lines(lines)}}));
    try {
      (void)load_bundle(in);
      ADD_FAILURE() << c.field << " = " << c.value << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("section 'nn'"), std::string::npos) << what;
      EXPECT_NE(what.find(c.field), std::string::npos) << what;
    }
  }
}

/// The golden bundle's extractor section body, one entry per line.
std::vector<std::string> golden_extractor_lines() {
  std::istringstream in(golden_bundle());
  const ModelBundle loaded = load_bundle(in);
  std::ostringstream body;
  loaded.extractor->save(body);
  return body_lines(body.str());
}

TEST(BundleCorrupt, ExtractorFieldsRejected) {
  // hdc-extractor v2: tag, "dimensions seed", "tie missing_as_min", column
  // count, then one "kind lo hi ~name" line per column. Each crafted field
  // in a checksum-valid section must be rejected with the section named.
  const std::vector<std::string> pristine = golden_extractor_lines();
  ASSERT_EQ(pristine[0], "hdc-extractor v2");
  std::size_t continuous = 0;
  for (std::size_t i = 4; i < pristine.size(); ++i) {
    if (token(pristine[i], 0) == "continuous") continuous = i;
  }
  ASSERT_NE(continuous, 0u) << "no continuous column";
  const auto edited = [&pristine](std::size_t line, std::size_t tok,
                                  const std::string& value) {
    std::vector<std::string> lines = pristine;
    lines[line] = with_token(lines[line], tok, value);
    return lines;
  };
  const struct {
    const char* what;
    std::vector<std::string> lines;
  } cases[] = {
      {"huge dimensions", edited(1, 0, "1099511627776")},
      {"negative dimensions", edited(1, 0, "-2048")},
      {"dimensions not a multiple of 4", edited(1, 0, "258")},
      {"dimensions x columns too large", edited(1, 0, "67108864")},
      {"lo above hi", edited(continuous, 1, "40f0000000000000")},
      {"NaN lo", edited(continuous, 1, kNaN)},
      {"+Inf hi", edited(continuous, 2, kPosInf)},
      {"unknown kind", edited(continuous, 0, "ordinal")},
      {"zero columns", {pristine[0], pristine[1], pristine[2], "0"}},
      {"too many columns", edited(3, 0, "1000000")},
      {"v1 body", edited(0, 1, "v1")},
  };
  for (const auto& c : cases) {
    std::istringstream in(craft_bundle({{"extractor", join_lines(c.lines)}}));
    try {
      (void)load_bundle(in);
      ADD_FAILURE() << c.what << " accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("section 'extractor'"), std::string::npos)
          << c.what << ": " << e.what();
    }
  }
}

TEST(BundleCorrupt, HammingWidthMismatchRejected) {
  // Each section is valid alone, but the hamming rows are 512 bits wide
  // while the extractor encodes 256: every classify() would throw, so the
  // load must.
  const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
  hdc::core::ExtractorConfig wide;
  wide.dimensions = 512;
  wide.seed = 7;
  hdc::core::HdcFeatureExtractor wide_extractor(wide);
  wide_extractor.fit(ds);
  hdc::core::HammingClassifier hamming;
  hamming.fit(wide_extractor.transform(ds), ds.labels());
  std::ostringstream hamming_body;
  hamming.save(hamming_body);

  std::istringstream in(craft_bundle(
      {{"extractor", join_lines(golden_extractor_lines())},
       {"hamming", hamming_body.str()}}));
  try {
    (void)load_bundle(in);
    FAIL() << "hamming rows wider than the extractor accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("512"), std::string::npos) << what;
    EXPECT_NE(what.find("256"), std::string::npos) << what;
  }
}

/// Raw body bytes of one named section, scanned straight out of an artifact
/// (headers are `section ~name bytes checksum`, body follows the newline).
std::string raw_section_body(const std::string& artifact,
                             const std::string& name) {
  const std::string needle = "section ~" + name + ' ';
  const std::size_t at = artifact.find(needle);
  EXPECT_NE(at, std::string::npos) << name;
  std::istringstream header(artifact.substr(at + needle.size()));
  std::size_t bytes = 0;
  header >> bytes;
  const std::size_t body_start = artifact.find('\n', at) + 1;
  return artifact.substr(body_start, bytes);
}

TEST(BundleCorrupt, AnnPristineLoadsWithIndexAttached) {
  std::istringstream in(golden_ann_bundle());
  const ModelBundle loaded = load_bundle(in);
  ASSERT_TRUE(loaded.hamming.has_value());
  EXPECT_TRUE(loaded.hamming->ann_enabled());
  std::ostringstream resaved;
  save_bundle(resaved, loaded);
  EXPECT_EQ(resaved.str(), golden_ann_bundle());
}

TEST(BundleCorrupt, AnnTruncationAtEveryStride) {
  const std::string& full = golden_ann_bundle();
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < full.size(); cut += 97) cuts.push_back(cut);
  for (std::size_t back = 1; back <= 16 && back < full.size(); ++back) {
    cuts.push_back(full.size() - back);
  }
  for (const std::size_t cut : cuts) {
    expect_rejected_or_identical(full.substr(0, cut), full,
                                 "ann-truncate@" + std::to_string(cut));
  }
}

TEST(BundleCorrupt, AnnBitFlipsAtSeededPositions) {
  const std::string& full = golden_ann_bundle();
  hdc::util::Rng rng(20260809);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t pos = rng.below(full.size());
    const int bit = static_cast<int>(rng.below(8));
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
    expect_rejected_or_identical(mutated, full,
                                 "ann-flip@" + std::to_string(pos) + "." +
                                     std::to_string(bit));
  }
}

TEST(BundleCorrupt, AnnSectionWithoutHammingRejected) {
  const std::string crafted =
      craft_bundle({{"ann", raw_section_body(golden_ann_bundle(), "ann")}});
  std::istringstream in(crafted);
  try {
    (void)load_bundle(in);
    FAIL() << "orphan ann section accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("hamming"), std::string::npos)
        << e.what();
  }
}

TEST(BundleCorrupt, AnnFingerprintMismatchRejected) {
  // A valid index built over *different* rows paired with the golden hamming
  // section: every per-field check passes, only the database fingerprint can
  // catch the swap.
  const hdc::data::Dataset other = hdc::data::make_sylhet({40, 30, 9});
  hdc::core::ExtractorConfig config;
  config.dimensions = 256;
  config.seed = 7;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(other);
  const hdc::hv::ann::Index foreign =
      hdc::hv::ann::Index::build(extractor.transform_packed(other));
  std::ostringstream foreign_body;
  foreign.save(foreign_body);

  const std::string crafted = craft_bundle(
      {{"hamming", raw_section_body(golden_ann_bundle(), "hamming")},
       {"ann", foreign_body.str()}});
  std::istringstream in(crafted);
  try {
    (void)load_bundle(in);
    FAIL() << "foreign ann index accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
        << e.what();
  }
}

/// One util::serde word block inside a section body: where its count
/// token, checksum token and first data byte sit.
struct WordBlock {
  std::size_t count_at = 0;
  std::uint64_t count = 0;
  std::size_t checksum_at = 0;
  std::size_t data_at = 0;
};

/// Every word block of `body`, found as a "<count> <hex16>\n" header whose
/// next count × 8 bytes hash to that checksum.
std::vector<WordBlock> find_word_blocks(const std::string& body) {
  std::vector<WordBlock> blocks;
  for (std::size_t nl = body.find('\n'); nl != std::string::npos;
       nl = body.find('\n', nl + 1)) {
    if (nl < 18 || body[nl - 17] != ' ') continue;
    std::size_t count_at = nl - 17;
    while (count_at > 0 && std::isdigit(static_cast<unsigned char>(body[count_at - 1]))) {
      --count_at;
    }
    if (count_at == nl - 17 || nl - 17 - count_at > 12) continue;
    const std::uint64_t count = std::stoull(body.substr(count_at, nl - 17 - count_at));
    if (count > (body.size() - nl - 1) / 8) continue;
    const std::string_view data(body.data() + nl + 1, count * 8);
    if (hdc::util::serde::hex16(hdc::util::serde::fnv1a64(data)) != body.substr(nl - 16, 16)) {
      continue;
    }
    blocks.push_back({count_at, count, nl - 16, nl + 1});
    nl += count * 8;
  }
  return blocks;
}

/// `sections` with section `name`'s body replaced by `body`, crafted into
/// a checksum-valid bundle, must be rejected with `name` in the message.
void expect_body_rejected(std::vector<std::pair<std::string, std::string>> sections,
                          const std::string& name, const std::string& body,
                          const std::string& what) {
  for (auto& section : sections) {
    if (section.first == name) section.second = body;
  }
  std::istringstream in(craft_bundle(sections));
  try {
    (void)load_bundle(in);
    ADD_FAILURE() << name << ": " << what << " accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("section '" + name + "'"), std::string::npos)
        << what << ": " << e.what();
  }
}

TEST(BundleCorrupt, WordBlockMutationsRejected) {
  // Inside a checksum-valid section, every word block of the hamming rows
  // and of the ann centroids and sketches is truncated, given a count of
  // ±1 or 2^40, a flipped word byte (block checksum mismatch), and a
  // missing or extra separator byte. Each must be rejected by name.
  const std::string& artifact = golden_ann_bundle();
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"extractor", raw_section_body(artifact, "extractor")},
      {"hamming", raw_section_body(artifact, "hamming")},
      {"ann", raw_section_body(artifact, "ann")}};
  {
    std::istringstream in(craft_bundle(sections));
    ASSERT_NO_THROW((void)load_bundle(in));
  }
  for (const auto& [name, expected_blocks] :
       {std::pair<std::string, std::size_t>{"hamming", 1}, {"ann", 2}}) {
    const std::string body = raw_section_body(artifact, name);
    const std::vector<WordBlock> blocks = find_word_blocks(body);
    ASSERT_EQ(blocks.size(), expected_blocks) << name;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const WordBlock& block = blocks[b];
      ASSERT_GT(block.count, 0u);
      const std::string where = name + " block " + std::to_string(b) + ": ";
      const std::size_t count_len = block.checksum_at - 1 - block.count_at;
      const auto with_count = [&](std::uint64_t count) {
        return std::string(body).replace(block.count_at, count_len, std::to_string(count));
      };
      std::string flipped = body;
      const std::size_t mid = block.data_at + block.count * 4;
      flipped[mid] = static_cast<char>(flipped[mid] ^ 0x40);
      const struct {
        const char* what;
        std::string body;
      } cases[] = {
          {"truncated inside the block", body.substr(0, mid)},
          {"truncated at the last byte", body.substr(0, block.data_at + block.count * 8 - 1)},
          {"count - 1", with_count(block.count - 1)},
          {"count + 1", with_count(block.count + 1)},
          {"count 2^40", with_count(1ULL << 40)},
          {"block checksum mismatch", flipped},
          {"missing separator", std::string(body).erase(block.data_at - 1, 1)},
          {"extra separator", std::string(body).insert(block.data_at, "\n")},
      };
      for (const auto& c : cases) expect_body_rejected(sections, name, c.body, where + c.what);
    }
  }
}

TEST(BundleCorrupt, WordBlockPaddingBitsRejected) {
  // 260-bit rows and 100-bit sketches leave padding bits in every row of
  // the hamming block and of both ann blocks. One set padding bit, under a
  // recomputed (valid) block checksum, must be rejected by name.
  const hdc::data::Dataset ds = hdc::data::make_sylhet({30, 40, 3});
  hdc::core::ExtractorConfig config;
  config.dimensions = 260;
  config.seed = 7;
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(ds);
  hdc::core::HammingClassifier hamming;
  hamming.fit(extractor.transform(ds), ds.labels());
  hdc::hv::ann::Config ann_config;
  ann_config.sketch_bits = 100;
  hamming.enable_ann(ann_config);
  std::ostringstream hamming_body;
  std::ostringstream ann_body;
  hamming.save(hamming_body);
  hamming.ann_index()->save(ann_body);
  const std::vector<std::pair<std::string, std::string>> sections = {
      {"hamming", hamming_body.str()}, {"ann", ann_body.str()}};
  {
    std::istringstream in(craft_bundle(sections));
    ASSERT_NO_THROW((void)load_bundle(in));
  }
  for (const auto& [name, row_bits] :
       {std::pair<std::string, std::vector<std::size_t>>{"hamming", {260}},
        {"ann", {260, 100}}}) {
    const std::string& body = name == "hamming" ? sections[0].second : sections[1].second;
    const std::vector<WordBlock> blocks = find_word_blocks(body);
    ASSERT_EQ(blocks.size(), row_bits.size()) << name;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      // Top bit of the first row's last word: past `bits`, so padding.
      std::string mutated = body;
      const std::size_t last_word = (row_bits[b] + 63) / 64 - 1;
      mutated[blocks[b].data_at + last_word * 8 + 7] |= static_cast<char>(0x80);
      const std::string_view data(mutated.data() + blocks[b].data_at, blocks[b].count * 8);
      mutated.replace(blocks[b].checksum_at, 16,
                      hdc::util::serde::hex16(hdc::util::serde::fnv1a64(data)));
      expect_body_rejected(sections, name, mutated,
                           name + " block " + std::to_string(b) + ": padding bit");
    }
  }
}

TEST(BundleCorrupt, RetiredHexBodiesAskForARebuild) {
  // Bodies from before the binary word blocks (hdc-hamming v3, hv.ann v1,
  // ml.knn v1 stored packed words as hex tokens) are rejected with the
  // section named and a pointer to rebuilding the artifact.
  const std::string v3_hamming =
      "hdc-hamming v3\nnearest 1\n2 0 1\n2 60\n1 0000000000000001\n1 0000000000000002\n";
  std::string v1_ann = raw_section_body(golden_ann_bundle(), "ann");
  ASSERT_EQ(v1_ann.rfind("hv.ann v2\n", 0), 0u);
  v1_ann.replace(0, 9, "hv.ann v1");
  std::string v1_knn = fitted_model_body("KNN");
  ASSERT_EQ(v1_knn.rfind("ml.knn v2\n", 0), 0u);
  v1_knn.replace(0, 9, "ml.knn v1");
  for (const auto& [name, body] : std::vector<std::pair<std::string, std::string>>{
           {"hamming", v3_hamming}, {"ann", v1_ann}, {"model:KNN", v1_knn}}) {
    std::istringstream in(craft_bundle({{name, body}}));
    try {
      (void)load_bundle(in);
      ADD_FAILURE() << name << " old body accepted";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("section '" + name + "'"), std::string::npos) << what;
      EXPECT_NE(what.find("re-run `hdc_cli bundle`"), std::string::npos) << what;
    }
  }
}

TEST(BundleCorrupt, KnnWeightedVotingFlagRejected) {
  // The ml.knn v2 body still carries the retired distance-weighted flag
  // after k; it is always written as 0, and a 1 there is refused with the
  // section and the field named, never loaded as an unweighted model.
  std::string body = fitted_model_body("KNN");
  const std::string header = "ml.knn v2\n";
  ASSERT_EQ(body.rfind(header, 0), 0u);
  const std::size_t line_end = body.find('\n', header.size());
  ASSERT_EQ(body.substr(line_end - 2, 2), " 0");
  body[line_end - 1] = '1';
  std::istringstream in(craft_bundle({{"model:KNN", body}}));
  try {
    (void)load_bundle(in);
    ADD_FAILURE() << "weighted KNN body accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("section 'model:KNN'"), std::string::npos) << what;
    EXPECT_NE(what.find("distance-weighted"), std::string::npos) << what;
  }
}

TEST(BundleCorrupt, RandomGarbageNeverCrashes) {
  hdc::util::Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::string noise(rng.below(2048), '\0');
    for (char& c : noise) c = static_cast<char>(rng.below(256));
    // Half the trials get a valid magic so the fuzz reaches the section
    // parser instead of stopping at the first line.
    if (trial % 2 == 0) noise.insert(0, "hdc-bundle v1\n");
    std::istringstream in(noise);
    EXPECT_THROW((void)load_bundle(in), std::runtime_error) << trial;
  }
}

}  // namespace
