// hdc_cli end to end: the train / evaluate / predict workflow over a CSV,
// one bundle for `train`, `train --stream` and `bundle`, and a clean error
// (non-zero exit) when a model file is not a bundle or lacks a section.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/bundle.hpp"
#include "data/csv.hpp"
#include "data/synthetic.hpp"

namespace {

constexpr std::size_t kRows = 200;

struct CliRun {
  int status = -1;
  std::string output;  // stdout and stderr interleaved
};

/// Run hdc_cli with `args`, capturing its output and exit status.
CliRun run_cli(const std::string& args) {
  const std::string command = std::string(HDC_CLI_PATH) + " " + args + " 2>&1";
  CliRun result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int raw = pclose(pipe);
  result.status = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  return result;
}

/// Per-test scratch path, so parallel test processes never share a file.
std::string scratch(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/cli_" + info->name() + "_" + name;
}

std::string write_cohort() {
  const std::string path = scratch("cohort.csv");
  hdc::data::write_csv_file(path, hdc::data::make_synthetic_cohort(kRows, 5));
  return path;
}

/// The bundle at `path`, re-saved without its provenance manifest.
std::string sections_of(const std::string& path) {
  hdc::core::ModelBundle bundle = hdc::core::load_bundle_file(path);
  bundle.manifest.reset();
  std::ostringstream out;
  hdc::core::save_bundle(out, bundle);
  return out.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n' ? 1 : 0;
  return lines;
}

TEST(Cli, TrainEvaluatePredict) {
  const std::string csv = write_cohort();
  const std::string model = scratch("model.bundle");
  const CliRun train = run_cli("train " + csv + " " + model + " --dim 512");
  ASSERT_EQ(train.status, 0) << train.output;

  const CliRun evaluate = run_cli("evaluate " + csv + " " + model);
  ASSERT_EQ(evaluate.status, 0) << evaluate.output;
  // 1-NN over its own training rows finds each row itself.
  EXPECT_NE(evaluate.output.find("n=200  accuracy=100.00%"), std::string::npos)
      << evaluate.output;

  const CliRun predict = run_cli("predict " + csv + " " + model);
  ASSERT_EQ(predict.status, 0) << predict.output;
  EXPECT_EQ(predict.output.rfind("row,prediction,score\n", 0), 0u) << predict.output;
  EXPECT_EQ(count_lines(predict.output), kRows + 1);
}

TEST(Cli, TrainStreamAndBundleWriteIdenticalSections) {
  const std::string csv = write_cohort();
  const std::string trained = scratch("train.bundle");
  const std::string streamed = scratch("stream.bundle");
  const std::string bundled = scratch("bundle.bundle");
  ASSERT_EQ(run_cli("train " + csv + " " + trained + " --dim 512").status, 0);
  ASSERT_EQ(run_cli("train " + csv + " " + streamed +
                    " --dim 512 --stream --shard-rows 64")
                .status,
            0);
  ASSERT_EQ(run_cli("bundle " + csv + " " + bundled + " --dim 512").status, 0);

  const hdc::core::ModelBundle loaded = hdc::core::load_bundle_file(trained);
  ASSERT_TRUE(loaded.extractor.has_value());
  ASSERT_TRUE(loaded.hamming.has_value());
  const std::string expected = sections_of(trained);
  EXPECT_EQ(sections_of(streamed), expected);
  EXPECT_EQ(sections_of(bundled), expected);
}

TEST(Cli, BundleKeepsK) {
  const std::string csv = write_cohort();
  const std::string model = scratch("k3.bundle");
  const CliRun bundle = run_cli("bundle " + csv + " " + model + " --dim 512 --k 3");
  ASSERT_EQ(bundle.status, 0) << bundle.output;
  const hdc::core::ModelBundle loaded = hdc::core::load_bundle_file(model);
  ASSERT_TRUE(loaded.hamming.has_value());
  EXPECT_EQ(loaded.hamming->k(), 3u);
}

TEST(Cli, EvaluateRejectsAFileThatIsNotABundle) {
  const std::string csv = write_cohort();
  const std::string bogus = scratch("model.hdc");
  std::ofstream(bogus) << "hdc-extractor v1\nnot a bundle\n";
  const CliRun evaluate = run_cli("evaluate " + csv + " " + bogus);
  EXPECT_NE(evaluate.status, 0) << evaluate.output;
  EXPECT_NE(evaluate.output.find("error"), std::string::npos) << evaluate.output;
}

TEST(Cli, EvaluateNamesAMissingSection) {
  const std::string csv = write_cohort();
  const std::string path = scratch("extractor_only.bundle");
  hdc::core::ModelBundle bundle;
  bundle.extractor.emplace().fit(hdc::data::make_synthetic_cohort(kRows, 5));
  hdc::core::save_bundle_file(path, bundle);
  for (const char* command : {"evaluate", "predict"}) {
    const CliRun run = run_cli(std::string(command) + " " + csv + " " + path);
    EXPECT_NE(run.status, 0) << command << ": " << run.output;
    EXPECT_NE(run.output.find("'hamming' section"), std::string::npos)
        << command << ": " << run.output;
  }
}

}  // namespace
