// Follow-up-visit deployment: the paper's §IV scenario — a model that is
// trained once, shipped (serialized), then kept current from each follow-up
// visit's confirmed outcome via single-sample online updates.
#include <cstdio>
#include <sstream>

#include "core/extractor.hpp"
#include "core/online.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  const hdc::util::Cli cli(argc, argv);
  const std::uint64_t seed = cli.get_uint("--seed", 17);

  // Year 0: train on an initial cohort and serialize the deployable parts.
  const hdc::data::Dataset cohort = hdc::data::make_sylhet({200, 320, seed});
  const auto split = hdc::data::stratified_split(cohort.labels(), 0.3, seed);
  const hdc::data::Dataset initial = cohort.subset(split.train);
  const hdc::data::Dataset follow_up = cohort.subset(split.test);

  hdc::core::ExtractorConfig config;
  config.dimensions = static_cast<std::size_t>(cli.get_int("--dim", 10000));
  hdc::core::HdcFeatureExtractor extractor(config);
  extractor.fit(initial);

  hdc::core::OnlineHdClassifier model;
  model.fit(extractor.transform(initial), initial.labels());
  std::printf("initial training: %zu patients, retraining converged after %zu "
              "epochs\n",
              initial.n_rows(), model.updates_per_epoch().size());

  // Ship the encoder: the extractor round-trips through its token format
  // (here an in-memory stream; a file ships it as a core/bundle section).
  std::stringstream wire;
  extractor.save(wire);
  const hdc::core::HdcFeatureExtractor clinic_extractor =
      hdc::core::HdcFeatureExtractor::load(wire);
  std::printf("encoder serialized: %zu bytes\n", wire.str().size());

  // Years 1..n: each follow-up visit scores the patient, then — once the lab
  // outcome is confirmed — feeds it back with partial_fit.
  std::size_t correct_before_update = 0;
  for (std::size_t i = 0; i < follow_up.n_rows(); ++i) {
    const hdc::hv::BitVector encoded = clinic_extractor.encode_row(follow_up.row(i));
    const int predicted = model.predict(encoded);
    if (predicted == follow_up.label(i)) ++correct_before_update;
    model.partial_fit(encoded, follow_up.label(i));
  }
  std::printf("prequential accuracy over %zu follow-up visits: %.1f%%\n",
              follow_up.n_rows(),
              100.0 * static_cast<double>(correct_before_update) /
                  static_cast<double>(follow_up.n_rows()));

  // The continuously updated model, re-evaluated on the original cohort.
  std::size_t hits = 0;
  const auto all_vectors = clinic_extractor.transform(cohort);
  for (std::size_t i = 0; i < cohort.n_rows(); ++i) {
    if (model.predict(all_vectors[i]) == cohort.label(i)) ++hits;
  }
  std::printf("post-update accuracy on the full cohort: %.1f%%\n",
              100.0 * static_cast<double>(hits) / static_cast<double>(cohort.n_rows()));
  return 0;
}
