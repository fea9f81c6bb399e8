// Custom encoding: the low-level hypervector API without the Dataset layer.
//
// Walks through the three HDC primitives the paper builds on — level
// encoding, orthogonal binary encoding, and majority-vote bundling — and
// prints the distance structure they induce, so you can see the geometry
// the classifiers exploit.
#include <cstdio>
#include <memory>

#include "hv/encoders.hpp"
#include "hv/ops.hpp"
#include "util/rng.hpp"

int main() {
  constexpr std::size_t kDim = 10000;

  // --- 1. Level (linear) encoding of a continuous feature. ---
  // Age in [21, 81]: min maps to a random seed, max lands orthogonal.
  const hdc::hv::LevelEncoder age(kDim, 21.0, 81.0, /*seed=*/1);
  std::printf("level encoding of Age in [21, 81] (normalised distances):\n");
  for (const double other : {21.0, 30.0, 45.0, 60.0, 81.0}) {
    std::printf("  d(enc(21), enc(%4.0f)) = %.3f\n", other,
                age.encode(21.0).hamming_fraction(age.encode(other)));
  }
  std::printf("  -> distance grows linearly; endpoints exactly orthogonal "
              "(0.500)\n\n");

  // --- 2. Binary encoding of a yes/no symptom. ---
  const hdc::hv::BinaryEncoder polyuria(kDim, /*seed=*/2);
  std::printf("binary encoding: d(no, yes) = %.3f (orthogonal pair)\n\n",
              polyuria.zero_vector().hamming_fraction(polyuria.one_vector()));

  // --- 3. Bundle a patient record with majority voting. ---
  hdc::hv::RecordEncoder record(kDim);
  record.add_feature(std::make_unique<hdc::hv::LevelEncoder>(kDim, 21.0, 81.0, 1));
  record.add_feature(std::make_unique<hdc::hv::BinaryEncoder>(kDim, 2));
  record.add_feature(std::make_unique<hdc::hv::LevelEncoder>(kDim, 18.0, 67.0, 3));

  const std::vector<double> alice = {45.0, 1.0, 36.0};  // age, polyuria, BMI
  const std::vector<double> alice_older = {48.0, 1.0, 36.5};
  const std::vector<double> bob = {25.0, 0.0, 21.0};
  const hdc::hv::BitVector va = record.encode(alice);
  std::printf("patient bundling (3 features, ties -> 1):\n");
  std::printf("  d(alice, alice') = %.3f   (small change in age/BMI)\n",
              va.hamming_fraction(record.encode(alice_older)));
  std::printf("  d(alice, bob)    = %.3f   (different on every feature)\n\n",
              va.hamming_fraction(record.encode(bob)));

  // --- 4. Binding: symbolic structure, beyond the paper. ---
  // A role is just a random hypervector, quasi-orthogonal to everything else.
  hdc::util::Rng rng(/*seed=*/4);
  const hdc::hv::BitVector role_age = hdc::hv::BitVector::random(kDim, rng);
  const hdc::hv::BitVector filler = age.encode(45.0);
  const hdc::hv::BitVector bound = hdc::hv::bind(role_age, filler);
  // Unbinding recovers the filler exactly (XOR is self-inverse).
  std::printf("role-filler binding: d(unbind(bound), filler) = %.3f\n",
              hdc::hv::bind(bound, role_age).hamming_fraction(filler));
  std::printf("bound vector vs filler alone: d = %.3f (dissimilar, as "
              "binding should be)\n",
              bound.hamming_fraction(filler));

  // --- 5. Class prototypes via the accumulator. ---
  hdc::hv::BitAccumulator prototype(kDim);
  prototype.add(record.encode(alice));
  prototype.add(record.encode(alice_older));
  const std::vector<double> carol = {44.0, 1.0, 35.0};
  prototype.add(record.encode(carol));
  const hdc::hv::BitVector proto = prototype.to_majority();
  std::printf("\nprototype of 3 similar patients: d(prototype, alice) = %.3f, "
              "d(prototype, bob) = %.3f\n",
              proto.hamming_fraction(va), proto.hamming_fraction(record.encode(bob)));
  return 0;
}
