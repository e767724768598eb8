// Byzantine-resilient aggregation: rule semantics, the agg= grammar, the
// snapshot codec, attack transformations, and the thread-count bit-identity
// contract (threads=1 vs threads=4 must agree byte for byte).
#include "fl/robust_agg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/parallel.h"
#include "common/rng.h"

namespace tradefl::fl {
namespace {

std::vector<std::vector<float>> make_updates(std::size_t n, std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> updates(n);
  for (auto& update : updates) {
    update.reserve(dim);
    for (std::size_t i = 0; i < dim; ++i) {
      update.push_back(static_cast<float>(rng.normal()));
    }
  }
  return updates;
}

std::vector<ClientUpdate> as_client_updates(const std::vector<std::vector<float>>& storage,
                                            std::vector<double> weights = {}) {
  std::vector<ClientUpdate> updates;
  for (std::size_t i = 0; i < storage.size(); ++i) {
    const double weight = i < weights.size() ? weights[i] : 1.0;
    updates.push_back(ClientUpdate{&storage[i], weight, i});
  }
  return updates;
}

// ---- agg= grammar ----

TEST(RobustAggParse, DefaultsAndRoundTrips) {
  const char* specs[] = {"mean",   "median",      "trimmed:2",
                         "krum:3", "multikrum:1", "normclip:0.5"};
  for (const char* text : specs) {
    const auto parsed = parse_aggregator(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(parsed.value().spec_string(), text);
  }
  EXPECT_EQ(parse_aggregator("trimmed").value().trim, 1u);
  EXPECT_EQ(parse_aggregator("krum").value().trim, 1u);
  EXPECT_DOUBLE_EQ(parse_aggregator("normclip").value().clip_norm, 1.0);
  EXPECT_EQ(parse_aggregator("mean").value().kind, AggregatorKind::kWeightedMean);
}

TEST(RobustAggParse, ErrorsEchoTokenAndGrammar) {
  const auto unknown = parse_aggregator("inverse");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error().message.find("'inverse'"), std::string::npos);
  EXPECT_NE(unknown.error().message.find("agg=mean | median | trimmed[:f]"),
            std::string::npos);

  const auto bad_count = parse_aggregator("trimmed:x");
  ASSERT_FALSE(bad_count.ok());
  EXPECT_NE(bad_count.error().message.find("'trimmed:x'"), std::string::npos);

  const auto bad_clip = parse_aggregator("normclip:0");
  ASSERT_FALSE(bad_clip.ok());
  EXPECT_NE(bad_clip.error().message.find("'normclip:0'"), std::string::npos);

  EXPECT_FALSE(parse_aggregator("mean:2").ok());
  EXPECT_FALSE(parse_aggregator("").ok());
  EXPECT_FALSE(parse_aggregator("trimmed:-1").ok());
}

// ---- snapshot codec ----

TEST(RobustAggCodec, RoundTripsAndFailsClosedOnBadKind) {
  AggregatorSpec spec;
  spec.kind = AggregatorKind::kTrimmedMean;
  spec.trim = 3;
  spec.clip_norm = 0.25;
  SnapshotWriter writer;
  fields(writer, spec);
  SnapshotReader reader(writer.payload());
  AggregatorSpec decoded;
  fields(reader, decoded);
  EXPECT_EQ(decoded, spec);
  reader.require_exhausted();

  SnapshotWriter bad;
  bad.put_u32(99);  // no such AggregatorKind
  bad.put_u64(1);
  bad.put_f64(1.0);
  SnapshotReader bad_reader(bad.payload());
  EXPECT_THROW(fields(bad_reader, decoded), SnapshotError);
}

// ---- rule semantics ----

TEST(RobustAggSemantics, WeightedMeanMatchesHistoricalFold) {
  const auto storage = make_updates(4, 33, 7);
  const std::vector<double> weights = {3.0, 1.0, 2.0, 4.0};
  const std::vector<float> previous(33, 0.0F);
  const auto outcome = aggregate_updates(AggregatorSpec{}, as_client_updates(storage, weights),
                                         previous, nullptr);
  // Reference: the exact pre-refactor Eq. (3) loop — per-coordinate double
  // accumulation in client order.
  for (std::size_t i = 0; i < 33; ++i) {
    double acc = 0.0;
    double total = 0.0;
    for (std::size_t k = 0; k < storage.size(); ++k) {
      acc += weights[k] * static_cast<double>(storage[k][i]);
      total += weights[k];
    }
    EXPECT_EQ(outcome.weights[i], static_cast<float>(acc / total)) << i;
  }
  EXPECT_EQ(outcome.rejected, 0u);
  double influence = 0.0;
  for (double share : outcome.influence) influence += share;
  EXPECT_NEAR(influence, 1.0, 1e-12);
}

TEST(RobustAggSemantics, MedianAndTrimmedIgnoreAnOutlier) {
  std::vector<std::vector<float>> storage = {{1.0F, 2.0F}, {1.1F, 2.1F}, {0.9F, 1.9F},
                                             {100.0F, -100.0F}};
  const std::vector<float> previous(2, 0.0F);
  for (const char* rule : {"median", "trimmed:1"}) {
    const auto spec = parse_aggregator(rule).value();
    const auto outcome =
        aggregate_updates(spec, as_client_updates(storage), previous, nullptr);
    EXPECT_NEAR(outcome.weights[0], 1.0, 0.2) << rule;
    EXPECT_NEAR(outcome.weights[1], 2.0, 0.2) << rule;
    // The outlier supplied no coordinate mass.
    EXPECT_EQ(outcome.influence[3], 0.0) << rule;
    EXPECT_EQ(outcome.rejected, 1u) << rule;
    EXPECT_FALSE(outcome.fallback) << rule;
  }
}

TEST(RobustAggSemantics, KrumRejectsTheIsolatedUpdate) {
  auto storage = make_updates(5, 16, 11);
  for (float& value : storage[4]) value += 50.0F;  // far from the honest cluster
  const std::vector<float> previous(16, 0.0F);
  const auto krum = aggregate_updates(parse_aggregator("krum:1").value(),
                                      as_client_updates(storage), previous, nullptr);
  // Krum selects exactly one honest update.
  EXPECT_EQ(krum.rejected, 4u);
  EXPECT_EQ(krum.influence[4], 0.0);
  std::size_t selected = 0;
  for (std::size_t k = 0; k < 5; ++k) {
    if (krum.influence[k] > 0.0) {
      ++selected;
      EXPECT_EQ(krum.weights, storage[k]);
    }
  }
  EXPECT_EQ(selected, 1u);

  const auto multi = aggregate_updates(parse_aggregator("multikrum:1").value(),
                                       as_client_updates(storage), previous, nullptr);
  // Multi-Krum keeps n - f - 2 = 2 updates; the outlier is not among them.
  EXPECT_EQ(multi.influence[4], 0.0);
  EXPECT_EQ(multi.rejected, 3u);
}

TEST(RobustAggSemantics, NormClipCapsTheDelta) {
  const std::vector<float> previous = {1.0F, 1.0F, 1.0F};
  std::vector<std::vector<float>> storage = {{1.1F, 1.0F, 1.0F}, {31.0F, 41.0F, 1.0F}};
  const auto spec = parse_aggregator("normclip:0.5").value();
  const auto outcome =
      aggregate_updates(spec, as_client_updates(storage), previous, nullptr);
  EXPECT_EQ(outcome.clipped, 1u);
  // Both merged deltas now have norm <= 0.5, so the blended model sits within
  // 0.5 of the previous global.
  double norm_sq = 0.0;
  for (std::size_t i = 0; i < previous.size(); ++i) {
    const double delta = static_cast<double>(outcome.weights[i]) - previous[i];
    norm_sq += delta * delta;
  }
  EXPECT_LE(std::sqrt(norm_sq), 0.5 + 1e-6);
}

TEST(RobustAggSemantics, DegenerateSurvivorSetFallsBackToMedian) {
  const auto storage = make_updates(2, 8, 3);
  const std::vector<float> previous(8, 0.0F);
  const auto trimmed = aggregate_updates(parse_aggregator("trimmed:1").value(),
                                         as_client_updates(storage), previous, nullptr);
  EXPECT_TRUE(trimmed.fallback);  // n = 2 <= 2f
  const auto krum = aggregate_updates(parse_aggregator("krum:1").value(),
                                      as_client_updates(storage), previous, nullptr);
  EXPECT_TRUE(krum.fallback);  // n = 2 < f + 3
  const auto median = aggregate_updates(parse_aggregator("median").value(),
                                        as_client_updates(storage), previous, nullptr);
  EXPECT_EQ(trimmed.weights, median.weights);
  EXPECT_EQ(krum.weights, median.weights);
}

TEST(RobustAggSemantics, RejectsDegenerateInput) {
  const std::vector<float> previous(4, 0.0F);
  EXPECT_THROW((void)aggregate_updates(AggregatorSpec{}, {}, previous, nullptr),
               std::invalid_argument);
  const std::vector<float> update(4, 1.0F);
  EXPECT_THROW((void)aggregate_updates(AggregatorSpec{}, {ClientUpdate{&update, 0.0, 0}},
                                       previous, nullptr),
               std::invalid_argument);
  const std::vector<float> short_update(3, 1.0F);
  EXPECT_THROW((void)aggregate_updates(
                   AggregatorSpec{},
                   {ClientUpdate{&update, 1.0, 0}, ClientUpdate{&short_update, 1.0, 1}},
                   previous, nullptr),
               std::invalid_argument);
}

// ---- thread-count bit-identity (the repo-wide determinism contract) ----

TEST(RobustAggDeterminism, EveryRuleIsThreadCountInvariant) {
  // Dim above the coordinate grain so threads=4 actually splits the work.
  const auto storage = make_updates(7, 9000, 2024);
  const std::vector<double> weights = {1.0, 2.0, 3.0, 1.5, 2.5, 0.5, 4.0};
  std::vector<float> previous(9000);
  Rng rng(99);
  for (float& value : previous) value = static_cast<float>(rng.normal());

  ThreadPool pool(4);
  for (const char* rule :
       {"mean", "median", "trimmed:2", "krum:2", "multikrum:2", "normclip:2.5"}) {
    const auto spec = parse_aggregator(rule).value();
    const auto serial =
        aggregate_updates(spec, as_client_updates(storage, weights), previous, nullptr);
    const auto parallel =
        aggregate_updates(spec, as_client_updates(storage, weights), previous, &pool);
    ASSERT_EQ(serial.weights.size(), parallel.weights.size()) << rule;
    EXPECT_EQ(0, std::memcmp(serial.weights.data(), parallel.weights.data(),
                             serial.weights.size() * sizeof(float)))
        << rule;
    EXPECT_EQ(serial.influence, parallel.influence) << rule;
    EXPECT_EQ(serial.rejected, parallel.rejected) << rule;
    EXPECT_EQ(serial.clipped, parallel.clipped) << rule;
  }
}

// ---- adversarial transformations ----

TEST(RobustAggAttack, TransformationsMatchTheirDefinitions) {
  FaultPlan plan;
  plan.seed = 5;
  plan.collude_silos = 2;
  const FaultInjector faults(plan);

  const std::vector<float> global = {1.0F, -1.0F, 0.5F};
  const std::vector<float> trained = {1.5F, -0.5F, 1.0F};

  std::vector<float> flipped = trained;
  apply_update_attack(flipped, global, AttackSpec{true, FaultKind::kSignFlip, 1.0}, faults, 0);
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_FLOAT_EQ(flipped[i], global[i] - (trained[i] - global[i])) << i;
  }

  std::vector<float> amplified = trained;
  apply_update_attack(amplified, global, AttackSpec{true, FaultKind::kScaleAttack, 8.0}, faults,
                      0);
  for (std::size_t i = 0; i < global.size(); ++i) {
    EXPECT_FLOAT_EQ(amplified[i], global[i] + 8.0F * (trained[i] - global[i])) << i;
  }

  std::vector<float> freeride = trained;
  apply_update_attack(freeride, global, AttackSpec{true, FaultKind::kFreeRide, 0.0}, faults, 0);
  EXPECT_EQ(freeride, global);
}

TEST(RobustAggAttack, ColludersSubmitIdenticalBytesPerRound) {
  FaultPlan plan;
  plan.seed = 9;
  plan.collude_silos = 2;
  const FaultInjector faults(plan);
  const std::vector<float> global(32, 0.25F);
  const AttackSpec spec{true, FaultKind::kCollude, 4.0};

  std::vector<float> first(32, 1.0F);
  std::vector<float> second(32, -1.0F);  // different local training result
  apply_update_attack(first, global, spec, faults, 3);
  apply_update_attack(second, global, spec, faults, 3);
  EXPECT_EQ(first, second);  // the coalition speaks with one voice

  std::vector<float> next_round(32, 1.0F);
  apply_update_attack(next_round, global, spec, faults, 4);
  EXPECT_NE(first, next_round);  // but the crafted vector varies per round
}

}  // namespace
}  // namespace tradefl::fl
