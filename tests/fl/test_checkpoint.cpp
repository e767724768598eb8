// Resume bit-identity for FedAvg training: a run that checkpoints,
// stops, and resumes must reproduce the uninterrupted run exactly — every
// weight, every metric — at threads=1 and threads=4, with and without
// injected faults. Corrupt or mismatched snapshots fail closed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/parallel.h"
#include "fl/fedavg.h"

namespace tradefl::fl {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Restores the serial global pool even when an assertion fails mid-test.
struct ThreadsRestorer {
  ~ThreadsRestorer() { set_global_threads(1); }
};

struct Fixture {
  DatasetSpec concept_spec = DatasetSpec::builtin(DatasetKind::kFmnistLike, 5);
  std::vector<Dataset> locals;
  Dataset test_set;
  ModelSpec model;

  Fixture() : test_set(concept_spec.with_sample_seed(999), 200) {
    for (std::size_t i = 0; i < 3; ++i) {
      locals.emplace_back(concept_spec.with_sample_seed(10 + i), 150);
    }
    model.kind = ModelKind::kMlp;
    model.channels = concept_spec.channels;
    model.height = concept_spec.height;
    model.width = concept_spec.width;
    model.classes = concept_spec.classes;
    model.seed = 3;
  }

  std::vector<FedClient> clients(std::vector<double> fractions) {
    std::vector<FedClient> out;
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      out.push_back(FedClient{&locals[i], fractions[i], 100 + i});
    }
    return out;
  }
};

FedAvgOptions avg_options(std::size_t rounds) {
  FedAvgOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.batch_size = 32;
  return options;
}

void expect_same_metrics(const RoundMetrics& a, const RoundMetrics& b) {
  EXPECT_EQ(a.round, b.round);
  EXPECT_EQ(a.train_loss, b.train_loss);  // exact: bit-identity, not closeness
  EXPECT_EQ(a.test_loss, b.test_loss);
  EXPECT_EQ(a.test_accuracy, b.test_accuracy);
  EXPECT_EQ(a.participants, b.participants);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.quarantined, b.quarantined);
  EXPECT_EQ(a.skipped, b.skipped);
}

void expect_same_fedavg(const FedAvgResult& a, const FedAvgResult& b) {
  EXPECT_EQ(a.final_weights, b.final_weights);  // exact float equality
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.total_contributed_samples, b.total_contributed_samples);
  EXPECT_EQ(a.rounds_skipped, b.rounds_skipped);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
  EXPECT_EQ(a.total_quarantined, b.total_quarantined);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    expect_same_metrics(a.history[i], b.history[i]);
  }
}

/// Stop-and-resume: train the first `stop_at` rounds with checkpointing, then
/// resume from the snapshot and finish the remaining rounds in a fresh call.
FedAvgResult split_fedavg(Fixture& fixture, const std::string& path, std::size_t stop_at,
                          std::size_t rounds, const FaultInjector* faults = nullptr) {
  FedAvgOptions first = avg_options(stop_at);
  first.checkpoint_path = path;
  first.faults = faults;
  (void)train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, first);

  FedAvgOptions second = avg_options(rounds);
  second.checkpoint_path = path;
  second.resume = true;
  second.faults = faults;
  return train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set,
                      second);
}

TEST(FedAvgCheckpoint, ResumedRunIsBitIdenticalToUninterrupted) {
  Fixture fixture;
  const FedAvgResult baseline = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, avg_options(6));
  const FedAvgResult resumed =
      split_fedavg(fixture, temp_path("fedavg_split.snap"), /*stop_at=*/3, /*rounds=*/6);
  expect_same_fedavg(baseline, resumed);
}

TEST(FedAvgCheckpoint, ResumeIsBitIdenticalUnderFourThreads) {
  Fixture fixture;
  // Baseline runs serial; the interrupted + resumed run uses the pool. The
  // parallel layer guarantees threads=1 == threads=4, so the resume path must
  // land on the same bytes from either side.
  const FedAvgResult baseline = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, avg_options(6));
  ThreadsRestorer restore;
  set_global_threads(4);
  const FedAvgResult resumed =
      split_fedavg(fixture, temp_path("fedavg_split_mt.snap"), /*stop_at=*/3, /*rounds=*/6);
  expect_same_fedavg(baseline, resumed);
}

TEST(FedAvgCheckpoint, ResumePreservesInjectedFaultSchedule) {
  // Fault decisions are keyed by (round, client), so the resumed half of the
  // run must draw the exact faults the uninterrupted run would have drawn.
  FaultPlan plan;
  plan.seed = 7;
  plan.dropout_rate = 0.3;
  const FaultInjector injector(plan);

  Fixture fixture;
  FedAvgOptions options = avg_options(6);
  options.faults = &injector;
  const FedAvgResult baseline = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, options);
  const FedAvgResult resumed = split_fedavg(fixture, temp_path("fedavg_split_faults.snap"),
                                            /*stop_at=*/3, /*rounds=*/6, &injector);
  expect_same_fedavg(baseline, resumed);
  EXPECT_GT(baseline.total_dropped, 0u);  // the plan actually fired
}

TEST(FedAvgCheckpoint, FullyCoveredResumeRetrainsNothing) {
  // The checkpoint already covers every requested round: resume returns the
  // stored result without running a single round (idempotent restart).
  Fixture fixture;
  const std::string path = temp_path("fedavg_idempotent.snap");
  FedAvgOptions options = avg_options(4);
  options.checkpoint_path = path;
  const FedAvgResult first = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, options);

  options.resume = true;
  const FedAvgResult second = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, options);
  expect_same_fedavg(first, second);
}

TEST(FedAvgCheckpoint, CorruptSnapshotFailsClosed) {
  Fixture fixture;
  const std::string path = temp_path("fedavg_corrupt.snap");
  FedAvgOptions options = avg_options(2);
  options.checkpoint_path = path;
  (void)train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set,
                     options);

  {  // flip one byte mid-file
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  options.resume = true;
  try {
    (void)train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set,
                       options);
    FAIL() << "corrupt snapshot must not resume";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("failed closed"), std::string::npos)
        << error.what();
  }
}

TEST(FedAvgCheckpoint, MismatchedConfigurationFailsClosed) {
  Fixture fixture;
  const std::string path = temp_path("fedavg_mismatch.snap");
  FedAvgOptions options = avg_options(2);
  options.checkpoint_path = path;
  (void)train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set,
                     options);

  // Same snapshot, different shuffle seed: silently training a different
  // experiment is exactly what the fingerprint exists to prevent.
  options.resume = true;
  options.shuffle_seed += 1;
  try {
    (void)train_fedavg(fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set,
                       options);
    FAIL() << "mismatched configuration must not resume";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("snapshot.mismatch"), std::string::npos)
        << error.what();
  }
}

TEST(FedAvgCheckpoint, MissingSnapshotWithResumeIsColdStart) {
  // resume=1 with no snapshot present runs from scratch: the kill-and-resume
  // harness may die before the first checkpoint lands.
  Fixture fixture;
  FedAvgOptions options = avg_options(3);
  options.checkpoint_path = temp_path("fedavg_cold_start.snap");
  std::filesystem::remove(options.checkpoint_path);  // TempDir persists across runs
  options.resume = true;
  const FedAvgResult cold = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, options);
  const FedAvgResult plain = train_fedavg(
      fixture.model, fixture.clients({1.0, 1.0, 1.0}), fixture.test_set, avg_options(3));
  expect_same_fedavg(plain, cold);
}

}  // namespace
}  // namespace tradefl::fl
