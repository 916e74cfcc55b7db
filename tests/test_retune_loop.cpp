// End-to-end continual-retuning loop battery (ISSUE 8 tentpole proof).
//
// The scenario: a deliberately MIStrained model (trained on reversed
// runtime curves, so it systematically picks bad thread counts) serves
// measured traffic. The loop must then close itself:
//
//   1. telemetry from the true measurements shows high regret against the
//      mistrained model's choices -> the drift detector fires;
//   2. `retune()` retrains from that telemetry through the reuse-timings
//      install path, write-then-verifies, bumps the artefact version and
//      hot-swaps the live runtime;
//   3. the post-swap decisions equal a from-scratch in-memory retrain on
//      the same telemetry window (differential: the CSV round trip through
//      the store is lossless);
//   4. snapshots pinned before the swap keep answering (in-flight queries
//      survive), per-reader versions only ever move forward;
//   5. `rollback()` republishes the old version as a NEW version —
//      monotonic, never a rewind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/adsala.h"
#include "core/drift.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/retune.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"

namespace adsala::core {
namespace {

namespace fs = std::filesystem;

TrainOptions pinned_train_options() {
  TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  return opts;
}

/// One deterministic tiny-platform gathering campaign (the "true" traffic).
GatherData true_timings() {
  SimulatedExecutor ex(simarch::MachineModel(simarch::tiny_topology(), 42));
  GatherConfig cfg;
  cfg.n_samples = 40;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  return gather_timings(ex, cfg);
}

/// The same campaign with every runtime curve reversed: its argmin lands on
/// the true curve's WORST thread count, so a model trained on it serves the
/// true traffic as badly as possible — guaranteed drift.
GatherData reversed(const GatherData& data) {
  GatherData bad = data;
  for (auto& rec : bad.records) {
    std::reverse(rec.runtime.begin(), rec.runtime.end());
  }
  return bad;
}

/// Serving traffic -> telemetry: every (shape, threads, true runtime) point
/// becomes one record stamped with the serving snapshot's version.
void log_traffic(const GatherData& data, const AdsalaGemm& runtime,
                 const std::string& path) {
  auto log = TelemetryLog::open(path);
  ASSERT_TRUE(log.ok()) << log.error().message;
  for (const auto& rec : data.records) {
    for (std::size_t i = 0; i < rec.threads.size(); ++i) {
      TelemetryRecord t;
      t.op = rec.op;
      t.elem_bytes = rec.shape.elem_bytes;
      t.kernel = rec.variant;
      t.threads = rec.threads[i];
      t.m = rec.shape.m;
      t.k = rec.shape.k;
      t.n = rec.shape.n;
      t.measured_ns = static_cast<std::uint64_t>(rec.runtime[i] * 1e9);
      t.model_version = runtime.snapshot_version();
      ASSERT_TRUE(log.value().append(t).ok());
    }
  }
  ASSERT_TRUE(log.value().flush().ok());
}

class RetuneLoop : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per process, so concurrent runs never remove each other's stores.
    dir_ = (fs::temp_directory_path() /
            ("adsala_retune_loop_" + std::to_string(::getpid())))
               .string();
    telemetry_ = dir_ + "/telemetry.bin";
    fs::remove_all(dir_);
    fs::create_directories(dir_);

    data_ = true_timings();
    mistrained_ = std::make_unique<AdsalaGemm>(
        train_and_select(reversed(data_), pinned_train_options()));
    mistrained_->save(dir_ + "/model.json", dir_ + "/config.json");
    log_traffic(data_, *mistrained_, telemetry_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  RetuneOptions loop_options() {
    RetuneOptions options;
    options.telemetry_path = telemetry_;
    options.artefact_dir = dir_;
    options.train = pinned_train_options();
    return options;
  }

  std::string dir_;
  std::string telemetry_;
  GatherData data_;
  std::unique_ptr<AdsalaGemm> mistrained_;
};

TEST_F(RetuneLoop, DriftFiresAgainstTheMistrainedModel) {
  auto records = read_telemetry_log(telemetry_);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records.value().size(),
            data_.records.size() * data_.thread_grid.size());

  const auto report =
      detect_drift(records.value(), *mistrained_->snapshot(), {});
  EXPECT_TRUE(report.fired);
  ASSERT_EQ(report.per_op.size(), 1u);
  // Mistraining on reversed curves pushes the model toward the slow end of
  // every curve — regret far beyond the default 10% threshold.
  EXPECT_GT(report.per_op[0].mean_regret, 0.10);
  EXPECT_EQ(report.per_op[0].groups, data_.records.size());

  // The same traffic judged against a model trained on the TRUE curves is
  // healthy: no fire. (The detector separates good from bad models, it does
  // not just fire on everything.)
  AdsalaGemm good(train_and_select(data_, pinned_train_options()));
  EXPECT_FALSE(detect_drift(records.value(), *good.snapshot(), {}).fired);
}

TEST_F(RetuneLoop, RetuneRetrainsSwapsAndMatchesFromScratchTraining) {
  // Pin the pre-swap snapshot: an in-flight query's view must survive.
  const auto pinned = mistrained_->snapshot();
  const std::uint64_t pre_version = mistrained_->snapshot_version();
  const int pre_decision = mistrained_->select_threads(512, 512, 512);

  RetuneOptions options = loop_options();
  options.publish_to = mistrained_.get();
  auto result = retune(options);
  ASSERT_TRUE(result.ok()) << result.error().message;
  const RetuneReport& report = result.value();
  EXPECT_TRUE(report.drift.fired);
  EXPECT_TRUE(report.retrained);
  EXPECT_EQ(report.previous_version, 1u);
  EXPECT_EQ(report.new_version, 2u);
  EXPECT_EQ(report.selected_model, "decision_tree");
  EXPECT_EQ(artefact_version(dir_), 2u);
  EXPECT_EQ(retained_artefact_versions(dir_),
            (std::vector<std::uint64_t>{1, 2}));

  // Hot-swapped: the live runtime moved to a new generation...
  EXPECT_GT(mistrained_->snapshot_version(), pre_version);
  // ...while the pinned snapshot still answers exactly as before.
  EXPECT_EQ(pinned->version, pre_version);
  EXPECT_EQ(pinned->select_threads(blas::OpKind::kGemm, 512, 512, 512, 4),
            pre_decision);

  // Differential: the swapped-in decisions equal a from-scratch in-memory
  // retrain on the same telemetry window — the telemetry -> CSV -> trainer
  // round trip through the store lost nothing.
  auto records = read_telemetry_log(telemetry_);
  ASSERT_TRUE(records.ok());
  std::span<const TelemetryRecord> window(records.value());
  if (options.drift.window > 0 && window.size() > options.drift.window) {
    window = window.subspan(window.size() - options.drift.window);
  }
  GatherData from_telemetry = telemetry_to_gather_data(window);
  from_telemetry.platform = "tiny";
  AdsalaGemm scratch(
      train_and_select(from_telemetry, pinned_train_options()));

  auto swapped = AdsalaGemm::try_load(dir_ + "/model.json",
                                      dir_ + "/config.json");
  ASSERT_TRUE(swapped.ok()) << swapped.error().message;
  EXPECT_EQ(swapped.value().platform(), "tiny");
  for (const auto& rec : data_.records) {
    const long m = rec.shape.m, k = rec.shape.k, n = rec.shape.n;
    EXPECT_EQ(mistrained_->select_threads(m, k, n),
              scratch.select_threads(m, k, n))
        << "live runtime diverges at " << m << "x" << k << "x" << n;
    EXPECT_EQ(swapped.value().select_threads(m, k, n),
              scratch.select_threads(m, k, n))
        << "stored artefacts diverge at " << m << "x" << k << "x" << n;
  }

  // The retrained model should also serve the true traffic well: replaying
  // the same telemetry against it stays under the drift threshold.
  EXPECT_FALSE(
      detect_drift(records.value(), *mistrained_->snapshot(), {}).fired);
}

TEST_F(RetuneLoop, HealthyModelDoesNotRetrainUnlessForced) {
  // First close the loop so the store serves a model fit to the traffic.
  RetuneOptions options = loop_options();
  ASSERT_TRUE(retune(options).ok());
  ASSERT_EQ(artefact_version(dir_), 2u);

  // Healthy now: another retune pass is a no-op...
  auto second = retune(options);
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_FALSE(second.value().drift.fired);
  EXPECT_FALSE(second.value().retrained);
  EXPECT_EQ(second.value().new_version, 2u);
  EXPECT_EQ(artefact_version(dir_), 2u);

  // ...unless forced, which must still bump the version monotonically.
  options.force = true;
  auto forced = retune(options);
  ASSERT_TRUE(forced.ok()) << forced.error().message;
  EXPECT_TRUE(forced.value().retrained);
  EXPECT_EQ(forced.value().new_version, 3u);
}

TEST_F(RetuneLoop, TooLittleTelemetryIsAPreconditionFailure) {
  RetuneOptions options = loop_options();
  options.telemetry_path = dir_ + "/empty.bin";
  { ASSERT_TRUE(TelemetryLog::open(options.telemetry_path).ok()); }
  auto result = retune(options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kPreconditionFailed);
  // Nothing happened to the store.
  EXPECT_EQ(artefact_version(dir_), 0u);
}

TEST_F(RetuneLoop, RollbackRepublishesAsANewVersionNeverARewind) {
  RetuneOptions options = loop_options();
  options.publish_to = mistrained_.get();
  ASSERT_TRUE(retune(options).ok());
  const int retuned_decision = mistrained_->select_threads(512, 512, 512);

  // Roll back to the original (mistrained) artefacts: content of version 1,
  // but published as version 3 — the counter never rewinds.
  auto rolled = rollback(dir_, 1, "", mistrained_.get());
  ASSERT_TRUE(rolled.ok()) << rolled.error().message;
  EXPECT_EQ(rolled.value(), 3u);
  EXPECT_EQ(artefact_version(dir_), 3u);
  EXPECT_EQ(retained_artefact_versions(dir_),
            (std::vector<std::uint64_t>{1, 2, 3}));

  // The live runtime now answers like the original version-1 model.
  auto original = AdsalaGemm::try_load(dir_ + "/versions/1/model.json",
                                       dir_ + "/versions/1/config.json");
  ASSERT_TRUE(original.ok());
  bool any_difference = false;
  for (const auto& rec : data_.records) {
    const long m = rec.shape.m, k = rec.shape.k, n = rec.shape.n;
    EXPECT_EQ(mistrained_->select_threads(m, k, n),
              original.value().select_threads(m, k, n));
    if (original.value().select_threads(m, k, n) != retuned_decision) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference)
      << "rollback is only observable if v1 and v2 ever disagree";

  // Rolling back to a never-retained version refuses with the documented
  // precondition failure and leaves the store untouched.
  auto missing = rollback(dir_, 99);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kPreconditionFailed);
  EXPECT_EQ(artefact_version(dir_), 3u);
}

TEST_F(RetuneLoop, ReadersSeeMonotonicVersionsAcrossSwapAndRollback) {
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([this, &stop, &violation] {
      std::uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto decision =
            mistrained_->query(blas::OpKind::kGemm, 512, 512, 512);
        if (decision.version < last || decision.threads < 1) {
          violation.store(true, std::memory_order_release);
        }
        last = decision.version;
      }
    });
  }

  RetuneOptions options = loop_options();
  options.publish_to = mistrained_.get();
  ASSERT_TRUE(retune(options).ok());
  ASSERT_TRUE(rollback(dir_, 1, "", mistrained_.get()).ok());
  ASSERT_TRUE(rollback(dir_, 2, "", mistrained_.get()).ok());

  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  EXPECT_FALSE(violation.load());
  // 1 initial + 1 retune swap + 2 rollback swaps.
  EXPECT_EQ(mistrained_->snapshot_version(), 4u);
}

}  // namespace
}  // namespace adsala::core
