// Crash-recovery battery (ISSUE 10): proves the store and the shm region
// come back from every torn state the crash-safe publication protocol can
// leave behind.
//
// Three layers:
//   1. recover_store() over hand-crafted debris — tmp files, incomplete
//      retained versions, a mirror lagging the retained history — each a
//      state some SIGKILL window produces, built directly so the assertions
//      are exact.
//   2. Fork-based real crashes: a child arms a promote-crash-* /
//      shm-crash-* failpoint, runs the real promote/publish, and dies by
//      SIGKILL at the armed boundary; the parent then recovers and checks
//      the landed version (the same protocol tools/crash_harness.cpp loops
//      under concurrency — here each window gets its own assertion).
//   3. Writer-liveness plumbing: process_start_nonce / writer_alive against
//      this process, a reaped child, and a deliberately wrong nonce.
//
// The corpus is one frozen good install (the test_faults.cpp pattern): real
// artefacts, so try_load exercises the full validation ladder.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/atomic_file.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/retune.h"
#include "core/shm_store.h"
#include "core/trainer.h"

namespace adsala::core {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One frozen good install shared by the suite; each test copies it into a
/// scratch store and tears that copy up.
class CrashRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process, so concurrent runs never remove each other's stores.
    root_ = new std::string("/tmp/adsala_test_crash_recovery_" +
                            std::to_string(::getpid()));
    fs::remove_all(*root_);
    fs::create_directories(*root_);
    SimulatedExecutor ex(simarch::MachineModel(simarch::tiny_topology(), 42));
    GatherConfig cfg;
    cfg.n_samples = 40;
    cfg.iterations = 3;
    cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
    cfg.domain.dim_max = 8000;
    cfg.domain.seed = 7;
    TrainOptions opts;
    opts.candidates = {"decision_tree"};
    opts.tune = false;
    AdsalaGemm runtime(train_and_select(gather_timings(ex, cfg), opts));
    runtime.save(*root_ + "/model.json", *root_ + "/config.json");
    model_ = new std::string(slurp(*root_ + "/model.json"));
    config_ = new std::string(slurp(*root_ + "/config.json"));
  }
  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete root_;
    delete model_;
    delete config_;
    root_ = nullptr;
    model_ = nullptr;
    config_ = nullptr;
  }

  /// A fresh store directory seeded with the good mirror (unversioned).
  static std::string fresh_store(const std::string& tag) {
    const std::string dir = *root_ + "/" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    spit(dir + "/model.json", *model_);
    spit(dir + "/config.json", *config_);
    return dir;
  }

  /// Same, but promoted to version 1 through the real protocol.
  static std::string versioned_store(const std::string& tag) {
    const std::string dir = fresh_store(tag);
    EXPECT_TRUE(promote_artefacts(dir, *model_, *config_, 1).ok());
    return dir;
  }

  /// Forks a child that arms `fp` and runs `work`; asserts it died by
  /// SIGKILL (i.e. the armed crash_if fired, not a clean return).
  template <typename Fn>
  static void crash_child(const char* fp, Fn work) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      failpoint::arm(fp);
      work();
      ::_exit(86);  // survived: the failpoint never fired
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << fp << ": child status " << status;
  }

  static std::string* root_;
  static std::string* model_;
  static std::string* config_;
};

std::string* CrashRecovery::root_ = nullptr;
std::string* CrashRecovery::model_ = nullptr;
std::string* CrashRecovery::config_ = nullptr;

// ------------------------------------------------------ recover_store units

TEST_F(CrashRecovery, UnversionedStoreIsANoOp) {
  const std::string dir = fresh_store("noop");
  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 0u);
  EXPECT_FALSE(rec.value().repaired);
  EXPECT_EQ(rec.value().debris_removed, 0u);
}

TEST_F(CrashRecovery, MissingDirectoryIsNotFound) {
  auto rec = recover_store(*root_ + "/no_such_store");
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.error().code, ErrorCode::kNotFound);
}

TEST_F(CrashRecovery, TmpDebrisAndStagingAreCollected) {
  const std::string dir = versioned_store("debris");
  spit(dir + "/model.json.tmp.12345", "half a write");
  spit(dir + "/VERSION.tmp.999", "2");
  fs::create_directories(dir + "/staging");
  spit(dir + "/staging/model.json", "orphaned");
  fs::create_directories(dir + "/versions/2.tmp.777");
  spit(dir + "/versions/2.tmp.777/model.json", "unrenamed retained copy");

  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 1u);
  EXPECT_GE(rec.value().debris_removed, 4u);
  EXPECT_FALSE(fs::exists(dir + "/model.json.tmp.12345"));
  EXPECT_FALSE(fs::exists(dir + "/VERSION.tmp.999"));
  EXPECT_FALSE(fs::exists(dir + "/staging"));
  EXPECT_FALSE(fs::exists(dir + "/versions/2.tmp.777"));
  EXPECT_TRUE(fs::exists(dir + "/versions/1/model.json"));
}

TEST_F(CrashRecovery, IncompleteRetainedVersionIsDropped) {
  const std::string dir = versioned_store("incomplete");
  // versions/2 exists but lost its config.json — a state only a torn rename
  // sequence could leave; it must not be adopted as "highest".
  fs::create_directories(dir + "/versions/2");
  spit(dir + "/versions/2/model.json", *model_);

  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 1u);
  EXPECT_FALSE(fs::exists(dir + "/versions/2"));
  EXPECT_EQ(slurp(dir + "/VERSION"), "1\n");
}

TEST_F(CrashRecovery, MirrorRollsForwardToHighestRetained) {
  const std::string dir = versioned_store("forward");
  // Version 2 fully retained, but the crash hit before the mirror and
  // VERSION moved: recovery must finish the promote, never rewind it.
  const std::string v2_model = *model_ + "\n";
  const std::string v2_config = *config_ + "\n";
  fs::create_directories(dir + "/versions/2");
  spit(dir + "/versions/2/model.json", v2_model);
  spit(dir + "/versions/2/config.json", v2_config);

  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 2u);
  EXPECT_TRUE(rec.value().repaired);
  EXPECT_EQ(slurp(dir + "/model.json"), v2_model);
  EXPECT_EQ(slurp(dir + "/config.json"), v2_config);
  EXPECT_EQ(artefact_version(dir), 2u);
}

TEST_F(CrashRecovery, TornMirrorIsRepairedFromRetainedCopy) {
  const std::string dir = versioned_store("torn_mirror");
  // VERSION and retention agree on 1, but the mirror's bytes drifted (the
  // mid-promote window: one mirror file replaced, the other not).
  spit(dir + "/model.json", *model_ + "\n\n\n");

  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 1u);
  EXPECT_TRUE(rec.value().repaired);
  EXPECT_EQ(slurp(dir + "/model.json"), *model_);
  auto loaded = AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
  EXPECT_TRUE(loaded.ok()) << loaded.error().message;
}

TEST_F(CrashRecovery, VersionAheadOfRetentionIsReRetainedFromMirror) {
  const std::string dir = versioned_store("ahead");
  // VERSION says 3 but only version 1 is retained and the mirror is intact:
  // the mirror is adopted as version 3's content (VERSION never rewinds).
  spit(dir + "/VERSION", "3\n");

  auto rec = recover_store(dir);
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  EXPECT_EQ(rec.value().version, 3u);
  EXPECT_TRUE(fs::exists(dir + "/versions/3/model.json"));
  EXPECT_TRUE(fs::exists(dir + "/versions/3/config.json"));
  EXPECT_EQ(artefact_version(dir), 3u);
}

TEST_F(CrashRecovery, AtomicWriteLeavesNoTornFile) {
  const std::string dir = fresh_store("atomic");
  const std::string path = dir + "/blob";
  ASSERT_TRUE(atomic_write_file(path, "first").ok());
  ASSERT_TRUE(atomic_write_file(path, "second").ok());
  EXPECT_EQ(slurp(path), "second");
  EXPECT_TRUE(is_tmp_debris_name("model.json.tmp.4242"));
  EXPECT_FALSE(is_tmp_debris_name("model.json"));
  EXPECT_FALSE(is_tmp_debris_name("model.json.tmp.abc"));
}

// ------------------------------------------------- fork-based real crashes

TEST_F(CrashRecovery, CrashBeforeRetainRecoversOldVersion) {
  for (const char* fp :
       {"promote-crash-after-stage", "promote-crash-mid-retain"}) {
    const std::string dir = versioned_store(std::string("pre_") + fp);
    crash_child(fp, [&] {
      (void)promote_artefacts(dir, *model_ + "\n", *config_ + "\n", 2);
    });
    auto rec = recover_store(dir);
    ASSERT_TRUE(rec.ok()) << fp << ": " << rec.error().message;
    EXPECT_EQ(rec.value().version, 1u) << fp;
    EXPECT_EQ(slurp(dir + "/model.json"), *model_) << fp;
    auto loaded =
        AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
    EXPECT_TRUE(loaded.ok()) << fp << ": " << loaded.error().message;
  }
}

TEST_F(CrashRecovery, CrashAfterRetainRollsForwardToNewVersion) {
  for (const char* fp :
       {"promote-crash-after-retain", "promote-crash-mid-promote",
        "promote-crash-after-promote", "promote-crash-after-version"}) {
    const std::string dir = versioned_store(std::string("post_") + fp);
    const std::string new_model = *model_ + "\n";
    const std::string new_config = *config_ + "\n";
    crash_child(fp, [&] {
      (void)promote_artefacts(dir, new_model, new_config, 2);
    });
    auto rec = recover_store(dir);
    ASSERT_TRUE(rec.ok()) << fp << ": " << rec.error().message;
    EXPECT_EQ(rec.value().version, 2u) << fp;
    EXPECT_EQ(slurp(dir + "/model.json"), new_model) << fp;
    EXPECT_EQ(slurp(dir + "/config.json"), new_config) << fp;
    auto loaded =
        AdsalaGemm::try_load(dir + "/model.json", dir + "/config.json");
    EXPECT_TRUE(loaded.ok()) << fp << ": " << loaded.error().message;
  }
}

TEST_F(CrashRecovery, RecoveryIsIdempotent) {
  const std::string dir = versioned_store("idempotent");
  crash_child("promote-crash-mid-promote", [&] {
    (void)promote_artefacts(dir, *model_ + "\n", *config_ + "\n", 2);
  });
  auto first = recover_store(dir);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().version, 2u);
  auto second = recover_store(dir);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().version, 2u);
  EXPECT_FALSE(second.value().repaired) << "second pass must find no work";
}

// --------------------------------------------------- shm crash + self-heal

TEST_F(CrashRecovery, RegionHealsToPreviousPayloadAfterWriterDeath) {
  for (const char* fp : {"shm-crash-mid-publish", "shm-crash-before-commit"}) {
    const std::string region = *root_ + std::string("/region_") + fp;
    ASSERT_TRUE(publish_shm_region(region, *model_, *config_).ok());

    crash_child(fp, [&] {
      (void)publish_shm_region(region, *model_ + "\n", *config_ + "\n");
    });

    // The dead writer left the generation odd; one read detects the corpse,
    // heals, and serves the previous complete payload.
    auto healed = read_shm_region(region);
    ASSERT_TRUE(healed.ok()) << fp << ": " << healed.error().message;
    EXPECT_EQ(healed.value().model_json, *model_) << fp;
    EXPECT_EQ(healed.value().config_json, *config_) << fp;
    EXPECT_EQ(healed.value().generation % 2, 0u) << fp;

    // And the healed region is fully writable again.
    ASSERT_TRUE(
        publish_shm_region(region, *model_ + "\n", *config_ + "\n").ok())
        << fp;
    auto fresh = read_shm_region(region);
    ASSERT_TRUE(fresh.ok()) << fp;
    EXPECT_EQ(fresh.value().model_json, *model_ + "\n") << fp;
  }
}

TEST_F(CrashRecovery, FirstPublishCrashIsUnhealable) {
  // A writer that died during the very first publish left no previous
  // payload: the honest answer is kUnavailable, not an invented artefact.
  const std::string region = *root_ + "/region_first_crash";
  crash_child("shm-crash-mid-publish",
              [&] { (void)publish_shm_region(region, *model_, *config_); });
  auto result = read_shm_region(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  // A healthy publisher repairs it by simply publishing (the flock is free;
  // the dead writer's odd generation is overwritten by the new protocol).
  ASSERT_TRUE(publish_shm_region(region, *model_, *config_).ok());
  auto fresh = read_shm_region(region);
  ASSERT_TRUE(fresh.ok()) << fresh.error().message;
  EXPECT_EQ(fresh.value().model_json, *model_);
}

TEST_F(CrashRecovery, AttachHealsTransparently) {
  // The serving entry point (try_attach) rides the same heal path: after a
  // writer death mid-publish, attach answers from the previous payload.
  const std::string region = *root_ + "/region_attach_heal";
  ASSERT_TRUE(publish_shm_region(region, *model_, *config_).ok());
  crash_child("shm-crash-before-commit", [&] {
    (void)publish_shm_region(region, *model_ + "\n", *config_ + "\n");
  });
  auto attached = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(attached.ok()) << attached.error().message;
  EXPECT_EQ(attached.value().serving_mode(), ServingMode::kModelServed);
}

// ------------------------------------------------- writer-liveness plumbing

TEST_F(CrashRecovery, StartNonceIdentifiesThisProcess) {
  const std::uint64_t nonce = process_start_nonce(::getpid());
  EXPECT_NE(nonce, 0u) << "/proc/self/stat should be readable";
  EXPECT_TRUE(writer_alive(::getpid(), nonce));
  EXPECT_EQ(process_start_nonce(::getpid()), nonce) << "nonce is stable";
}

TEST_F(CrashRecovery, WrongNonceMeansRecycledPid) {
  const std::uint64_t nonce = process_start_nonce(::getpid());
  ASSERT_NE(nonce, 0u);
  EXPECT_FALSE(writer_alive(::getpid(), nonce + 1))
      << "a mismatched start nonce is a different process incarnation";
}

TEST_F(CrashRecovery, ReapedChildIsDead) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(0);
  const std::uint64_t nonce = process_start_nonce(pid);  // may be 0 if raced
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  // After the reap the pid is gone (nothing else in this test forks, so it
  // cannot have been recycled yet).
  EXPECT_FALSE(writer_alive(pid, nonce));
}

TEST_F(CrashRecovery, LivenessGuardsAgainstHealingALiveWriter) {
  // An odd generation stamped by a LIVE process must stay kUnavailable —
  // healing under a live writer would fork the region's history.
  const std::string region = *root_ + "/region_live_writer";
  ASSERT_TRUE(publish_shm_region(region, *model_, *config_).ok());
  ASSERT_TRUE(publish_shm_region(region, *model_, *config_).ok());
  // Poke the generation odd by hand; writer_pid still names this (live)
  // process from the last publish.
  std::uint64_t gen = 0;
  {
    std::ifstream in(region, std::ios::binary);
    in.seekg(8);
    in.read(reinterpret_cast<char*>(&gen), sizeof(gen));
  }
  gen |= 1;
  {
    std::fstream f(region, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&gen), sizeof(gen));
  }
  auto result = read_shm_region(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(result.error().message.find("mid-publish"), std::string::npos)
      << result.error().message;
}

}  // namespace
}  // namespace adsala::core
