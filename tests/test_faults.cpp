// Fault-injection suite for the fail-safe serving layer (ISSUE 6).
//
// The contract under test: NO artefact corruption, allocation failure, or
// worker exception may crash the process. Bad artefacts map to the error
// taxonomy (common/status.h), serving degrades down the ladder
// model -> GEMM proxy -> analytic heuristic, and exceptions inside parallel
// regions rethrow on the calling thread. Every test in this binary doubles
// as a no-crash check — a std::terminate or abort anywhere fails the run.
//
// Corrupted artefacts are generated from one frozen good install (shared
// across the suite) by targeted JSON surgery, so each fixture isolates
// exactly one defect.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/shm_store.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"
#include "ml/registry.h"
#include "preprocess/features.h"

namespace adsala::core {
namespace {

// ------------------------------------------------------------ error taxonomy

TEST(Status, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_STREQ(error_code_name(ErrorCode::kNotFound), "not_found");
  EXPECT_STREQ(error_code_name(ErrorCode::kParseError), "parse_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kValidationError),
               "validation_error");
  EXPECT_STREQ(error_code_name(ErrorCode::kResourceExhausted),
               "resource_exhausted");
  EXPECT_STREQ(error_code_name(ErrorCode::kInternal), "internal");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnavailable), "unavailable");
  EXPECT_STREQ(error_code_name(ErrorCode::kPreconditionFailed),
               "precondition_failed");
}

TEST(Status, ExitCodesAreDistinctPerFailureClass) {
  EXPECT_EQ(exit_code_for(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code_for(ErrorCode::kNotFound), 3);
  EXPECT_EQ(exit_code_for(ErrorCode::kParseError), 4);
  EXPECT_EQ(exit_code_for(ErrorCode::kValidationError), 5);
  EXPECT_EQ(exit_code_for(ErrorCode::kResourceExhausted), 6);
  EXPECT_EQ(exit_code_for(ErrorCode::kInternal), 1);
  EXPECT_EQ(exit_code_for(ErrorCode::kUnavailable), 7);
  // 8 is retired (a frame error of a removed socket protocol), not reused.
  EXPECT_EQ(exit_code_for(ErrorCode::kPreconditionFailed), 9);
}

TEST(Status, ExpectedCarriesValueOrError) {
  Expected<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(Expected<int>(41).value_or(0), 41);

  Expected<int> bad(Error{ErrorCode::kParseError, "boom"});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kParseError);
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(std::move(bad).value_or(-1), -1);
}

// --------------------------------------------------------- failpoint registry

TEST(Failpoint, ArmDisarmAndScoped) {
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  failpoint::arm("arena-oom");
  EXPECT_TRUE(failpoint::triggered("arena-oom"));
  failpoint::disarm("arena-oom");
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  {
    failpoint::Scoped fp("worker-throw");
    EXPECT_TRUE(failpoint::triggered("worker-throw"));
  }
  EXPECT_FALSE(failpoint::triggered("worker-throw"));
}

TEST(Failpoint, ReloadFromEnvParsesCommaList) {
  ::setenv("ADSALA_FAILPOINT", "json-truncate,model-nan-weight", 1);
  failpoint::reload_from_env();
  EXPECT_TRUE(failpoint::triggered("json-truncate"));
  EXPECT_TRUE(failpoint::triggered("model-nan-weight"));
  EXPECT_FALSE(failpoint::triggered("arena-oom"));
  ::unsetenv("ADSALA_FAILPOINT");
  failpoint::disarm_all();
  EXPECT_FALSE(failpoint::triggered("json-truncate"));
  EXPECT_FALSE(failpoint::triggered("model-nan-weight"));
}

// ----------------------------------------------------- corrupted-artefact kit

/// One frozen good install shared by the whole suite; each corruption test
/// copies it and applies one targeted defect.
class ArtefactCorpus : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per process: two test_faults runs side by side (two build trees, a
    // sanitizer leg beside a ctest loop) must not wipe each other's fixture.
    dir_ = new std::string("/tmp/adsala_test_faults_" +
                           std::to_string(::getpid()));
    std::filesystem::remove_all(*dir_);
    std::filesystem::create_directories(*dir_);
    TrainOptions opts;
    opts.candidates = {"decision_tree"};
    opts.tune = false;
    AdsalaGemm runtime(train_and_select(corpus_timings(), opts));
    runtime.save(model_path(), config_path());
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  /// The simulated gather the corpus install is trained on.
  static GatherData corpus_timings() {
    SimulatedExecutor ex(
        simarch::MachineModel(simarch::tiny_topology(), 42));
    GatherConfig cfg;
    cfg.n_samples = 40;
    cfg.iterations = 3;
    cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
    cfg.domain.dim_max = 8000;
    cfg.domain.seed = 7;
    return gather_timings(ex, cfg);
  }

  static std::string model_path() { return *dir_ + "/model.json"; }
  static std::string config_path() { return *dir_ + "/config.json"; }

  /// Copies the good pair into a scratch dir and returns (model, config)
  /// paths there, ready for surgery.
  static std::pair<std::string, std::string> scratch_copy(
      const std::string& tag) {
    const std::string dir = *dir_ + "/" + tag;
    std::filesystem::create_directories(dir);
    std::filesystem::copy_file(
        model_path(), dir + "/model.json",
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(
        config_path(), dir + "/config.json",
        std::filesystem::copy_options::overwrite_existing);
    return {dir + "/model.json", dir + "/config.json"};
  }

  /// Drops the trailing half of a file's bytes (a torn write).
  static void truncate_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  /// Loads a JSON artefact, applies `mutate`, writes it back.
  template <typename Fn>
  static void rewrite_json(const std::string& path, Fn mutate) {
    Json doc = read_json_file(path);
    mutate(doc);
    write_json_file(path, doc);
  }

  static ErrorCode load_error(const std::string& model,
                              const std::string& config) {
    auto result = AdsalaGemm::try_load(model, config);
    EXPECT_FALSE(result.ok());
    return result.ok() ? ErrorCode::kOk : result.error().code;
  }

  static std::string* dir_;
};

std::string* ArtefactCorpus::dir_ = nullptr;

TEST_F(ArtefactCorpus, GoodArtefactsLoadAndServeModel) {
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(result.ok()) << result.error().message;
  AdsalaGemm runtime = std::move(result).value();
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kModelServed);
  const int p = runtime.select_threads(256, 256, 256);
  EXPECT_GE(p, 1);
  EXPECT_LE(p, runtime.max_threads());
}

TEST_F(ArtefactCorpus, SaveStampsFormatMarkers) {
  const Json model = read_json_file(model_path());
  const Json config = read_json_file(config_path());
  EXPECT_EQ(model.at("format").as_string(), "adsala/model/v1");
  EXPECT_EQ(config.at("format").as_string(), "adsala/config/v1");
}

TEST_F(ArtefactCorpus, MissingFilesReturnNotFoundWithPath) {
  auto result = AdsalaGemm::try_load("/tmp/adsala_no_such_dir/model.json",
                                     "/tmp/adsala_no_such_dir/config.json");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
  EXPECT_NE(result.error().message.find("/tmp/adsala_no_such_dir"),
            std::string::npos)
      << "error must name the offending path: " << result.error().message;
}

TEST_F(ArtefactCorpus, TruncatedModelReturnsParseErrorWithPath) {
  auto [model, config] = scratch_copy("truncated");
  truncate_file(model);
  auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
  EXPECT_NE(result.error().message.find(model), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, EmptyThreadGridRejected) {
  auto [model, config] = scratch_copy("empty_grid");
  rewrite_json(config,
               [](Json& doc) { doc["thread_grid"] = Json(JsonArray{}); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnsortedThreadGridRejected) {
  auto [model, config] = scratch_copy("unsorted_grid");
  rewrite_json(config, [](Json& doc) {
    doc["thread_grid"] = Json(JsonArray{Json(4), Json(2), Json(8)});
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NonPositiveThreadGridEntryRejected) {
  auto [model, config] = scratch_copy("zero_grid");
  rewrite_json(config, [](Json& doc) {
    doc["thread_grid"] = Json(JsonArray{Json(0), Json(2)});
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NonPositiveMaxThreadsRejected) {
  auto [model, config] = scratch_copy("bad_max");
  rewrite_json(config, [](Json& doc) { doc["max_threads"] = Json(0); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, ThreadGridEntryBeyondIntRangeRejected) {
  auto [model, config] = scratch_copy("huge_grid");
  rewrite_json(config, [](Json& doc) {
    doc["thread_grid"] = Json(JsonArray{Json(1), Json(1e12)});
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, MaxThreadsBeyondIntRangeRejected) {
  auto [model, config] = scratch_copy("huge_max");
  rewrite_json(config, [](Json& doc) { doc["max_threads"] = Json(1e300); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, EditedChildIndexRejected) {
  // The root's left child pointed back at the root: a walk that never
  // ends. The decoder refuses it before any query can follow it.
  auto [model, config] = scratch_copy("edited_child");
  rewrite_json(model,
               [](Json& doc) { doc["left"].as_array()[0] = Json(0); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, NullModelWeightRejected) {
  // A NaN weight serialises as JSON null (the writer has no NaN literal);
  // the finite-weight walk must reject it rather than load NaNs.
  auto [model, config] = scratch_copy("nan_weight");
  rewrite_json(model, [](Json& doc) {
    bool planted = false;
    for (auto& [key, value] : doc.as_object()) {
      (void)key;
      if (planted || !value.is_array() || value.as_array().empty()) continue;
      for (auto& v : value.as_array()) {
        if (v.is_number()) {
          v = Json(nullptr);
          planted = true;
          break;
        }
      }
    }
    ASSERT_TRUE(planted) << "model blob has no numeric array to corrupt";
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

/// Rewrites a config's fitted pipeline onto the input columns `names`:
/// per-column arrays resized to match, categorical = every column past the
/// numeric 17, kept indices clipped to the new width — a self-consistent
/// pipeline of another schema.
void set_pipeline_columns(Json& doc, const std::vector<std::string>& names) {
  Json& pipe = doc["pipeline"];
  JsonArray name_array, categorical, keep;
  for (std::size_t j = 0; j < names.size(); ++j) {
    name_array.emplace_back(names[j]);
    if (j >= preprocess::kNumFeatures) categorical.emplace_back(j);
  }
  for (const auto& v : pipe["keep"].as_array()) {
    if (static_cast<std::size_t>(v.as_number()) < names.size()) {
      keep.push_back(v);
    }
  }
  pipe["feature_names"] = Json(std::move(name_array));
  pipe["categorical"] = Json(std::move(categorical));
  pipe["keep"] = Json(std::move(keep));
  for (const char* key : {"lambdas", "means", "stds"}) {
    std::vector<double> values = pipe[key].to_doubles();
    values.resize(names.size(), std::string(key) == "means" ? 0.0 : 1.0);
    pipe[key] = Json::from_doubles(values);
  }
}

TEST_F(ArtefactCorpus, UnknownSchemaWidthRejected) {
  // The widths earlier builds of this library wrote — numeric-only 17, then
  // op-aware tiers with a 2-wide kernel block over 2, 4 and 5 op columns —
  // and one column past the schema. Each is refused, naming the config.
  const std::vector<std::string>& base = preprocess::feature_names();
  auto with = [&](std::vector<std::string> tail) {
    std::vector<std::string> names = base;
    names.insert(names.end(), tail.begin(), tail.end());
    return names;
  };
  std::vector<std::string> wide = preprocess::op_aware_feature_names();
  wide.push_back("op_bogus");
  const std::vector<std::vector<std::string>> schemas = {
      base,
      with({"op_gemm", "op_syrk", "kernel_generic", "kernel_avx2"}),
      with({"op_gemm", "op_syrk", "op_trsm", "op_symm", "kernel_generic",
            "kernel_avx2"}),
      with({"op_gemm", "op_syrk", "op_trsm", "op_symm", "op_trmm",
            "kernel_generic", "kernel_avx2"}),
      wide};
  std::vector<std::size_t> widths;
  for (const auto& names : schemas) {
    widths.push_back(names.size());
    auto [model, config] =
        scratch_copy("width_" + std::to_string(names.size()));
    rewrite_json(config, [&](Json& doc) { set_pipeline_columns(doc, names); });
    const auto result = AdsalaGemm::try_load(model, config);
    ASSERT_FALSE(result.ok()) << "width " << names.size();
    EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
    EXPECT_NE(result.error().message.find(config), std::string::npos)
        << result.error().message;
    EXPECT_NE(result.error().message.find("schema"), std::string::npos)
        << result.error().message;
  }
  EXPECT_EQ(widths, (std::vector<std::size_t>{17, 21, 23, 24, 26}));
}

TEST_F(ArtefactCorpus, RenamedColumnAtFullWidthRejected) {
  // 25 columns, but not the schema's names: the width alone proves nothing.
  auto [model, config] = scratch_copy("renamed_column");
  std::vector<std::string> names = preprocess::op_aware_feature_names();
  std::swap(names[preprocess::kNumFeatures], names.back());
  rewrite_json(config, [&](Json& doc) { set_pipeline_columns(doc, names); });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find(config), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, MissingFormatStampsRejected) {
  // Every artefact this library writes is stamped; an unstamped file is not
  // one of them, whichever of the pair lacks the stamp.
  for (const bool strip_model : {true, false}) {
    auto [model, config] =
        scratch_copy(strip_model ? "no_model_stamp" : "no_config_stamp");
    const std::string& path = strip_model ? model : config;
    rewrite_json(path, [](Json& doc) { doc.as_object().erase("format"); });
    const auto result = AdsalaGemm::try_load(model, config);
    ASSERT_FALSE(result.ok()) << path;
    EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
    EXPECT_NE(result.error().message.find(path), std::string::npos)
        << result.error().message;
  }
}

TEST_F(ArtefactCorpus, PipelineWithoutCategoricalKeyRejected) {
  auto [model, config] = scratch_copy("no_categorical");
  rewrite_json(config, [](Json& doc) {
    doc["pipeline"].as_object().erase("categorical");
  });
  const auto result = AdsalaGemm::try_load(model, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find(config), std::string::npos)
      << result.error().message;
}

TEST_F(ArtefactCorpus, InconsistentPipelineArraysRejected) {
  // A kept index past the input width would make transform_row read out of
  // bounds; the loader refuses the pipeline instead.
  auto [model, config] = scratch_copy("keep_out_of_range");
  rewrite_json(config, [](Json& doc) {
    doc["pipeline"]["keep"].as_array().emplace_back(
        preprocess::kNumOpAwareFeatures);
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnknownFormatStampRejected) {
  auto [model, config] = scratch_copy("bad_stamp");
  rewrite_json(config,
               [](Json& doc) { doc["format"] = Json("adsala/config/v999"); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, UnknownModelNameRejected) {
  auto [model, config] = scratch_copy("bad_model_name");
  rewrite_json(model,
               [](Json& doc) { doc["model"] = Json("quantum_forest"); });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, MissingConfigFieldRejected) {
  auto [model, config] = scratch_copy("no_grid");
  rewrite_json(config, [](Json& doc) {
    JsonObject& obj = doc.as_object();
    obj.erase("thread_grid");
  });
  EXPECT_EQ(load_error(model, config), ErrorCode::kValidationError);
}

TEST_F(ArtefactCorpus, ThrowingConstructorReportsTryLoadMessage) {
  auto [model, config] = scratch_copy("ctor_throw");
  truncate_file(config);
  try {
    AdsalaGemm runtime(model, config);
    FAIL() << "constructor must throw on a torn config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(config), std::string::npos);
  }
}

// -------------------------------------------------- model-structure fuzz

/// Counts the decisions of the 148-query `adsala_cli predict` set (36 GEMM
/// shapes, 28 shapes per other op) that are not a thread count on the grid.
int off_grid_answers(const AdsalaGemm& rt) {
  const auto& grid = rt.thread_grid();
  int off = 0;
  const auto check = [&](int p) {
    off += std::find(grid.begin(), grid.end(), p) == grid.end();
  };
  for (long m : {16L, 200L, 1024L, 8000L}) {
    for (long k : {64L, 517L, 3000L}) {
      for (long n : {16L, 517L, 8000L}) check(rt.select_threads(m, k, n));
    }
  }
  for (const blas::OpKind op : blas::all_ops()) {
    if (op == blas::OpKind::kGemm) continue;
    for (long x : {16L, 64L, 200L, 517L, 1024L, 3000L, 8000L}) {
      for (long y : {16L, 200L, 1024L, 8000L}) {
        check(rt.select_threads(op, x, y));
      }
    }
  }
  return off;
}

/// Seeded mutational fuzz of the tree models' structure, the part of a
/// model file the finite-weight walk cannot judge. Each tree model is
/// fitted on the corpus install's preprocessed gather; every case edits
/// 1-3 child indices, feature indices or per-node array lengths of its
/// saved blob and loads it beside the corpus config. A case must fail with
/// validation_error, or load and answer all 148 queries with a thread
/// count on the grid: never crash, hang or read out of bounds.
TEST_F(ArtefactCorpus, MutatedTreeStructureLoadsOrFailsValidation) {
  auto good = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(good.ok()) << good.error().message;
  const preprocess::Pipeline& pipe = good.value().snapshot()->pipeline;
  const int width = static_cast<int>(pipe.kept_features().size());
  const ml::Dataset raw = corpus_timings().to_dataset();
  std::vector<std::string> kept;
  for (std::size_t j : pipe.kept_features()) {
    kept.push_back(raw.feature_names()[j]);
  }
  ml::Dataset train(kept);
  for (std::size_t i = 0; i < raw.size(); ++i) {
    train.add_row(pipe.transform_row(raw.row(i)),
                  pipe.transform_label(raw.label(i)));
  }
  const Json stamp = read_json_file(model_path()).at("format");
  const std::string path = *dir_ + "/fuzz_model.json";

  const std::pair<const char*, ml::Params> models[] = {
      {"decision_tree", {{"max_depth", 8}}},
      {"random_forest", {{"n_estimators", 4}, {"max_depth", 6}}},
      {"adaboost", {{"n_estimators", 4}, {"max_depth", 4}}},
      {"xgboost", {{"n_estimators", 8}, {"max_depth", 4}}},
      {"lightgbm", {{"n_estimators", 8}, {"num_leaves", 8}}}};
  const char* arrays[] = {"feature", "threshold", "value", "left", "right"};
  constexpr int kCases = 1000;
  std::mt19937_64 rng(20261022);
  auto below = [&rng](std::uint64_t n) {
    return static_cast<int>(rng() % n);
  };
  for (const auto& [name, params] : models) {
    auto model = ml::make_model(name, params);
    model->fit(train);
    Json pristine = model->save();
    pristine["format"] = stamp;
    int loaded = 0;
    for (int c = 0; c < kCases; ++c) {
      Json blob = pristine;
      std::vector<Json*> trees;
      if (blob.contains("trees")) {
        for (Json& t : blob["trees"].as_array()) trees.push_back(&t);
      } else {
        trees.push_back(&blob);
      }
      const int edits = 1 + below(3);
      for (int e = 0; e < edits; ++e) {
        Json& tree = *trees[static_cast<std::size_t>(
            below(trees.size()))];
        const int n = static_cast<int>(tree["feature"].as_array().size());
        if (n == 0) continue;
        const auto node = static_cast<std::size_t>(below(n));
        switch (below(3)) {
          case 0: {  // a child index: on, beside or past the range rules
            const double i = static_cast<double>(node), end = n;
            const double picks[] = {-1.0,      0.0,     i,
                                    i - 1.0,   i + 1.0, end - 1.0,
                                    end,       end + 1.0,
                                    below(2 * n + 2) - end - 1.0,
                                    2147483647.0,       1e12,
                                    i + 0.5};
            JsonArray& a = tree[below(2) ? "left" : "right"].as_array();
            if (node < a.size()) {
              a[node] = Json(picks[below(std::size(picks))]);
            }
            break;
          }
          case 1: {  // a feature index, leaves included
            const double w = width;
            const double picks[] = {-1.0,    -2.0,   0.0,
                                    w - 1.0, w,      w + 1.0,
                                    below(2 * width + 2) - 1.0,
                                    1e12,    1.5};
            JsonArray& a = tree["feature"].as_array();
            a[node] = Json(picks[below(std::size(picks))]);
            break;
          }
          default: {  // one per-node array one longer, shorter or empty
            JsonArray& a = tree[arrays[below(std::size(arrays))]].as_array();
            switch (below(3)) {
              case 0: if (!a.empty()) a.pop_back(); break;
              case 1: a.emplace_back(below(n + 1)); break;
              default: a.clear(); break;
            }
            break;
          }
        }
      }
      write_json_file(path, blob);
      try {
        auto rt = AdsalaGemm::try_load(path, config_path());
        if (!rt.ok()) {
          EXPECT_EQ(rt.error().code, ErrorCode::kValidationError)
              << name << " case " << c << ": " << rt.error().message;
          continue;
        }
        ++loaded;
        EXPECT_EQ(off_grid_answers(rt.value()), 0)
            << name << " case " << c;
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << " case " << c << " threw: " << e.what();
      }
    }
    std::printf("[ fuzz     ] %s: %d of %d mutated models loaded\n", name,
                loaded, kCases);
    // Edits a walk never follows (a leaf's child slots) still load.
    EXPECT_GT(loaded, 0) << name;
    EXPECT_LT(loaded, kCases) << name;
  }
}

// ------------------------------------------------------- degraded-mode rungs

TEST_F(ArtefactCorpus, LoadOrFallbackDegradesToHeuristic) {
  Error why;
  AdsalaGemm runtime = AdsalaGemm::load_or_fallback(
      "/tmp/adsala_no_such_dir/model.json",
      "/tmp/adsala_no_such_dir/config.json", &why);
  EXPECT_EQ(why.code, ErrorCode::kNotFound);
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kHeuristicFallback);
  EXPECT_EQ(runtime.platform(), "heuristic-fallback");

  // Every rung of the API keeps answering, for every registered op, with
  // grid-valid thread counts.
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : {32L, 300L, 2000L}) {
      const int p = runtime.select_threads(op, x, x, x);
      EXPECT_GE(p, 1) << blas::op_name(op);
      EXPECT_LE(p, runtime.max_threads()) << blas::op_name(op);
      bool on_grid = false;
      for (int g : runtime.thread_grid()) on_grid |= (g == p);
      EXPECT_TRUE(on_grid) << blas::op_name(op) << " answer off the grid";
    }
  }
}

TEST_F(ArtefactCorpus, LoadOrFallbackPrefersGoodArtefacts) {
  Error why{ErrorCode::kInternal, "stale"};
  AdsalaGemm runtime =
      AdsalaGemm::load_or_fallback(model_path(), config_path(), &why);
  EXPECT_TRUE(why.ok()) << why.message;
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kModelServed);
}

TEST(HeuristicFallback, OccupancyRuleScalesWithShape) {
  // Fixed 16-way machine so the analytic rule is host-independent: a tiny
  // GEMM must not get more threads than a huge one (spawn/sync overheads
  // dominate small shapes in the cost model).
  AdsalaGemm runtime = AdsalaGemm::heuristic_fallback(16);
  EXPECT_EQ(runtime.serving_mode(), ServingMode::kHeuristicFallback);
  EXPECT_EQ(runtime.max_threads(), 16);
  const int p_small = runtime.select_threads(24, 24, 24);
  const int p_large = runtime.select_threads(2048, 2048, 2048);
  EXPECT_LE(p_small, p_large);
  EXPECT_GT(p_large, 1) << "a 2048^3 GEMM must parallelise";
  // Deterministic: the same query always answers the same.
  EXPECT_EQ(runtime.select_threads(2048, 2048, 2048), p_large);
}

TEST(HeuristicFallback, SaveIsRefused) {
  AdsalaGemm runtime = AdsalaGemm::heuristic_fallback(8);
  EXPECT_THROW(runtime.save("/tmp/adsala_hf_model.json",
                            "/tmp/adsala_hf_config.json"),
               std::logic_error);
}

// ----------------------------------------------- failpoints on the load path

TEST_F(ArtefactCorpus, JsonTruncateFailpointTearsTheRead) {
  failpoint::Scoped fp("json-truncate");
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(ArtefactCorpus, ModelNanWeightFailpointPoisonsTheBlob) {
  failpoint::Scoped fp("model-nan-weight");
  auto result = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

// --------------------------------------- exception-safe parallel regions

TEST(ThreadPoolFaults, WorkerExceptionRethrowsOnCaller) {
  // A private pool with one background worker, so the worker lane exists
  // even on a single-CPU host (the global pool would have none there).
  ThreadPool pool(1);
  ASSERT_EQ(pool.max_threads(), 2u);
  {
    failpoint::Scoped fp("worker-throw");
    EXPECT_THROW(
        pool.parallel_region(2, [](std::size_t, std::size_t) {}),
        std::runtime_error);
  }
  // The pool must come back clean: the next region runs every lane.
  std::vector<int> hits(2, 0);
  pool.parallel_region(2, [&](std::size_t tid, std::size_t) {
    hits[tid] = 1;
  });
  EXPECT_EQ(hits[0] + hits[1], 2);
}

TEST(ThreadPoolFaults, CallerLaneExceptionAlsoRethrows) {
  ThreadPool pool(3);
  const std::size_t p = pool.max_threads();
  EXPECT_THROW(pool.parallel_region(p,
                                    [](std::size_t tid, std::size_t) {
                                      if (tid == 0) {
                                        throw std::invalid_argument("lane 0");
                                      }
                                    }),
               std::invalid_argument);
  // Reusable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_region(p, [&](std::size_t, std::size_t) { ++sum; });
  EXPECT_EQ(sum.load(), static_cast<int>(p));
}

// ------------------------------------------------ arena OOM degraded serving

TEST(ArenaFaults, GemmStaysCorrectWhenArenaGrowthFails) {
  // With the arena refusing to grow, the carve helpers fall back to
  // per-call buffers; the product must stay bit-correct vs the reference.
  const int m = 150, n = 130, k = 70;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 11) - 5.0f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(i % 7) - 3.0f;
  }
  std::vector<float> c(static_cast<std::size_t>(m) * n, 1.0f);
  auto c_ref = c;
  {
    failpoint::Scoped fp("arena-oom");
    blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0f, a.data(),
                k, b.data(), n, 0.5f, c.data(), n, 4);
  }
  blas::reference_gemm<float>(blas::Trans::kNo, blas::Trans::kNo, m, n, k,
                              1.0f, a.data(), k, b.data(), n, 0.5f,
                              c_ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], c_ref[i], 1e-3f) << "at " << i;
  }
}

TEST(ArenaFaults, TrmmStaysCorrectWhenArenaGrowthFails) {
  // TRMM exercises both degraded paths at once: the shared dense-copy slab
  // and the per-participant panel carves.
  const int n = 96, m = 40;
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<double>(i % 9) - 4.0;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(i % 5) - 2.0;
  }
  auto b_ref = b;
  {
    failpoint::Scoped fp("arena-oom");
    blas::dtrmm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
                m, 1.5, a.data(), n, b.data(), m, 4);
  }
  blas::reference_trmm<double>(blas::Uplo::kLower, blas::Trans::kNo,
                               blas::Diag::kNonUnit, n, m, 1.5, a.data(), n,
                               b_ref.data(), m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_NEAR(b[i], b_ref[i], 1e-9) << "at " << i;
  }
}

TEST(ArenaFaults, SyrkStaysCorrectWhenArenaGrowthFails) {
  // SYRK's packed-panel path carves both A-panels from the arena; with
  // growth refused it must fall back per-call and keep the triangle exact.
  const int n = 120, k = 60;
  std::vector<float> a(static_cast<std::size_t>(n) * k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(i % 13) - 6.0f;
  }
  std::vector<float> c(static_cast<std::size_t>(n) * n, 2.0f);
  auto c_ref = c;
  {
    failpoint::Scoped fp("arena-oom");
    blas::ssyrk(blas::Uplo::kLower, blas::Trans::kNo, n, k, 1.0f, a.data(), k,
                0.25f, c.data(), n, 4);
  }
  blas::reference_syrk<float>(blas::Uplo::kLower, blas::Trans::kNo, n, k,
                              1.0f, a.data(), k, 0.25f, c_ref.data(), n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      ASSERT_NEAR(c[static_cast<std::size_t>(i) * n + j],
                  c_ref[static_cast<std::size_t>(i) * n + j], 1e-3f)
          << "at (" << i << ", " << j << ")";
    }
  }
}

TEST(ArenaFaults, TrsmStaysCorrectWhenArenaGrowthFails) {
  // TRSM degrades hardest: the solve recursion wants workspace for the
  // update GEMMs, and every carve must survive the refusal.
  const int n = 88, m = 36;
  std::vector<double> a(static_cast<std::size_t>(n) * n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      a[static_cast<std::size_t>(i) * n + j] =
          i == j ? 4.0 : static_cast<double>((i + j) % 3) - 1.0;
    }
  }
  std::vector<double> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>(i % 5) - 2.0;
  }
  auto b_ref = b;
  {
    failpoint::Scoped fp("arena-oom");
    blas::dtrsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
                m, 1.0, a.data(), n, b.data(), m, 4);
  }
  blas::reference_trsm<double>(blas::Uplo::kLower, blas::Trans::kNo,
                               blas::Diag::kNonUnit, n, m, 1.0, a.data(), n,
                               b_ref.data(), m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_NEAR(b[i], b_ref[i], 1e-9) << "at " << i;
  }
}

TEST(ArenaFaults, SymmStaysCorrectWhenArenaGrowthFails) {
  // SYMM densifies the stored triangle into a shared slab before the GEMM
  // core; with the slab carve refused the dense copy goes per-call.
  const int n = 100, m = 44;
  std::vector<float> a(static_cast<std::size_t>(n) * n, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      a[static_cast<std::size_t>(i) * n + j] =
          static_cast<float>((i * 3 + j) % 7) - 3.0f;
    }
  }
  std::vector<float> b(static_cast<std::size_t>(n) * m);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(i % 9) - 4.0f;
  }
  std::vector<float> c(static_cast<std::size_t>(n) * m, 1.0f);
  auto c_ref = c;
  {
    failpoint::Scoped fp("arena-oom");
    blas::ssymm(blas::Uplo::kLower, n, m, 1.0f, a.data(), n, b.data(), m,
                0.5f, c.data(), m, 4);
  }
  blas::reference_symm<float>(blas::Uplo::kLower, n, m, 1.0f, a.data(), n,
                              b.data(), m, 0.5f, c_ref.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], c_ref[i], 1e-2f) << "at " << i;
  }
}

TEST(ArenaFaults, SerialCallDegradesToo) {
  // nthreads == 1 goes through carve_private_panels' own fallback.
  const int m = 64, n = 48, k = 32;
  std::vector<float> a(static_cast<std::size_t>(m) * k, 0.5f);
  std::vector<float> b(static_cast<std::size_t>(k) * n, 2.0f);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  failpoint::Scoped fp("arena-oom");
  blas::sgemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0f, a.data(), k,
              b.data(), n, 0.0f, c.data(), n, 1);
  for (float v : c) ASSERT_FLOAT_EQ(v, 0.5f * 2.0f * k);
}

// ------------------------------------------- shared-memory artefact region

/// Reuses the frozen good install: publishes it into a region file, then
/// applies targeted binary surgery per test.
class ShmRegion : public ArtefactCorpus {
 protected:
  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  /// Publishes the corpus artefacts into a fresh region and returns its path.
  static std::string publish(const std::string& tag) {
    const std::string path = *dir_ + "/region_" + tag;
    const Error err =
        publish_shm_region(path, slurp(model_path()), slurp(config_path()));
    EXPECT_TRUE(err.ok()) << err.message;
    return path;
  }

  /// Overwrites `len` bytes at `offset` in the region file.
  static void poke(const std::string& path, std::size_t offset,
                   const void* bytes, std::size_t len) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char*>(bytes),
            static_cast<std::streamsize>(len));
  }
};

TEST_F(ShmRegion, PublishAttachServesIdenticallyToFiles) {
  const std::string region = publish("good");
  auto attached = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(attached.ok()) << attached.error().message;
  auto from_files = AdsalaGemm::try_load(model_path(), config_path());
  ASSERT_TRUE(from_files.ok());

  // The acceptance bar: N attachers of one region answer exactly like a
  // process that loaded the files — same model, same decisions, every op.
  EXPECT_EQ(attached.value().model_name(), from_files.value().model_name());
  EXPECT_EQ(attached.value().serving_mode(), ServingMode::kModelServed);
  for (const blas::OpKind op : blas::all_ops()) {
    for (long x : {48L, 300L, 1024L}) {
      EXPECT_EQ(attached.value().select_threads(op, x, x, x),
                from_files.value().select_threads(op, x, x, x))
          << blas::op_name(op) << " x=" << x;
    }
  }
}

TEST_F(ShmRegion, TwoAttachersShareOneGeneration) {
  const std::string region = publish("two");
  auto first = AdsalaGemm::try_attach(region);
  auto second = AdsalaGemm::try_attach(region);
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(second.ok()) << second.error().message;
  for (long x : {64L, 512L, 1500L}) {
    EXPECT_EQ(first.value().select_threads(x, x, x),
              second.value().select_threads(x, x, x));
  }
}

TEST_F(ShmRegion, RepublishBumpsGenerationMonotonically) {
  const std::string region = publish("gen");
  auto g1 = read_shm_region(region);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(
      publish_shm_region(region, slurp(model_path()), slurp(config_path()))
          .ok());
  auto g2 = read_shm_region(region);
  ASSERT_TRUE(g2.ok());
  EXPECT_GT(g2.value().generation, g1.value().generation);
  EXPECT_EQ(g2.value().generation % 2, 0u) << "published generation is even";
}

TEST_F(ShmRegion, MissingRegionIsNotFound) {
  auto result = AdsalaGemm::try_attach(*dir_ + "/region_absent");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kNotFound);
}

TEST_F(ShmRegion, BadMagicIsValidationError) {
  const std::string region = publish("magic");
  const std::uint32_t wrong = 0xDEADBEEF;
  poke(region, 0, &wrong, sizeof(wrong));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
  EXPECT_NE(result.error().message.find("magic"), std::string::npos);
}

TEST_F(ShmRegion, WrongFormatVersionIsValidationError) {
  // Same magic base, future format version: an incompatible layout must be
  // rejected exactly like a foreign file.
  const std::string region = publish("ver");
  const std::uint32_t future = 0xAD5A1A00u | 99u;
  poke(region, 0, &future, sizeof(future));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

TEST_F(ShmRegion, OddGenerationIsUnavailable) {
  // A publisher that died mid-swap leaves the counter odd; attach must give
  // the retryable taxonomy row, not serve the half-written payload.
  const std::string region = publish("odd");
  std::uint64_t odd = 0;
  {
    std::ifstream in(region, std::ios::binary);
    in.seekg(8);
    in.read(reinterpret_cast<char*>(&odd), sizeof(odd));
  }
  odd |= 1;
  poke(region, 8, &odd, sizeof(odd));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST_F(ShmRegion, MidSwapFailpointIsUnavailable) {
  const std::string region = publish("failpoint");
  failpoint::Scoped fp("shm-mid-swap");
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kUnavailable);
}

TEST_F(ShmRegion, TruncatedRegionIsParseError) {
  // Region cut inside the payload: header bounds point past the mapping.
  const std::string region = publish("cut");
  std::filesystem::resize_file(region, kShmHeaderBytes + 10);
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);

  // Cut inside the *header* itself.
  std::filesystem::resize_file(region, 20);
  result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError);
}

TEST_F(ShmRegion, CorruptPayloadIsParseOrValidationError) {
  // Zero out the start of the model payload: the copied bytes survive the
  // seqlock (the region is quiescent) but fail JSON decoding downstream —
  // content validation stays the serving layer's job.
  const std::string region = publish("payload");
  const char junk[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  poke(region, kShmHeaderBytes, junk, sizeof(junk));
  auto result = AdsalaGemm::try_attach(region);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kParseError)
      << result.error().message;
}

TEST_F(ShmRegion, StampMismatchInRegionIsValidationError) {
  // Publish a pair whose config carries a future format stamp: the region
  // machinery accepts any bytes, the artefact ladder must reject them.
  auto [model, config] = scratch_copy("shm_stamp");
  rewrite_json(config,
               [](Json& doc) { doc["format"] = Json("adsala/config/v999"); });
  const std::string path = *dir_ + "/region_stamp";
  ASSERT_TRUE(publish_shm_region(path, slurp(model), slurp(config)).ok());
  auto result = AdsalaGemm::try_attach(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kValidationError);
}

TEST_F(ShmRegion, GrowingRepublishesNeverReadAsDamage) {
  // A publisher that needs more room grows the file (ftruncate) and puts the
  // new payload past the live one. A concurrent reader may have mapped the
  // file before the grow, or read the descriptors while the publisher was
  // flipping them; either is a race to retry, never a damaged region. Here
  // the model grows by 4 KiB of trailing JSON whitespace on every other
  // publish, so every other publish grows the file.
  const std::string region = publish("grow");
  const std::string model = slurp(model_path());
  const std::string config = slurp(config_path());
  constexpr int kPublishes = 120;
  std::atomic<bool> done{false};
  std::atomic<int> publish_failures{0};
  std::thread publisher([&] {
    for (int i = 1; i <= kPublishes; ++i) {
      const std::string padded =
          i % 2 == 0 ? model : model + std::string(4096u * i, ' ');
      if (!publish_shm_region(region, padded, config).ok()) {
        publish_failures.fetch_add(1);
      }
    }
    done.store(true);
  });

  struct Tally {
    int reads = 0;
    int unavailable = 0;
    std::vector<std::string> other_errors;
  };
  auto hammer = [&](Tally* tally, bool attach) {
    while (!done.load()) {
      ++tally->reads;
      Error err;
      if (attach) {
        auto rt = AdsalaGemm::try_attach(region);
        if (!rt.ok()) err = rt.error();
      } else {
        auto bytes = read_shm_region(region);
        if (!bytes.ok()) err = bytes.error();
      }
      if (err.code == ErrorCode::kUnavailable) {
        ++tally->unavailable;
      } else if (!err.ok()) {
        tally->other_errors.push_back(std::string(error_code_name(err.code)) +
                                      ": " + err.message);
      }
    }
  };
  Tally raw_a, raw_b, attach;
  std::thread ra(hammer, &raw_a, false);
  std::thread rb(hammer, &raw_b, false);
  std::thread at(hammer, &attach, true);
  publisher.join();
  ra.join();
  rb.join();
  at.join();

  EXPECT_EQ(publish_failures.load(), 0);
  for (const Tally* t : {&raw_a, &raw_b, &attach}) {
    EXPECT_GT(t->reads, 0);
    EXPECT_TRUE(t->other_errors.empty())
        << t->other_errors.size() << " of " << t->reads
        << " reads failed with a non-retryable code, first: "
        << t->other_errors.front();
  }
}

/// Deterministic mutational fuzz of the one input surface a serving process
/// reads from outside: a published shm region. The region holds the
/// committed tiny artefacts (published twice, so the heal target is a real
/// payload). Each case copies it, damages header fields and payload bytes,
/// and attaches; every case must load (and then answer every op) or fail
/// with a taxonomy code, never crash, throw or hang. The seed is fixed, so a
/// failure names a case that replays exactly.
TEST_F(ShmRegion, MutatedRegionsLoadOrFailWithTaxonomyCode) {
  const std::string tiny = ADSALA_TINY_ARTIFACTS;
  const std::string source = *dir_ + "/region_fuzz_source";
  const std::string model = slurp(tiny + "/model.json");
  const std::string config = slurp(tiny + "/config.json");
  ASSERT_TRUE(publish_shm_region(source, model, config).ok());
  ASSERT_TRUE(publish_shm_region(source, model, config).ok());
  const std::string pristine = slurp(source);
  ASSERT_GT(pristine.size(), std::size_t{kShmHeaderBytes});
  ASSERT_TRUE(AdsalaGemm::try_attach(source).ok());

  std::mt19937_64 rng(20261019);
  auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const std::uint64_t size = pristine.size();
  // Values that sit on the bounds checks, or wrap them when added.
  const std::uint64_t edges[] = {0,
                                 1,
                                 kShmHeaderBytes - 1,
                                 kShmHeaderBytes,
                                 size - 1,
                                 size,
                                 size + 1,
                                 std::uint64_t{1} << 63,
                                 ~std::uint64_t{0} - size + 1,
                                 ~std::uint64_t{0}};
  const char json_bytes[] = "{}[],:\"-+.eE0123456789 tfn\\";

  constexpr std::size_t kPidField = offsetof(ShmHeader, writer_pid);
  constexpr int kCases = 1500;
  const std::string path = *dir_ + "/region_fuzz_case";
  int loaded = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string bytes = pristine;
    const int mutations = 1 + static_cast<int>(below(3));
    for (int m = 0; m < mutations; ++m) {
      switch (below(4)) {
        case 0: {  // one 8-byte header field (the magic word included)
          const std::size_t field = 8 * below(kShmHeaderBytes / 8);
          std::uint64_t v = 0;
          std::memcpy(&v, bytes.data() + field, sizeof(v));
          switch (below(3)) {
            case 0: v = edges[below(std::size(edges))]; break;
            case 1: v += below(2 * size) - size; break;
            default: v = rng(); break;
          }
          std::memcpy(bytes.data() + field, &v, sizeof(v));
          break;
        }
        case 1:  // one bit anywhere in the header
          bytes[below(kShmHeaderBytes)] ^=
              static_cast<char>(1u << below(8));
          break;
        case 2:  // one payload byte, JSON-shaped
          bytes[kShmHeaderBytes + below(size - kShmHeaderBytes)] =
              json_bytes[below(sizeof(json_bytes) - 1)];
          break;
        default:  // one payload byte, anything
          bytes[kShmHeaderBytes + below(size - kShmHeaderBytes)] =
              static_cast<char>(below(256));
          break;
      }
    }
    // The writer pid is the one field whose meaning lies outside the file
    // (is that process alive?). A mutated one is pinned to this process or
    // to no process, so every case replays the same way on any host.
    if (std::memcmp(bytes.data() + kPidField, pristine.data() + kPidField,
                    sizeof(std::uint64_t)) != 0) {
      const std::uint64_t pid =
          (bytes[kPidField] & 1) ? static_cast<std::uint64_t>(::getpid()) : 0;
      std::memcpy(bytes.data() + kPidField, &pid, sizeof(pid));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      auto rt = AdsalaGemm::try_attach(path);
      if (!rt.ok()) {
        const ErrorCode code = rt.error().code;
        EXPECT_TRUE(code == ErrorCode::kNotFound ||
                    code == ErrorCode::kParseError ||
                    code == ErrorCode::kValidationError ||
                    code == ErrorCode::kUnavailable)
            << "case " << c << ": " << error_code_name(code) << ": "
            << rt.error().message;
        EXPECT_FALSE(rt.error().message.empty()) << "case " << c;
        continue;
      }
      ++loaded;
      const auto& grid = rt.value().thread_grid();
      for (const blas::OpKind op : blas::all_ops()) {
        for (long x : {16L, 517L, 8000L}) {
          const int p = rt.value().select_threads(op, x, x, x);
          EXPECT_NE(std::find(grid.begin(), grid.end(), p), grid.end())
              << "case " << c << ": " << blas::op_name(op) << " x=" << x
              << " -> " << p;
        }
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "case " << c << " threw: " << e.what();
    }
  }
  // Damage that misses every checked byte (payload whitespace, unused
  // header fields) still loads, so both outcomes are exercised.
  EXPECT_GT(loaded, 0);
  EXPECT_LT(loaded, kCases);
}

// ----------------------------------------------------- CSV loader hardening

TEST(CsvFaults, MalformedNumberNamesPathAndLine) {
  const std::string path = "/tmp/adsala_test_bad_number.csv";
  {
    std::ofstream out(path);
    out << "m,k,n\n1,2,3\n4,oops,6\n";
  }
  try {
    read_csv(path);
    FAIL() << "malformed cell must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(CsvFaults, ShortRowNamesPathAndLine) {
  const std::string path = "/tmp/adsala_test_short_row.csv";
  {
    std::ofstream out(path);
    out << "m,k,n\n1,2,3\n4,5\n";
  }
  try {
    read_csv(path);
    FAIL() << "ragged row must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 3"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(CsvFaults, TrailingJunkRejected) {
  const std::string path = "/tmp/adsala_test_junk.csv";
  {
    std::ofstream out(path);
    out << "m,k\n1,2\n3,4x\n";
  }
  EXPECT_THROW(read_csv(path), std::runtime_error);
  std::filesystem::remove(path);
}

// ----------------------------------------------------- telemetry failpoint

TEST(TelemetryFaults, TornTailFailpointWedgesHandleAndNextOpenHeals) {
  // The crash the continual-retuning loop must survive: a writer dies (or
  // is torn by the failpoint) mid-flush. The wedged handle refuses further
  // work, and the NEXT open() truncates the torn tail so the loop keeps
  // retraining from the intact prefix.
  const std::string path = "/tmp/adsala_faults_telemetry.bin";
  std::filesystem::remove(path);
  TelemetryRecord rec;
  rec.threads = 4;
  rec.m = rec.k = rec.n = 256;
  rec.measured_ns = 1000;
  {
    auto log = TelemetryLog::open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log.value().append(rec).ok());
    ASSERT_TRUE(log.value().flush().ok());
    ASSERT_TRUE(log.value().append(rec).ok());

    failpoint::Scoped fp("telemetry-torn-tail");
    EXPECT_EQ(log.value().flush().code, ErrorCode::kInternal);
    EXPECT_EQ(log.value().append(rec).code, ErrorCode::kInternal);  // wedged
  }
  ASSERT_GT(std::filesystem::file_size(path), kTelemetryRecordBytes);

  auto healed = TelemetryLog::open(path);
  ASSERT_TRUE(healed.ok()) << healed.error().message;
  EXPECT_EQ(std::filesystem::file_size(path), kTelemetryRecordBytes);
  auto records = read_telemetry_log(path);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 1u);
  std::filesystem::remove(path);
}

TEST(CsvFaults, GatherLoadCsvPropagatesLineNumbers) {
  const std::string path = "/tmp/adsala_test_gather_bad.csv";
  {
    std::ofstream out(path);
    out << "m,k,n,elem_bytes,threads,runtime,op,variant\n"
        << "100,200,300,4,1,0.5,0,1\n"
        << "100,200,300,4,2,not_a_number,0,1\n";
  }
  try {
    GatherData::load_csv(path);
    FAIL() << "bad timings file must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(":3"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace adsala::core
