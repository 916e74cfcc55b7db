#include "core/gather.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "blas/kernels/dispatch.h"
#include "common/csv.h"
#include "core/op_registry.h"
#include "ml/splits.h"
#include "preprocess/features.h"

namespace adsala::core {

int GatherRecord::optimal_threads() const {
  const auto it = std::min_element(runtime.begin(), runtime.end());
  return threads[static_cast<std::size_t>(it - runtime.begin())];
}

double GatherRecord::optimal_runtime() const {
  return *std::min_element(runtime.begin(), runtime.end());
}

double GatherRecord::max_thread_runtime() const { return runtime.back(); }

ml::Dataset GatherData::to_dataset() const {
  ml::Dataset data(preprocess::op_aware_feature_names());
  for (const auto& rec : records) {
    for (std::size_t t = 0; t < rec.threads.size(); ++t) {
      const auto feats = preprocess::make_op_aware_features(
          static_cast<double>(rec.shape.m), static_cast<double>(rec.shape.k),
          static_cast<double>(rec.shape.n),
          static_cast<double>(rec.threads[t]), rec.op, rec.variant);
      data.add_row(feats, rec.runtime[t]);
    }
  }
  return data;
}

void GatherData::split(double test_fraction, std::uint64_t seed,
                       GatherData* train, GatherData* test) const {
  std::vector<double> strata_key;
  strata_key.reserve(records.size());
  for (const auto& rec : records) {
    strata_key.push_back(std::log(std::max(rec.optimal_runtime(), 1e-300)));
  }
  const auto idx = ml::train_test_split(strata_key, test_fraction, seed);
  *train = GatherData{platform, max_threads, thread_grid, {}};
  *test = GatherData{platform, max_threads, thread_grid, {}};
  for (std::size_t i : idx.train) train->records.push_back(records[i]);
  for (std::size_t i : idx.test) test->records.push_back(records[i]);
}

namespace {

/// The one timings.csv layout, written by save_csv and required by load_csv.
const std::vector<std::string>& csv_header() {
  static const std::vector<std::string> header = {
      "m", "k", "n", "elem_bytes", "threads", "runtime", "op", "variant"};
  return header;
}

}  // namespace

void GatherData::save_csv(const std::string& path) const {
  CsvTable table;
  table.header = csv_header();
  for (const auto& rec : records) {
    for (std::size_t t = 0; t < rec.threads.size(); ++t) {
      table.rows.push_back({static_cast<double>(rec.shape.m),
                            static_cast<double>(rec.shape.k),
                            static_cast<double>(rec.shape.n),
                            static_cast<double>(rec.shape.elem_bytes),
                            static_cast<double>(rec.threads[t]),
                            rec.runtime[t],
                            static_cast<double>(blas::op_code(rec.op)),
                            static_cast<double>(rec.variant)});
    }
  }
  write_csv(path, table);
}

GatherData GatherData::load_csv(const std::string& path) {
  const CsvTable table = read_csv(path);
  // Files without the op / variant columns cannot say what their rows
  // timed, so any other layout is refused.
  if (table.header != csv_header()) {
    throw std::runtime_error(path +
                             ": timings header is not the save_csv layout "
                             "m,k,n,elem_bytes,threads,runtime,op,variant");
  }

  GatherData out;
  GatherRecord current;
  bool have_current = false;
  for (const auto& row : table.rows) {
    simarch::GemmShape shape{static_cast<long>(row[0]),
                             static_cast<long>(row[1]),
                             static_cast<long>(row[2]),
                             static_cast<int>(row[3])};
    const auto op = blas::op_from_code(static_cast<int>(row[6]));
    if (!op) {
      throw std::runtime_error("GatherData::load_csv: unknown op code");
    }
    // Records must carry a concrete variant; kAuto (0) or unknown codes
    // mean the file is corrupt or from an incompatible future version.
    const int code = static_cast<int>(row[7]);
    if (code != static_cast<int>(blas::kernels::Variant::kGeneric) &&
        code != static_cast<int>(blas::kernels::Variant::kAvx2) &&
        code != static_cast<int>(blas::kernels::Variant::kAvx512)) {
      throw std::runtime_error(
          "GatherData::load_csv: unknown kernel-variant code");
    }
    const auto variant = static_cast<blas::kernels::Variant>(code);
    if (!have_current || shape.m != current.shape.m ||
        shape.k != current.shape.k || shape.n != current.shape.n ||
        shape.elem_bytes != current.shape.elem_bytes || *op != current.op) {
      if (have_current) out.records.push_back(std::move(current));
      current = GatherRecord{};
      current.shape = shape;
      current.op = *op;
      current.variant = variant;
      have_current = true;
    }
    current.threads.push_back(static_cast<int>(row[4]));
    current.runtime.push_back(row[5]);
  }
  if (have_current) out.records.push_back(std::move(current));
  if (!out.records.empty()) {
    out.thread_grid = out.records.front().threads;
    out.max_threads = out.thread_grid.back();
  }
  return out;
}

namespace {

/// Restores the pre-campaign kernel dispatch when a variant A/B campaign
/// ends (or throws). active_variant() is always concrete, so re-pinning it
/// is behaviourally identical to whatever selection produced it.
class VariantRestorer {
 public:
  VariantRestorer() : previous_(blas::kernels::active_variant()) {}
  ~VariantRestorer() { blas::kernels::set_variant(previous_); }

 private:
  blas::kernels::Variant previous_;
};

}  // namespace

GatherData gather_timings(GemmExecutor& executor, const GatherConfig& config) {
  GatherData out;
  out.platform = executor.name();
  out.max_threads = executor.max_threads();
  out.thread_grid = config.thread_grid.empty()
                        ? default_thread_grid(out.max_threads)
                        : config.thread_grid;
  if (out.thread_grid.empty()) {
    throw std::invalid_argument("gather_timings: empty thread grid");
  }
  if (config.ops.empty()) {
    throw std::invalid_argument("gather_timings: no operations configured");
  }
  // Fail fast on a bad variant list: a campaign can take hours on a native
  // executor, and set_variant throwing mid-campaign would discard every
  // curve already timed.
  const auto supported = blas::kernels::supported_variants();
  for (const auto v : config.variants) {
    if (v == blas::kernels::Variant::kAuto) {
      throw std::invalid_argument(
          "gather_timings: variants must be concrete (resolve kAuto via "
          "active_variant() first)");
    }
    if (std::find(supported.begin(), supported.end(), v) == supported.end()) {
      throw std::invalid_argument(
          std::string("gather_timings: kernel variant '") +
          blas::kernels::variant_name(v) + "' is not supported on this host");
    }
  }

  // Variant sub-campaigns: each configured variant is pinned while its
  // curves are timed, so every (op, shape) gets one curve per variant and
  // the kernel_* one-hot columns become informative. Without the knob the
  // records simply tag what the dispatched kernel resolves to in this
  // process (a concrete variant, never kAuto — simulated platforms do not
  // run the kernels, but the tag keeps the dataset schema uniform).
  const std::vector<blas::kernels::Variant> variants =
      config.variants.empty() ? std::vector<blas::kernels::Variant>{
                                    blas::kernels::active_variant()}
                              : config.variants;
  const bool pin_variants = !config.variants.empty();
  std::optional<VariantRestorer> restore;
  if (pin_variants) restore.emplace();

  out.records.reserve(config.n_samples * config.ops.size() * variants.size());
  for (const blas::OpKind op : config.ops) {
    // The sampler comes from the op's registry row (stored-shape conventions
    // in docs/OPERATIONS.md); one draw per op — variant sub-campaigns re-time
    // the same shapes so the kernel columns are the only thing that moves.
    const auto shapes =
        op_traits(op).make_sampler(config.domain)->sample(config.n_samples);
    for (const blas::kernels::Variant variant : variants) {
      if (pin_variants) blas::kernels::set_variant(variant);
      for (const auto& shape : shapes) {
        GatherRecord rec;
        rec.shape = shape;
        rec.op = op;
        rec.variant = variant;
        rec.threads = out.thread_grid;
        rec.runtime.reserve(rec.threads.size());
        // One program execution per thread count, exactly as the paper
        // isolates them to avoid thread-pool resize interference (SS III-B).
        for (int p : rec.threads) {
          rec.runtime.push_back(
              executor.measure_op(op, shape, p, config.iterations));
        }
        out.records.push_back(std::move(rec));
      }
    }
  }
  return out;
}

}  // namespace adsala::core
