// The repository benchmark: three native workloads through the public entry
// points of core::AdsalaGemm, blas::* and common::ThreadPool.
//
//   perfbench --workload <small_repeat|fresh_shapes|serve_decisions>
//             --seed <n> --seconds <s> --trace <0|1> --fixture <timings.csv>
//             --work-dir <dir> [--trace-out <file>] [--smoke]
//   perfbench --gather-fixture <dir>
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. perfbench/NOTES.md gives
// the reasons behind each workload and metric.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "blas/kernels/dispatch.h"
#include "blas/pack_pipeline.h"
#include "common/pack_arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/install.h"
#include "core/op_registry.h"
#include "layers.h"
#include "perfbench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using adsala::blas::OpKind;
using adsala::core::AdsalaGemm;

namespace perfbench {
namespace {

// ------------------------------------------------------------ parameters

/// The model the fixture trains: the paper's selected model, pinned so the
/// decisions (and select.miss_ns) do not depend on a run-to-run selection.
constexpr const char* kPinnedModel = "xgboost";

/// The paper's evaluation domain: fp32 operands within 100 MB. dim_max keeps
/// every coordinate inside the memo's 16-bit key fields.
constexpr std::size_t kDomainCapBytes = 100ull * 1024 * 1024;
constexpr long kDomainDimMax = 8192;

/// Gather settings of the committed fixture (perfbench/fixture/gather.json
/// records them with the host they ran on).
constexpr std::uint64_t kGatherSeed = 7;
constexpr std::size_t kGatherShapesPerOp = 30;
constexpr int kGatherIterations = 3;

/// fresh_shapes: the first shapes per op of the Halton sequence over the
/// whole capped domain, drawn from a fixed domain seed that differs from
/// kGatherSeed, so every run measures the same work and the shapes are
/// unseen by the fixture. Each shape is repeated until its repeats reach the
/// flop budget; a shape at or above the budget runs once per pass.
constexpr std::size_t kFreshPerOp = 4;
constexpr std::uint64_t kFreshDomainSeed = 77;
constexpr double kFreshFlopBudget = 1e9;

/// serve_decisions republishes once per kSwapEveryDecisions served queries:
/// a retune reads a full telemetry window (`retune --window`, default 4096
/// records) and the serve-time sampler records one call in 1024 by default,
/// so the retuning loop can swap a generation in at most this often. (The
/// share of never-seen shapes is derived from fresh_shapes; see
/// fresh_miss_one_in.)
constexpr long kSwapEveryDecisions = 4096L * 1024L;
/// Length of each caller's query schedule, cycled through.
constexpr std::size_t kScheduleLength = 8192;
constexpr long kQueryBatch = 131072;
/// Share of a serve_decisions run spent on the hot set's BLAS passes.
constexpr double kServeBlasShare = 0.5;

/// Set-ups per run. The untraced run spreads them over its timed phase, so
/// their median samples the whole run rather than its first seconds.
constexpr int kSetupRepeats = 11;

// ------------------------------------------------------------------ args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string fixture;
  std::string work_dir;
  std::string trace_out;
  std::string gather_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--fixture") a.fixture = val;
    else if (key == "--work-dir") a.work_dir = val;
    else if (key == "--trace-out") a.trace_out = val;
    else if (key == "--gather-fixture") a.gather_dir = val;
    else usage("unknown argument " + key);
  }
  if (a.gather_dir.empty()) {
    if (a.workload != "small_repeat" && a.workload != "fresh_shapes" &&
        a.workload != "serve_decisions") {
      usage("--workload must be small_repeat, fresh_shapes or serve_decisions");
    }
    if (a.fixture.empty() || a.work_dir.empty()) {
      usage("--fixture and --work-dir are required");
    }
    if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  }
  return a;
}

// ------------------------------------------------------------ provenance

struct CpuTimes {
  double total = 0.0, idle = 0.0, steal = 0.0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (in >> cpu) {
    for (double& x : v) in >> x;
  }
  for (double x : v) t.total += x;
  t.idle = v[3] + v[4];
  t.steal = v[7];
  return t;
}

std::string read_loadavg() {
  std::ifstream in("/proc/loadavg");
  double l1 = 0, l5 = 0, l15 = 0;
  in >> l1 >> l5 >> l15;
  return "[" + num(l1) + ", " + num(l5) + ", " + num(l15) + "]";
}

std::string fnv1a64_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ull;
  char ch = 0;
  while (in.get(ch)) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

long nproc() { return sysconf(_SC_NPROCESSORS_ONLN); }

// ------------------------------------------------------------- workloads

Call make_call(OpKind op, long x, long y, long z = 0, int elem = 4) {
  Call c;
  c.op = op;
  c.x = x;
  c.y = y;
  c.z = z;
  c.elem = elem;
  return c;
}

template <typename T>
void shuffle(std::vector<T>& xs, std::uint64_t seed) {
  adsala::Rng rng(seed);
  for (std::size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[rng.below(i)]);
  }
}

/// small_repeat's fixed list: small calls of all five ops (each under 8 MB),
/// including the paper's Table VII GEMMs, in a seeded order.
std::vector<Call> small_list(std::uint64_t seed, int elem) {
  std::vector<Call> calls = {
      make_call(OpKind::kGemm, 64, 2048, 64),  // Table VII
      make_call(OpKind::kGemm, 64, 64, 4096),  // Table VII
      make_call(OpKind::kGemm, 64, 64, 64),
      make_call(OpKind::kGemm, 32, 256, 32),
      make_call(OpKind::kGemm, 256, 256, 256),
      make_call(OpKind::kGemm, 512, 128, 512),
      make_call(OpKind::kSyrk, 64, 64),
      make_call(OpKind::kSyrk, 256, 128),
      make_call(OpKind::kSyrk, 512, 64),
      make_call(OpKind::kTrsm, 64, 64),
      make_call(OpKind::kTrsm, 256, 128),
      make_call(OpKind::kTrsm, 128, 512),
      make_call(OpKind::kSymm, 64, 128),
      make_call(OpKind::kSymm, 256, 256),
      make_call(OpKind::kTrmm, 256, 128),
      make_call(OpKind::kTrmm, 512, 64),
  };
  for (Call& c : calls) c.elem = elem;
  shuffle(calls, seed * 0x9e3779b97f4a7c15ull + 11);
  return calls;
}

adsala::sampling::DomainConfig domain(std::uint64_t seed) {
  adsala::sampling::DomainConfig d;
  d.memory_cap_bytes = kDomainCapBytes;
  d.elem_bytes = 4;
  d.dim_max = kDomainDimMax;
  d.seed = seed;
  return d;
}

/// fresh_shapes: Halton shapes from each op's registry sampler, each
/// repeated to the same flop budget, in a seeded order.
std::vector<Call> fresh_list(std::uint64_t seed) {
  static_assert(kFreshDomainSeed != kGatherSeed);
  std::vector<Call> calls;
  for (OpKind op : adsala::blas::all_ops()) {
    const auto& traits = adsala::core::op_traits(op);
    for (const auto& s :
         traits.make_sampler(domain(kFreshDomainSeed))->sample(kFreshPerOp)) {
      Call c;
      c.op = op;
      traits.from_shape(s, &c.x, &c.y, &c.z);
      c.repeats = std::max(1L, std::lround(kFreshFlopBudget / c.flops()));
      calls.push_back(c);
    }
  }
  shuffle(calls, seed + 3);
  return calls;
}

/// serve_decisions' share of never-seen shapes, as "one query in N": the
/// first-seen share of fresh_shapes' call stream, the paper's evaluation, in
/// which each distinct shape is new once and then repeated to its budget.
double fresh_miss_one_in() {
  const std::vector<Call> fresh = fresh_list(0);
  long calls = 0;
  for (const Call& c : fresh) calls += c.repeats;
  return static_cast<double>(calls) / static_cast<double>(fresh.size());
}

double pass_flops(const std::vector<Call>& pass) {
  double f = 0.0;
  for (const Call& c : pass) f += c.flops() * static_cast<double>(c.repeats);
  return f;
}

long pass_calls(const std::vector<Call>& pass) {
  long n = 0;
  for (const Call& c : pass) n += c.repeats;
  return n;
}

// ------------------------------------------------------------- counters

struct Counts {
  long attempted = 0;
  long failed = 0;
};

/// One pass over `pass` on `path`: each call `repeats` times. Returns the
/// summed wall time of its calls (in-place operands are restored between
/// calls, outside it). When `per_call` is given — one entry per call of the
/// pass — each call's time is appended to its entry.
double run_pass(const std::vector<Call>& pass, Workspace& ws, AdsalaGemm& rt,
                Path path, int threads, Counts& counts, Tracer& tracer,
                std::vector<std::vector<double>>* per_call = nullptr) {
  Scope pass_span(tracer, "pass");
  double secs = 0.0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const Call& c = pass[i];
    for (long r = 0; r < c.repeats; ++r) {
      ++counts.attempted;
      try {
        const double t = run_call(c, ws, rt, path, threads, &tracer);
        secs += t;
        if (per_call != nullptr) {
          (*per_call)[i].push_back(t);
        }
      } catch (const std::exception& e) {
        ++counts.failed;
        std::fprintf(stderr, "perfbench: %s threw: %s\n", c.label().c_str(),
                     e.what());
      }
    }
  }
  return secs;
}

/// A pass's time estimated call by call: each call's median over the run,
/// summed over the pass. A stall (steal time, an interrupt) then moves only
/// the calls it hit, not every pass that contains one.
double sum_of_call_medians(const std::vector<std::vector<double>>& per_call,
                           const std::vector<Call>& pass) {
  double s = 0.0;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    s += median(per_call[i]) *
         static_cast<double>(pass[i].repeats);
  }
  return s;
}

/// Keeps decision loops from being optimised away.
volatile long g_sink = 0;

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// The decision stream of one pass, replayed without the BLAS calls, in
/// `rounds` samples. A sample visits every CPU the process may use: on each,
/// one untimed replay brings back the model and memo lines the BLAS pass (or
/// the last CPU) evicted — the pass's own, cold decisions are in gflops
/// already — then at least kDecisionBatch decisions are timed in chunks of
/// whole replays, at least kDecisionChunk decisions each, appended to
/// `per_cpu` (one entry per CPU) as ns per decision. Every chunk makes the
/// same decisions, so it holds the same memo misses (keys of the stream that
/// share a memo slot evict each other once per replay) and the chunks differ
/// only by what the host does to them. The per-vCPU speed of a shared VM
/// differs by tens of percent, and a caller the scheduler keeps on one vCPU
/// would carry that vCPU's speed into the whole run; a sample over all of
/// them measures the host instead. A chunk lasts a microsecond on
/// small_repeat and about 0.1 ms on fresh_shapes, so a hypervisor steal
/// slice or an interrupt lands in one chunk of thousands rather than in a
/// batch of milliseconds: the chunks' medians and 90th percentile follow the
/// decisions, not the steal.
constexpr long kDecisionBatch = 262144;
constexpr long kDecisionChunk = 64;
/// The percentile of the chunks that decision_tail_ns reports. On
/// fresh_shapes a chunk lasts about 0.1 ms, and its 95th and higher
/// percentiles followed the run's steal time (NOTES.md, "Decision metrics").
constexpr double kDecisionTailPct = 90.0;
/// One decision sample per this much time of BLAS passes, so the BLAS
/// workloads take their decision samples at the same rate however long a
/// pass is.
constexpr double kDecisionSampleEvery_s = 0.5;

void run_decisions(const std::vector<Call>& pass, AdsalaGemm& rt, int rounds,
                   Counts& counts, std::vector<std::vector<double>>& per_cpu) {
  long n = 0, sum = 0;
  auto replay = [&] {
    for (const Call& c : pass) {
      for (long r = 0; r < c.repeats; ++r) {
        sum += rt.select_threads(c.op, c.x, c.y, c.z, c.elem);
        ++n;
      }
    }
  };
  const long per_replay = pass_calls(pass);
  const long replays = (kDecisionChunk + per_replay - 1) / per_replay;
  const double chunk = static_cast<double>(replays * per_replay);
  const std::vector<int> cpus = allowed_cpus();
  per_cpu.resize(cpus.size());
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t c = 0; c < cpus.size(); ++c) {
      pin_to({cpus[c]});
      replay();
      n = 0;
      std::int64_t t0 = now_ns();
      while (n < kDecisionBatch) {
        for (long r = 0; r < replays; ++r) replay();
        const std::int64_t t1 = now_ns();
        per_cpu[c].push_back(static_cast<double>(t1 - t0) / chunk);
        t0 = t1;
      }
      counts.attempted += n + per_replay;
    }
  }
  pin_to(cpus);
  g_sink = sum;
}

// ----------------------------------------------------------------- setup

struct SetupTimes {
  double total_s = 0, install_s = 0, csv_s = 0, train_s = 0,
         write_verify_s = 0, load_s = 0, attach_s = 0, first_decision_s = 0;
};

enum class LoadFrom { kFile, kShm, kBoth };

/// install() from the fixture with the pinned model into `work_dir`, then
/// the artefact load (file, shm region, or both) through the first decision.
AdsalaGemm set_up(const Args& args, const std::string& work_dir, int pool,
                  LoadFrom from, SetupTimes& t, Tracer& tracer) {
  Scope setup_span(tracer, "setup");
  const std::string dir = work_dir + "/artefacts";
  const std::string region = work_dir + "/region";
  fs::create_directories(dir);
  adsala::core::InstallOptions opts;
  opts.reuse_timings_csv = args.fixture;
  opts.train.candidates = {kPinnedModel};
  opts.train.tune = false;
  opts.output_dir = dir;
  opts.save_raw_csv = false;
  if (from != LoadFrom::kFile) opts.publish_shm = region;
  adsala::core::NativeExecutor executor(pool);

  const std::int64_t t0 = now_ns();
  adsala::core::InstallReport report;
  {
    Scope install_span(tracer, "install");
    report = adsala::core::install(executor, opts);
    // install() times its CSV load and training itself; the rest of its
    // span is write, verify and (for shm) publish.
    const std::int64_t csv_end =
        t0 + static_cast<std::int64_t>(report.gather_seconds * 1e9);
    const std::int64_t train_end =
        csv_end + static_cast<std::int64_t>(report.train_seconds * 1e9);
    tracer.record("install.csv_load", t0, csv_end);
    tracer.record("install.train", csv_end, train_end);
    tracer.record("install.write_verify", train_end, now_ns());
  }
  const std::int64_t t1 = now_ns();
  t.install_s = static_cast<double>(t1 - t0) * 1e-9;
  t.csv_s = report.gather_seconds;
  t.train_s = report.train_seconds;
  t.write_verify_s = t.install_s - t.csv_s - t.train_s;

  std::optional<AdsalaGemm> rt;
  if (from != LoadFrom::kShm) {
    Scope span(tracer, "load");
    const std::int64_t s = now_ns();
    auto loaded = AdsalaGemm::try_load(report.model_path, report.config_path);
    t.load_s = static_cast<double>(now_ns() - s) * 1e-9;
    if (!loaded.ok()) {
      throw std::runtime_error("try_load: " + loaded.error().message);
    }
    rt.emplace(std::move(loaded).value());
  }
  if (from != LoadFrom::kFile) {
    Scope span(tracer, "attach");
    const std::int64_t s = now_ns();
    auto attached = AdsalaGemm::try_attach(region);
    t.attach_s = static_cast<double>(now_ns() - s) * 1e-9;
    if (!attached.ok()) {
      throw std::runtime_error("try_attach: " + attached.error().message);
    }
    rt.emplace(std::move(attached).value());
  }
  {
    Scope span(tracer, "first_decision");
    const std::int64_t s = now_ns();
    rt->query(OpKind::kGemm, 64, 2048, 64, 4);
    t.first_decision_s = static_cast<double>(now_ns() - s) * 1e-9;
  }
  t.total_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (rt->model_name() != kPinnedModel || rt->max_threads() != pool) {
    throw std::runtime_error("artefact does not carry the pinned model and "
                             "the pool size");
  }
  return std::move(*rt);
}

// ------------------------------------------------------- serve decisions

struct ServeResult {
  std::vector<double> batch_ns;      ///< ns per decision, one per batch
  double decisions_per_s = 0.0;      ///< summed over the callers
  long decisions = 0;
  long never_seen = 0;               ///< queries of never-seen shapes
  long swaps = 0;
  /// Share of the hot keys the memo held at swap time (NaN: no swap).
  double hot_resident = 0.0;
  long failed = 0;
};

/// A shape no other query of this run uses: the coordinates are unique per
/// (thread, counter), and the odd second coordinate never matches the hot
/// set (all of whose coordinates are even).
Call never_seen(int tid, int threads, std::uint64_t counter) {
  const OpKind op =
      adsala::blas::all_ops()[counter % adsala::blas::kNumOps];
  const std::uint64_t k = counter / adsala::blas::kNumOps;
  Call c;
  c.op = op;
  c.x = 1 + tid + static_cast<long>(threads) * static_cast<long>(k % 2000);
  c.y = 17 + 2 * static_cast<long>((k / 2000) % 2000);
  c.z = c.y + 2;
  c.elem = (k & 1) != 0 ? 8 : 4;
  return c;
}

/// One caller's query schedule, cycled through: kScheduleLength entries, of
/// which exactly round(length / miss_one_in) are never-seen shapes (-1) and
/// the rest index the hot set round-robin, in a seeded order.
std::vector<int> serve_schedule(std::size_t hot_size, double miss_one_in,
                                std::uint64_t seed) {
  const auto misses = static_cast<std::size_t>(std::lround(
      static_cast<double>(kScheduleLength) / miss_one_in));
  std::vector<int> schedule(kScheduleLength);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    schedule[i] = i < misses ? -1 : static_cast<int>(i % hot_size);
  }
  shuffle(schedule, seed);
  return schedule;
}

/// `threads` closed-loop callers issue query() over the hot set, with one
/// never-seen shape in `miss_one_in`, while one more thread republishes the
/// current generation once per kSwapEveryDecisions served queries. Each
/// caller has a CPU of its own.
ServeResult serve_phase(AdsalaGemm& rt, const std::vector<Call>& hot,
                        int threads, double seconds, double miss_one_in,
                        std::uint64_t seed) {
  struct alignas(64) Slot {
    long decisions = 0;
    long never_seen = 0;
    std::vector<double> batch_ns;
    long failed = 0;
    long sink = 0;  ///< keeps the queries from being optimised away
  };
  std::vector<Slot> slots(static_cast<std::size_t>(threads));
  const std::vector<int> cpus = allowed_cpus();
  std::atomic<bool> stop{false};
  std::atomic<long> served{0};
  long swaps = 0, resident = 0;
  ServeResult out;
  {
    std::vector<std::jthread> workers;
    // Declared after `workers`, so it raises `stop` before they are joined,
    // also when starting a thread throws.
    struct StopOnExit {
      std::atomic<bool>& flag;
      ~StopOnExit() { flag.store(true); }
    } stop_on_exit{stop};
    for (int tid = 0; tid < threads; ++tid) {
      workers.emplace_back([&, tid] {
        Slot& slot = slots[static_cast<std::size_t>(tid)];
        try {
          const std::vector<int> schedule = serve_schedule(
              hot.size(), miss_one_in,
              seed * 1000003ull + static_cast<std::uint64_t>(tid));
          std::uint64_t pos = 0, misses = seed * 4099ull;
          pin_to({cpus[static_cast<std::size_t>(tid) % cpus.size()]});
          while (!stop.load(std::memory_order_relaxed)) {
            const std::int64_t t0 = now_ns();
            for (long i = 0; i < kQueryBatch; ++i) {
              const int s = schedule[pos++ % schedule.size()];
              const Call c = s < 0 ? never_seen(tid, threads, misses++)
                                   : hot[static_cast<std::size_t>(s)];
              slot.sink += rt.query(c.op, c.x, c.y, c.z, c.elem).threads;
            }
            slot.batch_ns.push_back(static_cast<double>(now_ns() - t0) /
                                    static_cast<double>(kQueryBatch));
            slot.decisions += kQueryBatch;
            served.fetch_add(kQueryBatch, std::memory_order_relaxed);
          }
          slot.never_seen = static_cast<long>(misses - seed * 4099ull);
        } catch (...) {
          ++slot.failed;
        }
      });
    }
    workers.emplace_back([&] {
      long next = kSwapEveryDecisions;
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (served.load(std::memory_order_relaxed) < next) continue;
        next += kSwapEveryDecisions;
        // How much of the hot set the memo still holds when the generation
        // (and with it the memo) is replaced: never-seen shapes evict hot
        // keys from the direct-mapped slots.
        const auto snap = rt.snapshot();
        for (const Call& c : hot) {
          const auto s =
              adsala::core::op_traits(c.op).to_shape(c.x, c.y, c.z, c.elem);
          int t = 0;
          resident += snap->memo.lookup(
              adsala::core::MemoCache::pack_key(c.op, s.m, s.k, s.n, c.elem),
              &t);
        }
        // Replaced generations stay retained while the callers run: they
        // read snapshots through raw pointers, and only a quiescent point
        // (after the join) makes dropping one safe.
        rt.install(snap);
        ++swaps;
      }
    });

    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }  // stops and joins every thread
  rt.evict_below(rt.snapshot_version());
  for (Slot& s : slots) {
    const long n = s.decisions;
    double busy_ns = 0.0;
    for (double b : s.batch_ns) busy_ns += b * static_cast<double>(kQueryBatch);
    // Each caller's own throughput; the callers run side by side, so the
    // sum is the rate the whole process served.
    if (busy_ns > 0.0) {
      out.decisions_per_s += static_cast<double>(n) * 1e9 / busy_ns;
    }
    out.decisions += n;
    out.never_seen += s.never_seen;
    out.failed += s.failed;
    out.batch_ns.insert(out.batch_ns.end(), s.batch_ns.begin(),
                        s.batch_ns.end());
  }
  out.swaps = swaps;
  out.hot_resident =
      static_cast<double>(resident) /
      static_cast<double>(swaps * static_cast<long>(hot.size()));
  return out;
}

// ------------------------------------------------------ decision quality

/// Per distinct call: wall time at every grid thread count (median of three
/// timed runs of `call.repeats` calls), the runtime's choice and the
/// max-thread default. Ratios are combined with the geometric mean.
void decision_quality(const std::vector<Call>& calls, Workspace& ws,
                      AdsalaGemm& rt, Counts& counts, bool smoke,
                      std::vector<Metric>& out) {
  const std::vector<int> grid = rt.thread_grid();
  std::vector<double> speedup, capture;
  long loses = 0;
  for (const Call& c : calls) {
    std::map<int, double> t_at;
    for (int p : grid) {
      std::vector<double> reps;
      for (int r = 0; r < (smoke ? 1 : 3); ++r) {
        double s = 0.0;
        for (long i = 0; i < c.repeats; ++i) {
          ++counts.attempted;
          s += run_call(c, ws, rt, Path::kFixed, p);
        }
        reps.push_back(s);
      }
      t_at[p] = median(reps);
    }
    const int chosen = rt.select_threads(c.op, c.x, c.y, c.z, c.elem);
    double best = t_at.begin()->second;
    for (const auto& [p, t] : t_at) best = std::min(best, t);
    const double t_max = t_at[grid.back()];
    const double t_chosen = t_at[chosen];
    speedup.push_back(t_max / t_chosen);
    capture.push_back(best / t_chosen);
    // "Loses" = slower than the max-thread default by more than 5 %.
    if (t_chosen > 1.05 * t_max) ++loses;
  }
  out.push_back({"select.speedup_vs_max.geomean", geomean(speedup), "ratio"});
  out.push_back({"select.speedup_vs_max.p10", adsala::percentile(speedup, 10.0),
                 "ratio"});
  out.push_back({"select.oracle_capture", geomean(capture), "ratio"});
  out.push_back({"select.loses_to_max_share",
                 static_cast<double>(loses) / static_cast<double>(calls.size()),
                 "ratio"});
}

// ---------------------------------------------------------------- output

void print_result(bool correct, const Counts& counts,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("ops_attempted %ld\nops_failed %ld\n", counts.attempted,
              counts.failed);
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(counts.attempted) +
                     ", \"failed\": " + std::to_string(counts.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void add_tail(const std::string& name, const std::vector<double>& xs,
              double scale, const std::string& unit,
              std::vector<Metric>& out) {
  const Tail t = tail_of(xs);
  std::printf("tail %s = p%.2f of %zu samples\n", name.c_str(), t.percentile,
              t.samples);
  out.push_back({name, t.value * scale, unit});
}

// ---------------------------------------------------------- fixture mode

int gather_fixture(const std::string& dir) {
  // One vCPU is left to the OS and to the benchmark's own helper threads
  // (NOTES.md, "pool size").
  const int pool = static_cast<int>(std::max(1L, nproc() - 1));
  setenv("ADSALA_THREADS", std::to_string(pool).c_str(), 1);
  fs::create_directories(dir);
  adsala::core::NativeExecutor executor(pool);
  adsala::core::InstallOptions opts;
  opts.gather.n_samples = kGatherShapesPerOp;
  opts.gather.iterations = kGatherIterations;
  opts.gather.domain = domain(kGatherSeed);
  const auto ops = adsala::blas::all_ops();
  opts.gather.ops.assign(ops.begin(), ops.end());
  opts.train.candidates = {kPinnedModel};
  opts.train.tune = false;
  opts.output_dir = dir;
  const CpuTimes c0 = read_cpu_times();
  const std::string load0 = read_loadavg();
  const auto report = adsala::core::install(executor, opts);
  const CpuTimes c1 = read_cpu_times();
  fs::remove(report.model_path);
  fs::remove(report.config_path);
  const double total = c1.total - c0.total;
  std::ofstream meta(dir + "/gather.json");
  meta << "{\n  \"tool\": \"perfbench --gather-fixture\",\n"
       << "  \"ops\": [\"gemm\", \"syrk\", \"trsm\", \"symm\", \"trmm\"],\n"
       << "  \"shapes_per_op\": " << kGatherShapesPerOp << ",\n"
       << "  \"iterations\": " << kGatherIterations << ",\n"
       << "  \"domain\": {\"memory_cap_bytes\": " << kDomainCapBytes
       << ", \"elem_bytes\": 4, \"dim_max\": " << kDomainDimMax
       << ", \"seed\": " << kGatherSeed << "},\n"
       << "  \"thread_grid_max\": " << pool << ",\n"
       << "  \"pinned_model\": \"" << kPinnedModel << "\",\n"
       << "  \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\",\n"
       << "  \"kernel_tier\": \""
       << adsala::blas::kernels::variant_name(
              adsala::blas::kernels::active_variant())
       << "\",\n"
       << "  \"nproc\": " << nproc() << ",\n"
       << "  \"gather_seconds\": " << num(report.gather_seconds) << ",\n"
       << "  \"loadavg_start\": " << load0 << ",\n"
       << "  \"loadavg_end\": " << read_loadavg() << ",\n"
       << "  \"steal_frac\": " << num((c1.steal - c0.steal) / total) << ",\n"
       << "  \"idle_frac\": " << num((c1.idle - c0.idle) / total) << "\n}\n";
  std::printf("fixture written to %s (%zu curves, gather %.1f s)\n",
              dir.c_str(), report.gathered.records.size(),
              report.gather_seconds);
  return 0;
}

// ------------------------------------------------------------------ main

int run(const Args& args) {
  const CpuTimes cpu0 = read_cpu_times();
  const std::string load0 = read_loadavg();
  // Pool size = the fixture's maximum thread count, which becomes the
  // artefact's max_threads; it must fit the host.
  const int pool =
      adsala::core::GatherData::load_csv(args.fixture).max_threads;
  if (pool < 1 || pool > nproc()) {
    std::fprintf(stderr, "perfbench: fixture max_threads %d does not fit "
                 "nproc %ld\n", pool, nproc());
    return 2;
  }
  setenv("ADSALA_THREADS", std::to_string(pool).c_str(), 1);
  if (static_cast<int>(adsala::ThreadPool::global().max_threads()) != pool) {
    std::fprintf(stderr, "perfbench: thread pool was sized before set-up\n");
    return 2;
  }
  fs::create_directories(args.work_dir);

  const bool serve = args.workload == "serve_decisions";
  const bool fresh = args.workload == "fresh_shapes";
  const double seconds = args.smoke ? 0.0 : args.seconds;
  Tracer tracer;
  tracer.set_enabled(args.trace);
  Counts counts;
  std::vector<Metric> metrics;

  // Set-up: the first one serves the run. The traced run repeats it here;
  // the untraced run repeats it between its timed passes, into a directory
  // of its own (see extra_setup). The median is setup_s.
  std::vector<SetupTimes> setups(1);
  const LoadFrom from =
      args.trace ? LoadFrom::kBoth : (serve ? LoadFrom::kShm : LoadFrom::kFile);
  std::optional<AdsalaGemm> rt;
  rt.emplace(set_up(args, args.work_dir, pool, from, setups[0], tracer));
  const int setup_repeats = args.smoke ? 1 : kSetupRepeats;
  auto extra_setup = [&] {
    SetupTimes t;
    set_up(args, args.work_dir + "/extra", pool, from, t, tracer);
    setups.push_back(t);
  };
  if (args.trace) {
    while (static_cast<int>(setups.size()) < setup_repeats) extra_setup();
  }
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const SetupTimes& t : setups) xs.push_back(t.*field);
    return median(xs);
  };

  // The workload's BLAS call list: serve_decisions executes its hot set.
  std::vector<Call> list;
  if (fresh) {
    list = fresh_list(args.seed);
  } else {
    list = small_list(args.seed, 4);
    if (serve) {
      const auto f64 = small_list(args.seed, 8);
      list.insert(list.end(), f64.begin(), f64.end());
    }
  }
  // A pass is one round of the list. Short passes keep the median pass
  // clear of the hypervisor's steal slices where the calls are small
  // (NOTES.md, "Measured noise"); every call of the list is in every pass.
  const std::vector<Call>& pass = list;
  if (fresh) {
    for (const Call& c : list) {
      std::printf("shape %s: %s flops x %ld\n", c.label().c_str(),
                  num(c.flops()).c_str(), c.repeats);
    }
  }
  Workspace ws(list, args.seed);

  // Correctness: every distinct call at the runtime's choice and at the
  // pool maximum, and every decision against the direct argmin.
  std::uint64_t check_seed = args.seed * 7919 + 1;
  for (const Call& c : list) {
    for (Path path : {Path::kAdsala, Path::kFixed}) {
      ++counts.attempted;
      bool ok = false;
      try {
        ok = check_call(c, ws, *rt, path, pool, check_seed++);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s threw: %s\n", c.label().c_str(),
                     e.what());
      }
      if (!ok) {
        ++counts.failed;
        std::fprintf(stderr, "perfbench: wrong result for %s (%s)\n",
                     c.label().c_str(),
                     path == Path::kAdsala ? "chosen p" : "max p");
      }
    }
    ++counts.attempted;
    if (!check_decision(*rt, c)) {
      ++counts.failed;
      std::fprintf(stderr, "perfbench: decision mismatch for %s\n",
                   c.label().c_str());
    }
  }
  if (serve) {
    for (std::uint64_t i = 0; i < 60; ++i) {
      ++counts.attempted;
      const Call c = never_seen(pool, pool + 1, i);
      if (!check_decision(*rt, c)) {
        ++counts.failed;
        std::fprintf(stderr, "perfbench: decision mismatch for %s\n",
                     c.label().c_str());
      }
    }
  }

  // Warm-up: one pass per path. Spans are recorded only in set-up and the
  // traced passes.
  tracer.set_enabled(false);
  run_pass(pass, ws, *rt, Path::kAdsala, pool, counts, tracer);
  run_pass(pass, ws, *rt, Path::kFixed, pool, counts, tracer);

  const double blas_seconds = serve ? seconds * kServeBlasShare : seconds;
  const double pflops = pass_flops(pass);

  if (!args.trace) {
    // ADSALA and max-thread passes interleaved (alternating which goes
    // first), so noise epochs hit both; between them, the set-ups and the
    // decision samples fall due by time. Every call's time is kept per
    // position in the pass for the call-median estimates.
    std::vector<double> ads, mx, dec;
    std::vector<std::vector<double>> dec_cpu;
    int dec_rounds = 0;
    std::vector<std::vector<double>> ads_calls(list.size()),
        mx_calls(list.size());
    auto adsala_pass = [&] {
      ads.push_back(run_pass(pass, ws, *rt, Path::kAdsala, pool, counts,
                             tracer, &ads_calls));
    };
    auto max_pass = [&] {
      mx.push_back(run_pass(pass, ws, *rt, Path::kFixed, pool, counts, tracer,
                            &mx_calls));
    };
    const std::int64_t start = now_ns();
    const std::int64_t end =
        start + static_cast<std::int64_t>(blas_seconds * 1e9);
    double pass_time_s = 0.0;  // of the ADSALA and max passes so far
    const auto setup_every = static_cast<std::int64_t>(
        blas_seconds * 1e9 / static_cast<double>(setup_repeats));
    for (int i = 0; i == 0 || now_ns() < end; ++i) {
      while (static_cast<int>(setups.size()) < setup_repeats &&
             now_ns() - start >=
                 static_cast<std::int64_t>(setups.size()) * setup_every) {
        extra_setup();
      }
      const std::int64_t pair_start = now_ns();
      if (i % 2 == 0) {
        adsala_pass();
        max_pass();
      } else {
        max_pass();
        adsala_pass();
      }
      pass_time_s += static_cast<double>(now_ns() - pair_start) * 1e-9;
      const int due =
          static_cast<int>(pass_time_s / kDecisionSampleEvery_s) -
          dec_rounds;
      if (!serve && due > 0) {
        run_decisions(pass, *rt, due, counts, dec_cpu);
        dec_rounds += due;
      }
    }
    while (static_cast<int>(setups.size()) < setup_repeats) extra_setup();
    if (!serve && dec_rounds == 0) run_decisions(pass, *rt, 1, counts, dec_cpu);
    double rate = 0.0, dec_p50 = 0.0;
    if (serve) {
      const double miss_one_in = fresh_miss_one_in();
      const ServeResult sr =
          serve_phase(*rt, list, pool, args.smoke ? 0.15 : seconds - blas_seconds,
                      miss_one_in, args.seed);
      counts.attempted += sr.decisions;
      counts.failed += sr.failed;
      dec = sr.batch_ns;
      dec_p50 = median(dec);
      rate = sr.decisions_per_s;
      std::printf("serve: %ld decisions by %d query threads; never seen: %ld "
                  "(1 in %s, target 1 in %s); %ld swaps (1 per %ld "
                  "decisions); hot keys in the memo at swap time: %s\n",
                  sr.decisions, pool, sr.never_seen,
                  num(static_cast<double>(sr.decisions) /
                      static_cast<double>(std::max(1L, sr.never_seen)))
                      .c_str(),
                  num(miss_one_in).c_str(), sr.swaps, kSwapEveryDecisions,
                  num(sr.hot_resident).c_str());
    } else {
      // The CPUs' median chunks, averaged: the vCPUs of a shared host run
      // at different speeds, and a median over all chunks would sit on the
      // edge between two CPUs' modes.
      for (const auto& xs : dec_cpu) {
        dec_p50 += median(xs) / static_cast<double>(dec_cpu.size());
        dec.insert(dec.end(), xs.begin(), xs.end());
      }
      rate = 1e9 / dec_p50;
      std::printf("decisions per CPU (median chunk, ns):");
      for (const auto& xs : dec_cpu) std::printf(" %.2f", median(xs));
      std::printf("\n");
    }
    // Gated: the pass at every call's median (sum_of_call_medians). A
    // pass of small calls at three threads is hit by a hypervisor steal
    // slice more often than not, so the whole-pass median followed each
    // run's steal time; it and the whole-pass tail are printed for
    // diagnosis (NOTES.md, "Pass metrics").
    const double pass_s = sum_of_call_medians(ads_calls, pass);
    const double max_pass_s = sum_of_call_medians(mx_calls, pass);
    std::printf("set-ups (s):");
    for (const SetupTimes& t : setups) std::printf(" %.4f", t.total_s);
    std::printf("\n");
    metrics.push_back({"setup_s", setup_median(&SetupTimes::total_s), "s"});
    metrics.push_back({"gflops", pflops / pass_s * 1e-9, "GFLOP/s"});
    metrics.push_back({"max_gflops", pflops / max_pass_s * 1e-9, "GFLOP/s"});
    metrics.push_back({"pass_p50_ms", pass_s * 1e3, "ms"});
    const Tail pass_tail = tail_of(ads);
    std::printf("whole passes (not gated): adsala median %s ms, tail p%.2f "
                "%s ms of %zu passes; max median %s ms\n",
                num(median(ads) * 1e3).c_str(), pass_tail.percentile,
                num(pass_tail.value * 1e3).c_str(), pass_tail.samples,
                num(median(mx) * 1e3).c_str());
    metrics.push_back({"decisions_per_s", rate, "1/s"});
    metrics.push_back({"decision_p50_ns", dec_p50, "ns"});
    if (serve) {
      add_tail("decision_tail_ns", dec, 1.0, "ns", metrics);
    } else {
      const Tail far = tail_of(dec);
      std::printf("tail decision_tail_ns = p%g of %zu chunks of whole "
                  "replays, at least %ld decisions each; not gated: p%.4f %s "
                  "ns, the highest percentile with 10 chunks beyond it\n",
                  kDecisionTailPct, dec.size(), kDecisionChunk, far.percentile,
                  num(far.value).c_str());
      metrics.push_back({"decision_tail_ns",
                         adsala::percentile(dec, kDecisionTailPct), "ns"});
    }
    std::printf("passes: %zu adsala, %zu max, %ld calls and %.4g GFLOP each\n",
                ads.size(), mx.size(), pass_calls(pass), pflops * 1e-9);
  } else {
    // Traced run: untraced and traced ADSALA passes alternate; the traced
    // ones record pass -> call -> select / blas.<op> spans and the pack
    // pipeline's timers. Their difference is the tracing overhead.
    auto& pstats = adsala::blas::detail::pipeline_stats();
    pstats.reset();
    const std::size_t growths0 = adsala::PackArena::global().growth_count();
    std::vector<double> plain, traced;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(0.4 * seconds * 1e9);
    for (int i = 0; i == 0 || now_ns() < end; ++i) {
      tracer.set_enabled(false);
      plain.push_back(run_pass(pass, ws, *rt, Path::kAdsala, pool, counts, tracer));
      tracer.set_enabled(true);
      pstats.timing_enabled.store(true);
      traced.push_back(run_pass(pass, ws, *rt, Path::kTraced, pool, counts, tracer));
      pstats.timing_enabled.store(false);
    }
    const double growths = static_cast<double>(
        adsala::PackArena::global().growth_count() - growths0);

    metrics.push_back({"core.train_ms", setup_median(&SetupTimes::train_s) * 1e3, "ms"});
    metrics.push_back({"core.write_verify_ms",
                       setup_median(&SetupTimes::write_verify_s) * 1e3, "ms"});
    metrics.push_back({"core.load_ms", setup_median(&SetupTimes::load_s) * 1e3, "ms"});
    metrics.push_back({"core.attach_ms", setup_median(&SetupTimes::attach_s) * 1e3, "ms"});
    metrics.push_back({"core.first_decision_us",
                       setup_median(&SetupTimes::first_decision_s) * 1e6, "us"});
    probe_select(*rt, list, metrics);
    probe_common_and_blas(*rt, pool, metrics);
    metrics.push_back({"arena.growths", growths, "count"});
    metrics.push_back({"arena.footprint_bytes",
                       static_cast<double>(
                           adsala::PackArena::global().footprint_bytes()),
                       "bytes"});
    const double tiles = static_cast<double>(pstats.tiles.load());
    const double pack_ns = static_cast<double>(pstats.pack_ns.load());
    const double compute_ns = static_cast<double>(pstats.compute_ns.load());
    metrics.push_back({"blas.pipeline.steals_per_tile",
                       tiles > 0 ? static_cast<double>(pstats.steals.load()) / tiles : 0.0,
                       "ratio"});
    metrics.push_back({"blas.pipeline.pack_frac",
                       pack_ns + compute_ns > 0 ? pack_ns / (pack_ns + compute_ns) : 0.0,
                       "ratio"});
    decision_quality(list, ws, *rt, counts, args.smoke, metrics);
    add_tail("pass_tail_ms", plain, 1e3, "ms", metrics);
    metrics.push_back({"trace.overhead_pct",
                       (median(traced) / median(plain) - 1.0) * 100.0, "%"});
    // Self time per pass of every span on the blocking path of a pass.
    const auto self = tracer.self_ns_by_name();
    const double n_passes = static_cast<double>(traced.size());
    for (const char* name : {"pass", "call", "select", "blas.gemm", "blas.syrk",
                             "blas.trsm", "blas.symm", "blas.trmm"}) {
      double ns = 0.0;
      for (const auto& [span, v] : self) {
        if (span == name) ns = v;
      }
      metrics.push_back({std::string("trace.self_us_per_pass.") + name,
                         ns / n_passes * 1e-3, "us"});
    }
  }

  const CpuTimes cpu1 = read_cpu_times();
  const double dt = cpu1.total - cpu0.total;
  std::ostringstream prov;
  prov << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
       << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"kernel_tier\": \""
       << adsala::blas::kernels::variant_name(
              adsala::blas::kernels::active_variant())
       << "\", \"nproc\": " << nproc() << ", \"pool_size\": "
       << adsala::ThreadPool::global().max_threads()
       << ", \"artefact_max_threads\": " << rt->max_threads()
       << ", \"pinned_model\": \"" << rt->model_name()
       << "\", \"fixture_fnv1a64\": \"" << fnv1a64_file(args.fixture)
       << "\", \"loadavg_start\": " << load0
       << ", \"loadavg_end\": " << read_loadavg()
       << ", \"steal_frac\": " << num(dt > 0 ? (cpu1.steal - cpu0.steal) / dt : 0.0)
       << ", \"idle_frac\": " << num(dt > 0 ? (cpu1.idle - cpu0.idle) / dt : 0.0)
       << "}";
  std::printf("provenance %s\n", prov.str().c_str());
  if (args.trace) {
    const std::string path = args.trace_out.empty()
                                 ? args.work_dir + "/trace.json"
                                 : args.trace_out;
    tracer.write(path, prov.str());
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  print_result(counts.failed == 0, counts, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    if (!args.gather_dir.empty()) return perfbench::gather_fixture(args.gather_dir);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
