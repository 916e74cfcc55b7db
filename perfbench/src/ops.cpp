// Statistics, span recording, operand set-up, the three call paths and the
// correctness checks of the benchmark.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/rng.h"
#include "core/op_registry.h"
#include "core/trainer.h"
#include "perfbench.h"

namespace perfbench {

using adsala::blas::OpKind;
using adsala::blas::Trans;
using adsala::blas::Uplo;
using adsala::blas::Diag;

// ------------------------------------------------------------ statistics

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

Tail tail_of(std::vector<double> xs) {
  Tail out;
  out.samples = xs.size();
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = xs.size() > 10 ? xs.size() - 11 : xs.size() - 1;
  out.value = xs[idx];
  out.percentile =
      100.0 * static_cast<double>(idx + 1) / static_cast<double>(xs.size());
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------- tracing

std::uint32_t Tracer::open(const char* name) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.name = name;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(span.id);
  return span.id;
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = stack_.empty() ? 0 : stack_.back();
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<std::pair<std::string, double>> Tracer::self_ns_by_name() const {
  // Children never overlap on the single recording thread, so the part of a
  // span its children cover is the sum of their durations.
  std::vector<double> child_ns(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::pair<std::string, double>> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const Span& s : spans_) {
    const double self =
        static_cast<double>(s.end_ns - s.start_ns) - child_ns[s.id];
    auto [it, fresh] = index.emplace(s.name, out.size());
    if (fresh) out.emplace_back(s.name, 0.0);
    out[it->second].second += self;
  }
  return out;
}

void Tracer::write(const std::string& path,
                   const std::string& provenance) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  out << "{\"provenance\": " << provenance << ",\n \"spans\": [\n";
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"start_ns\": "
        << (s.start_ns - t0) << ", \"end_ns\": " << (s.end_ns - t0) << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << " ]}\n";
}

// ------------------------------------------------------------------ calls

namespace {

struct Dims {
  long a = 0, b = 0, c = 0;  ///< elements of A, B and C
};

Dims dims_of(const Call& c) {
  switch (c.op) {
    case OpKind::kGemm: return {c.x * c.y, c.y * c.z, c.x * c.z};
    case OpKind::kSyrk: return {c.x * c.y, 0, c.x * c.x};
    case OpKind::kSymm: return {c.x * c.x, c.x * c.y, c.x * c.y};
    case OpKind::kTrsm:
    case OpKind::kTrmm: return {c.x * c.x, c.x * c.y, 0};
  }
  return {};
}

bool triangular(OpKind op) {
  return op == OpKind::kTrsm || op == OpKind::kTrmm;
}

const char* blas_span_name(OpKind op) {
  switch (op) {
    case OpKind::kGemm: return "blas.gemm";
    case OpKind::kSyrk: return "blas.syrk";
    case OpKind::kTrsm: return "blas.trsm";
    case OpKind::kSymm: return "blas.symm";
    case OpKind::kTrmm: return "blas.trmm";
  }
  return "blas";
}

template <typename T>
Operands<T>& operands(Workspace& ws);
template <>
Operands<float>& operands<float>(Workspace& ws) { return ws.f32; }
template <>
Operands<double>& operands<double>(Workspace& ws) { return ws.f64; }

/// Plain substrate call at an explicit thread count.
template <typename T>
void run_blas(const Call& c, Operands<T>& o, int p) {
  const int x = static_cast<int>(c.x), y = static_cast<int>(c.y),
            z = static_cast<int>(c.z);
  T* a = o.a.data();
  T* b = o.b.data();
  T* cc = o.c.data();
  switch (c.op) {
    case OpKind::kGemm:
      adsala::blas::gemm<T>(Trans::kNo, Trans::kNo, x, z, y, T(1), a, y, b, z,
                            T(0), cc, z, p);
      break;
    case OpKind::kSyrk:
      adsala::blas::syrk<T>(Uplo::kLower, Trans::kNo, x, y, T(1), a, y, T(0),
                            cc, x, p);
      break;
    case OpKind::kTrsm:
      adsala::blas::trsm<T>(Uplo::kLower, Trans::kNo, Diag::kUnit, x, y, T(1),
                            a, x, b, y, p);
      break;
    case OpKind::kSymm:
      adsala::blas::symm<T>(Uplo::kLower, x, y, T(1), a, x, b, y, T(0), cc, y,
                            p);
      break;
    case OpKind::kTrmm:
      adsala::blas::trmm<T>(Uplo::kLower, Trans::kNo, Diag::kUnit, x, y, T(1),
                            a, x, b, y, p);
      break;
  }
}

void run_adsala(const Call& c, Operands<float>& o,
                adsala::core::AdsalaGemm& rt) {
  const int x = static_cast<int>(c.x), y = static_cast<int>(c.y),
            z = static_cast<int>(c.z);
  switch (c.op) {
    case OpKind::kGemm:
      rt.sgemm(x, z, y, 1.f, o.a.data(), y, o.b.data(), z, 0.f, o.c.data(), z);
      break;
    case OpKind::kSyrk:
      rt.ssyrk(Uplo::kLower, x, y, 1.f, o.a.data(), y, 0.f, o.c.data(), x);
      break;
    case OpKind::kTrsm:
      rt.strsm(Uplo::kLower, Trans::kNo, Diag::kUnit, x, y, 1.f, o.a.data(), x,
               o.b.data(), y);
      break;
    case OpKind::kSymm:
      rt.ssymm(Uplo::kLower, x, y, 1.f, o.a.data(), x, o.b.data(), y, 0.f,
               o.c.data(), y);
      break;
    case OpKind::kTrmm:
      // AdsalaGemm has no TRMM wrapper; its public route is the generic
      // select_threads followed by the substrate call.
      run_blas<float>(c, o, rt.select_threads(c.op, c.x, c.y, c.z, 4));
      break;
  }
}

void run_adsala(const Call& c, Operands<double>& o,
                adsala::core::AdsalaGemm& rt) {
  const int x = static_cast<int>(c.x), y = static_cast<int>(c.y),
            z = static_cast<int>(c.z);
  switch (c.op) {
    case OpKind::kGemm:
      rt.dgemm(x, z, y, 1.0, o.a.data(), y, o.b.data(), z, 0.0, o.c.data(), z);
      break;
    case OpKind::kSyrk:
      rt.dsyrk(Uplo::kLower, x, y, 1.0, o.a.data(), y, 0.0, o.c.data(), x);
      break;
    case OpKind::kTrsm:
      rt.dtrsm(Uplo::kLower, Trans::kNo, Diag::kUnit, x, y, 1.0, o.a.data(), x,
               o.b.data(), y);
      break;
    case OpKind::kSymm:
      rt.dsymm(Uplo::kLower, x, y, 1.0, o.a.data(), x, o.b.data(), y, 0.0,
               o.c.data(), y);
      break;
    case OpKind::kTrmm:
      run_blas<double>(c, o, rt.select_threads(c.op, c.x, c.y, c.z, 8));
      break;
  }
}

template <typename T>
void restore_in_place(const Call& c, Operands<T>& o) {
  if (triangular(c.op)) {
    std::memcpy(o.b.data(), o.b_pristine.data(),
                static_cast<std::size_t>(dims_of(c).b) * sizeof(T));
  }
}

template <typename T>
double run_typed(const Call& c, Workspace& ws, adsala::core::AdsalaGemm& rt,
                 Path path, int threads, Tracer* tracer) {
  Operands<T>& o = operands<T>(ws);
  const std::int64_t t0 = now_ns();
  switch (path) {
    case Path::kAdsala:
      run_adsala(c, o, rt);
      break;
    case Path::kFixed:
      run_blas<T>(c, o, threads);
      break;
    case Path::kTraced: {
      Scope call_span(*tracer, "call");
      int p = 0;
      {
        Scope select_span(*tracer, "select");
        p = rt.select_threads(c.op, c.x, c.y, c.z, c.elem);
      }
      Scope blas_span(*tracer, blas_span_name(c.op));
      run_blas<T>(c, o, p);
      break;
    }
  }
  const std::int64_t t1 = now_ns();
  restore_in_place(c, o);
  return static_cast<double>(t1 - t0) * 1e-9;
}

// ------------------------------------------------------- correctness checks

/// Accessors over the operands of one call in the uniform form
/// R = L * X (TRSM: L * R = X), where L is the effective left operand
/// (A, or the symmetric / unit-triangular matrix its stored triangle
/// describes) and X the right one (B, or A^T for SYRK).
template <typename T>
struct CheckView {
  const Call& c;
  const T* a;
  const T* x_mat;  ///< B before the call (the pristine copy)
  const T* r;      ///< the call's result
  long rows = 0, inner = 0, cols = 0;

  double L(long i, long j) const {
    switch (c.op) {
      case OpKind::kGemm:
      case OpKind::kSyrk: return a[i * inner + j];
      case OpKind::kSymm: return i >= j ? a[i * rows + j] : a[j * rows + i];
      case OpKind::kTrsm:
      case OpKind::kTrmm:
        return i == j ? 1.0 : (i > j ? a[i * rows + j] : 0.0);
    }
    return 0.0;
  }
  double X(long i, long j) const {
    if (c.op == OpKind::kSyrk) return a[j * inner + i];
    return x_mat[i * cols + j];
  }
  double R(long i, long j) const {
    if (c.op == OpKind::kSyrk) {
      return i >= j ? r[i * cols + j] : r[j * cols + i];
    }
    return r[i * cols + j];
  }
};

template <typename T>
bool within(double got, double want, double scale, long inner) {
  const double eps = std::numeric_limits<T>::epsilon();
  const double tol = 16.0 * eps * static_cast<double>(inner + 2) * scale +
                     std::numeric_limits<T>::min();
  return std::isfinite(got) && std::fabs(got - want) <= tol;
}

/// Two-sided Freivalds test: R x == L (X x) and (y^T L) X == y^T R for
/// random x, y (TRSM: L (R x) == X x and (y^T L) R == y^T X), each within a
/// rounding bound built from the absolute values of the same products.
template <typename T>
bool freivalds(const CheckView<T>& v, std::uint64_t seed) {
  adsala::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(v.cols)),
      y(static_cast<std::size_t>(v.rows));
  for (double& e : x) e = rng.uniform(-1.0, 1.0);
  for (double& e : y) e = rng.uniform(-1.0, 1.0);
  const bool solve = v.c.op == OpKind::kTrsm;
  const long rows = v.rows, inner = v.inner, cols = v.cols;

  // Right side. mid = (solve ? R : X) x, computed with its |.| twin.
  std::vector<double> mid(static_cast<std::size_t>(inner)),
      mid_abs(static_cast<std::size_t>(inner));
  for (long i = 0; i < inner; ++i) {
    double s = 0.0, sa = 0.0;
    for (long j = 0; j < cols; ++j) {
      const double e = solve ? v.R(i, j) : v.X(i, j);
      s += e * x[j];
      sa += std::fabs(e * x[j]);
    }
    mid[i] = s;
    mid_abs[i] = sa;
  }
  for (long i = 0; i < rows; ++i) {
    double lhs = 0.0, lhs_abs = 0.0;
    for (long j = 0; j < inner; ++j) {
      lhs += v.L(i, j) * mid[j];
      lhs_abs += std::fabs(v.L(i, j)) * mid_abs[j];
    }
    double rhs = 0.0, rhs_abs = 0.0;
    for (long j = 0; j < cols; ++j) {
      const double e = solve ? v.X(i, j) : v.R(i, j);
      rhs += e * x[j];
      rhs_abs += std::fabs(e * x[j]);
    }
    if (!within<T>(rhs, lhs, lhs_abs + rhs_abs, inner)) return false;
  }

  // Left side: w = y^T L, then w (solve ? R : X) against y^T (solve ? X : R).
  std::vector<double> w(static_cast<std::size_t>(inner), 0.0),
      w_abs(static_cast<std::size_t>(inner), 0.0);
  for (long i = 0; i < rows; ++i) {
    for (long j = 0; j < inner; ++j) {
      w[j] += y[i] * v.L(i, j);
      w_abs[j] += std::fabs(y[i] * v.L(i, j));
    }
  }
  // Row-major sweeps accumulating one entry per column.
  std::vector<double> lhs(static_cast<std::size_t>(cols), 0.0),
      lhs_abs(static_cast<std::size_t>(cols), 0.0),
      rhs(static_cast<std::size_t>(cols), 0.0),
      rhs_abs(static_cast<std::size_t>(cols), 0.0);
  for (long i = 0; i < inner; ++i) {
    for (long j = 0; j < cols; ++j) {
      const double e = solve ? v.R(i, j) : v.X(i, j);
      lhs[j] += w[i] * e;
      lhs_abs[j] += w_abs[i] * std::fabs(e);
    }
  }
  for (long i = 0; i < rows; ++i) {
    for (long j = 0; j < cols; ++j) {
      const double e = solve ? v.X(i, j) : v.R(i, j);
      rhs[j] += y[i] * e;
      rhs_abs[j] += std::fabs(y[i] * e);
    }
  }
  for (long j = 0; j < cols; ++j) {
    if (!within<T>(rhs[j], lhs[j], lhs_abs[j] + rhs_abs[j], inner)) {
      return false;
    }
  }
  return true;
}

/// Element-wise comparison with the naive reference routine, normwise
/// tolerance (both results carry rounding error of order K * eps * |L||X|).
template <typename T>
bool matches_reference(const CheckView<T>& v) {
  const Call& c = v.c;
  const int x = static_cast<int>(c.x), y = static_cast<int>(c.y),
            z = static_cast<int>(c.z);
  const std::size_t n_out =
      static_cast<std::size_t>(v.rows) * static_cast<std::size_t>(v.cols);
  std::vector<T> ref(n_out, T(0));
  switch (c.op) {
    case OpKind::kGemm:
      adsala::blas::reference_gemm<T>(Trans::kNo, Trans::kNo, x, z, y, T(1),
                                      v.a, y, v.x_mat, z, T(0), ref.data(), z);
      break;
    case OpKind::kSyrk:
      adsala::blas::reference_syrk<T>(Uplo::kLower, Trans::kNo, x, y, T(1),
                                      v.a, y, T(0), ref.data(), x);
      break;
    case OpKind::kSymm:
      adsala::blas::reference_symm<T>(Uplo::kLower, x, y, T(1), v.a, x,
                                      v.x_mat, y, T(0), ref.data(), y);
      break;
    case OpKind::kTrsm:
    case OpKind::kTrmm:
      std::copy(v.x_mat, v.x_mat + n_out, ref.begin());
      if (c.op == OpKind::kTrsm) {
        adsala::blas::reference_trsm<T>(Uplo::kLower, Trans::kNo, Diag::kUnit,
                                        x, y, T(1), v.a, x, ref.data(), y);
      } else {
        adsala::blas::reference_trmm<T>(Uplo::kLower, Trans::kNo, Diag::kUnit,
                                        x, y, T(1), v.a, x, ref.data(), y);
      }
      break;
  }
  double l_norm = 0.0, x_max = 0.0, ref_max = 0.0;
  for (long i = 0; i < v.rows; ++i) {
    double row = 0.0;
    for (long j = 0; j < v.inner; ++j) row += std::fabs(v.L(i, j));
    l_norm = std::max(l_norm, row);
  }
  for (long i = 0; i < v.inner; ++i) {
    for (long j = 0; j < v.cols; ++j) x_max = std::max(x_max, std::fabs(v.X(i, j)));
  }
  for (T e : ref) ref_max = std::max(ref_max, std::fabs(static_cast<double>(e)));
  const double scale = std::max(ref_max, l_norm * x_max);
  for (long i = 0; i < v.rows; ++i) {
    // SYRK writes the lower triangle only.
    const long j_end = c.op == OpKind::kSyrk ? i + 1 : v.cols;
    for (long j = 0; j < j_end; ++j) {
      const double want = ref[static_cast<std::size_t>(i * v.cols + j)];
      if (!within<T>(v.R(i, j), want, scale, v.inner)) return false;
    }
  }
  return true;
}

/// Calls whose naive reference stays cheap (at most ~20 MFLOP).
constexpr double kReferenceFlopLimit = 2e7;

template <typename T>
bool check_typed(const Call& c, Workspace& ws, adsala::core::AdsalaGemm& rt,
                 Path path, int threads, std::uint64_t seed) {
  Operands<T>& o = operands<T>(ws);
  // Run without restoring, so the in-place result is still in B.
  if (path == Path::kAdsala) {
    run_adsala(c, o, rt);
  } else {
    run_blas<T>(c, o, threads);
  }
  CheckView<T> v{c, o.a.data(), o.b_pristine.data(),
                 triangular(c.op) ? o.b.data() : o.c.data()};
  switch (c.op) {
    case OpKind::kGemm: v.rows = c.x; v.inner = c.y; v.cols = c.z; break;
    case OpKind::kSyrk: v.rows = c.x; v.inner = c.y; v.cols = c.x; break;
    default: v.rows = c.x; v.inner = c.x; v.cols = c.y; break;
  }
  bool ok = freivalds(v, seed);
  if (ok && c.flops() <= kReferenceFlopLimit) ok = matches_reference(v);
  restore_in_place(c, o);
  return ok;
}

}  // namespace

double Call::flops() const {
  const double a = static_cast<double>(x), b = static_cast<double>(y),
               c = static_cast<double>(z);
  switch (op) {
    case OpKind::kGemm: return adsala::blas::gemm_flops(a, b, c);
    case OpKind::kSyrk: return adsala::blas::syrk_flops(a, b);
    case OpKind::kTrsm: return adsala::blas::trsm_flops(a, b);
    case OpKind::kSymm: return adsala::blas::symm_flops(a, b);
    case OpKind::kTrmm: return adsala::blas::trmm_flops(a, b);
  }
  return 0.0;
}

std::string Call::label() const {
  char buf[96];
  if (op == OpKind::kGemm) {
    std::snprintf(buf, sizeof(buf), "%s/f%d(%ld,%ld,%ld)",
                  adsala::blas::op_name(op), elem * 8, x, y, z);
  } else {
    std::snprintf(buf, sizeof(buf), "%s/f%d(%ld,%ld)",
                  adsala::blas::op_name(op), elem * 8, x, y);
  }
  return buf;
}

template <typename T>
void Operands<T>::reserve(const std::vector<Call>& calls, std::uint64_t seed) {
  Dims need;
  long tri_n = 1;
  for (const Call& c : calls) {
    if (c.elem != static_cast<int>(sizeof(T))) continue;
    const Dims d = dims_of(c);
    need.a = std::max(need.a, d.a);
    need.b = std::max(need.b, d.b);
    need.c = std::max(need.c, d.c);
    if (triangular(c.op)) tri_n = std::max(tri_n, c.x);
  }
  if (need.a == 0) return;
  a = adsala::AlignedBuffer<T>(static_cast<std::size_t>(need.a));
  b = adsala::AlignedBuffer<T>(static_cast<std::size_t>(std::max(1L, need.b)));
  b_pristine =
      adsala::AlignedBuffer<T>(static_cast<std::size_t>(std::max(1L, need.b)));
  c = adsala::AlignedBuffer<T>(static_cast<std::size_t>(std::max(1L, need.c)));
  adsala::Rng rng(seed);
  // Off-diagonal magnitudes of at most 1/n keep the unit triangular solves
  // well conditioned for every TRSM of the workload.
  const double a_scale = 1.0 / static_cast<double>(tri_n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0) * a_scale);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
  std::memcpy(b_pristine.data(), b.data(), b.size() * sizeof(T));
  std::fill(c.data(), c.data() + c.size(), T(0));
}

Workspace::Workspace(const std::vector<Call>& calls, std::uint64_t seed) {
  f32.reserve(calls, seed);
  f64.reserve(calls, seed ^ 0x9e3779b97f4a7c15ull);
}

double run_call(const Call& call, Workspace& ws, adsala::core::AdsalaGemm& rt,
                Path path, int threads, Tracer* tracer) {
  return call.elem == 4
             ? run_typed<float>(call, ws, rt, path, threads, tracer)
             : run_typed<double>(call, ws, rt, path, threads, tracer);
}

bool check_call(const Call& call, Workspace& ws, adsala::core::AdsalaGemm& rt,
                Path path, int threads, std::uint64_t seed) {
  return call.elem == 4
             ? check_typed<float>(call, ws, rt, path, threads, seed)
             : check_typed<double>(call, ws, rt, path, threads, seed);
}

bool check_decision(const adsala::core::AdsalaGemm& rt, const Call& call) {
  const auto snap = rt.snapshot();
  if (snap->model == nullptr) return false;
  const auto shape = adsala::core::op_traits(call.op).to_shape(
      call.x, call.y, call.z, call.elem);
  const std::size_t best = adsala::core::predict_best_grid_index(
      *snap->model, snap->pipeline, shape, snap->thread_grid, call.op);
  const int want = snap->thread_grid[best];
  // Twice: the first answer may come from the model, the second from the
  // memo; both must equal the direct argmin.
  for (int round = 0; round < 2; ++round) {
    const auto d = rt.query(call.op, call.x, call.y, call.z, call.elem);
    if (d.threads != want ||
        d.mode != adsala::core::ServingMode::kModelServed) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
