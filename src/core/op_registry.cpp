// The one translation unit that knows every operation end to end. Each
// kOpTraits row bundles: shape canonicalisation, domain sampler, analytic
// cost model, and the native timing closure. This file (plus the blas/op.h
// name table and the op's own kernel file) is the complete footprint of an
// operation — every other layer iterates or looks up the registry.
#include "core/op_registry.h"

#include <algorithm>
#include <stdexcept>

#include "blas/gemm.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "common/timer.h"

namespace adsala::core {

namespace {

// ------------------------------------------------- shape canonicalisation --
// Stored-shape conventions of docs/OPERATIONS.md: the redundant dimension is
// the family marker (m == n: syrk family; m == k: triangular/symmetric).

simarch::GemmShape gemm_to_shape(long m, long k, long n, int elem_bytes) {
  return {m, k, n, elem_bytes};
}
void gemm_from_shape(const simarch::GemmShape& s, long* m, long* k, long* n) {
  *m = s.m;
  *k = s.k;
  *n = s.n;
}

simarch::GemmShape syrk_to_shape(long n, long k, long, int elem_bytes) {
  return {n, k, n, elem_bytes};
}
void syrk_from_shape(const simarch::GemmShape& s, long* n, long* k, long*) {
  *n = s.n;
  *k = s.k;
}

simarch::GemmShape tri_to_shape(long n, long m, long, int elem_bytes) {
  return {n, n, m, elem_bytes};
}
void tri_from_shape(const simarch::GemmShape& s, long* n, long* m, long*) {
  *n = s.m;
  *m = s.n;
}

// ---------------------------------------------------------------- domains --
// The built-in families alias the named samplers (sampling/domain.h) so the
// registry and direct construction share one rotation stream per op; TRMM,
// landed after the samplers were generalised, carries its spec right here.

std::unique_ptr<sampling::DomainSampler> make_gemm_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::GemmDomainSampler>(config);
}
std::unique_ptr<sampling::DomainSampler> make_syrk_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::SyrkDomainSampler>(config);
}
std::unique_ptr<sampling::DomainSampler> make_trsm_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::TrsmDomainSampler>(config);
}
std::unique_ptr<sampling::DomainSampler> make_symm_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::SymmDomainSampler>(config);
}

/// TRMM footprint: A triangle (n x n) + B (n x m) + the in-place product's
/// dense B workspace (n x m).
double trmm_footprint(const simarch::GemmShape& s) {
  return static_cast<double>(s.elem_bytes) *
         (static_cast<double>(s.m) * s.m +
          2.0 * static_cast<double>(s.m) * s.n);
}

std::unique_ptr<sampling::DomainSampler> make_trmm_sampler(
    const sampling::DomainConfig& config) {
  return std::make_unique<sampling::Family2DSampler>(
      sampling::Family2DSpec{"TrmmDomainSampler", 0x3e8d5b71ull,
                             /*m_equals_n=*/false, &trmm_footprint},
      config);
}

// ---------------------------------------------------- native measurement --
// Operands are 64-byte aligned and filled with pseudo-random values; one
// warm-up call precedes the timed iterations (paper SS V-B.3).

/// The one timing loop: one warm-up call (pulls operands into cache state
/// comparable across runs and wakes the pool threads), then the mean
/// wall-clock seconds of `iterations` calls.
template <typename Call>
double mean_call_seconds(int iterations, Call&& call) {
  call();
  WallTimer timer;
  for (int it = 0; it < iterations; ++it) call();
  return timer.seconds() / std::max(iterations, 1);
}

/// Fills `buf` with uniform draws from [-1, 1), in index order.
template <typename T>
void fill_uniform(AlignedBuffer<T>& buf, Rng& rng) {
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<T>(rng.uniform(-1.0, 1.0));
  }
}

template <typename T>
double measure_gemm_typed(const simarch::GemmShape& shape, int nthreads,
                          int iterations) {
  const auto m = static_cast<int>(shape.m);
  const auto k = static_cast<int>(shape.k);
  const auto n = static_cast<int>(shape.n);
  AlignedBuffer<T> a(static_cast<std::size_t>(m) * k);
  AlignedBuffer<T> b(static_cast<std::size_t>(k) * n);
  AlignedBuffer<T> c(static_cast<std::size_t>(m) * n);
  Rng rng(0x5eedu + static_cast<std::uint64_t>(m * 131 + k * 17 + n));
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  return mean_call_seconds(iterations, [&] {
    blas::gemm<T>(blas::Trans::kNo, blas::Trans::kNo, m, n, k, T(1), a.data(),
                  k, b.data(), n, T(0), c.data(), n, nthreads);
  });
}

template <typename T>
double measure_syrk_typed(const simarch::GemmShape& shape, int nthreads,
                          int iterations) {
  const auto n = static_cast<int>(shape.n);
  const auto k = static_cast<int>(shape.k);
  AlignedBuffer<T> a(static_cast<std::size_t>(n) * k);
  AlignedBuffer<T> c(static_cast<std::size_t>(n) * n);
  Rng rng(0x5eedu + static_cast<std::uint64_t>(n * 131 + k * 17));
  fill_uniform(a, rng);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  return mean_call_seconds(iterations, [&] {
    blas::syrk<T>(blas::Uplo::kLower, blas::Trans::kNo, n, k, T(1), a.data(),
                  k, T(0), c.data(), n, nthreads);
  });
}

template <typename T>
double measure_trsm_typed(const simarch::GemmShape& shape, int nthreads,
                          int iterations) {
  const auto n = static_cast<int>(shape.m);  // triangle dimension (m == k)
  const auto r = static_cast<int>(shape.n);  // right-hand-side columns
  AlignedBuffer<T> a(static_cast<std::size_t>(n) * n);
  AlignedBuffer<T> b(static_cast<std::size_t>(n) * r);
  Rng rng(0x5eedu + static_cast<std::uint64_t>(n * 131 + r * 17));
  fill_uniform(a, rng);
  // Diagonally dominant triangle: repeated in-place solves stay bounded
  // (||inv(A)|| < 1), so the timed iterations never drift into inf/denormal
  // territory.
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = T(n + 1);
  fill_uniform(b, rng);
  return mean_call_seconds(iterations, [&] {
    blas::trsm<T>(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit,
                  n, r, T(1), a.data(), n, b.data(), r, nthreads);
  });
}

template <typename T>
double measure_symm_typed(const simarch::GemmShape& shape, int nthreads,
                          int iterations) {
  const auto n = static_cast<int>(shape.m);  // symmetric dimension (m == k)
  const auto r = static_cast<int>(shape.n);  // B/C columns
  AlignedBuffer<T> a(static_cast<std::size_t>(n) * n);
  AlignedBuffer<T> b(static_cast<std::size_t>(n) * r);
  AlignedBuffer<T> c(static_cast<std::size_t>(n) * r);
  Rng rng(0x5eedu + static_cast<std::uint64_t>(n * 131 + r * 17));
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = T(0);
  return mean_call_seconds(iterations, [&] {
    blas::symm<T>(blas::Uplo::kLower, n, r, T(1), a.data(), n, b.data(), r,
                  T(0), c.data(), r, nthreads);
  });
}

template <typename T>
double measure_trmm_typed(const simarch::GemmShape& shape, int nthreads,
                          int iterations) {
  const auto n = static_cast<int>(shape.m);  // triangle dimension (m == k)
  const auto r = static_cast<int>(shape.n);  // B columns
  AlignedBuffer<T> a(static_cast<std::size_t>(n) * n);
  AlignedBuffer<T> b(static_cast<std::size_t>(n) * r);
  Rng rng(0x5eedu + static_cast<std::uint64_t>(n * 131 + r * 17));
  // Contraction (||A|| < 1): repeated in-place products decay gently instead
  // of overflowing, so the timed iterations stay in normal-number range.
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<T>(rng.uniform(-1.0, 1.0) * 0.5 / n);
  }
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = T(0.9);
  fill_uniform(b, rng);
  return mean_call_seconds(iterations, [&] {
    blas::trmm<T>(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit,
                  n, r, T(1), a.data(), n, b.data(), r, nthreads);
  });
}

/// fp32/fp64 split shared by every native closure.
template <double (*F32)(const simarch::GemmShape&, int, int),
          double (*F64)(const simarch::GemmShape&, int, int)>
double by_elem(const simarch::GemmShape& shape, int nthreads, int iterations) {
  return shape.elem_bytes == 8 ? F64(shape, nthreads, iterations)
                               : F32(shape, nthreads, iterations);
}

// ---------------------------------------------------------------- the table --

constexpr std::uint64_t kTrmmNoiseSalt = 0x54524d4dull;  // "TRMM"

constexpr OpTraits kOpTraits[] = {
    {
        .op = blas::OpKind::kGemm,
        .family_dims = 3,
        .coord_names = {"m", "k", "n"},
        .to_shape = &gemm_to_shape,
        .from_shape = &gemm_from_shape,
        .make_sampler = &make_gemm_sampler,
        .cost = simarch::kGemmCostModel,
        .measure_native =
            &by_elem<&measure_gemm_typed<float>, &measure_gemm_typed<double>>,
    },
    {
        .op = blas::OpKind::kSyrk,
        .family_dims = 2,
        .coord_names = {"n", "k", nullptr},
        .to_shape = &syrk_to_shape,
        .from_shape = &syrk_from_shape,
        .make_sampler = &make_syrk_sampler,
        .cost = simarch::kSyrkCostModel,
        .measure_native =
            &by_elem<&measure_syrk_typed<float>, &measure_syrk_typed<double>>,
    },
    {
        .op = blas::OpKind::kTrsm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_trsm_sampler,
        .cost = simarch::kTrsmCostModel,
        .measure_native =
            &by_elem<&measure_trsm_typed<float>, &measure_trsm_typed<double>>,
    },
    {
        .op = blas::OpKind::kSymm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_symm_sampler,
        .cost = simarch::kSymmCostModel,
        .measure_native =
            &by_elem<&measure_symm_typed<float>, &measure_symm_typed<double>>,
    },
    {
        // TRMM — the registry's proof row: triangle-fraction kernel work
        // like SYRK/TRSM, plus a packing surcharge for the dense B pre-copy
        // the in-place product needs (between GEMM's 1.0 and SYMM's 1.3).
        .op = blas::OpKind::kTrmm,
        .family_dims = 2,
        .coord_names = {"n", "m", nullptr},
        .to_shape = &tri_to_shape,
        .from_shape = &tri_from_shape,
        .make_sampler = &make_trmm_sampler,
        .cost = {.triangle_kernel = true,
                 .copy_mult = 1.2,
                 .noise_salt = kTrmmNoiseSalt},
        .measure_native =
            &by_elem<&measure_trmm_typed<float>, &measure_trmm_typed<double>>,
    },
};

/// Registry completeness, checked at compile time: one traits row per
/// blas/op.h table row, in code order.
static_assert(std::size(kOpTraits) == blas::kNumOps,
              "every blas/op.h row needs an OpTraits row");
static_assert([] {
  for (std::size_t i = 0; i < blas::kNumOps; ++i) {
    if (kOpTraits[i].op != blas::detail::kOpTable[i].op) return false;
  }
  return true;
}(), "OpTraits rows must follow blas/op.h table (code) order");

}  // namespace

const OpTraits& op_traits(blas::OpKind op) {
  const int code = blas::op_code(op);
  if (code < 0 || static_cast<std::size_t>(code) >= std::size(kOpTraits)) {
    throw std::logic_error("op_traits: unregistered operation");
  }
  return kOpTraits[code];
}

std::span<const OpTraits> op_registry() { return kOpTraits; }

}  // namespace adsala::core
