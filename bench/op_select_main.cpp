// The ONE main behind every per-operation thread-selection bench. CMake
// compiles this file once per benched family with ADSALA_OP_SELECT_NAME set
// ("syrk" -> bench_syrk_select, ...), so adding a select bench for a newly
// registered operation is one name in the CMakeLists loop — the harness
// (op_select_common.h) pulls the sampler, selection entry point, and row
// labels from the op's registry row.
//
// Per family, the bench compares the measured runtime at the model-selected
// thread count against the platform maximum (the paper's "as many threads as
// cores" default) over an independent test set, and reports how often the
// op-aware answer differs from the GEMM-proxy answer a GEMM-only model
// gives. Results land in BENCH_<op>_select.json.
#include <cstdio>

#include "op_select_common.h"

#ifndef ADSALA_OP_SELECT_NAME
#error "compile with -DADSALA_OP_SELECT_NAME=\"<registered op name>\""
#endif

int main() {
  const auto op = adsala::blas::parse_op(ADSALA_OP_SELECT_NAME);
  if (!op) {
    std::fprintf(stderr, "unregistered operation: %s\n",
                 ADSALA_OP_SELECT_NAME);
    return 2;
  }
  return adsala::bench::run_op_select_bench(*op);
}
