// Reproduces Table I of the paper: estimated vs actual on-chip memory
// utilisation for the 4-point stencil problem on 11x11 and 1024x1024
// grids, with the stream buffer in register-only (r) and hybrid (h)
// configurations.
//
// "Estimate" = the analytic cost model on the planned buffer architecture
// (no physical rounding, no control overhead), exactly like the paper's
// estimate rows. "Actual" = the elaborated design: every register/BramBank the
// RTL instantiates reports its bits to the resource ledger, with
// synthesis-style physical rounding on BRAM banks; Rtotal additionally
// includes the controller's FSM/counter registers — which is why actual
// exceeds estimate, as in the paper.
//
// Paper reference (bits):
//   11x11r     Estimate Rsm=800   Bsc=1408    | Actual Rsm=928  Bsc=1536
//   11x11h     Estimate Rsm=352   Bsm=448     | Actual Rsm=355  Bsm=512
//   1024x1024r Estimate Rsm=65632 Bsc=131072  | Actual Rsm=65670 Bsc=131200
//   1024x1024h Estimate Rsm=352   Bsm=65280   | Actual Rsm=362  Bsm=65536
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/report.hpp"

int main() {
  using smache::model::StreamImpl;

  struct Row {
    std::size_t dim;
    StreamImpl impl;
    const char* label;
  };
  const std::vector<Row> rows = {
      {11, StreamImpl::RegisterOnly, "11x11r"},
      {11, StreamImpl::Hybrid, "11x11h"},
      {1024, StreamImpl::RegisterOnly, "1024x1024r"},
      {1024, StreamImpl::Hybrid, "1024x1024h"},
  };

  std::printf("=== Table I: estimated vs actual on-chip memory (bits) ===\n");
  std::printf("R = registers, B = BRAM; sc = static buffers, sm = stream "
              "buffer\n\n");

  for (const Row& row : rows) {
    smache::ProblemSpec p = smache::ProblemSpec::paper_example();
    p.height = row.dim;
    p.width = row.dim;
    p.steps = 1;
    // Elaborate without simulating (the 1M-cell grid is a resource study).
    const auto res = smache::Engine(smache::EngineOptions::smache(row.impl))
                         .elaborate_only(p);
    std::printf("%s",
                smache::format_table1_rows(row.label, res).c_str());
    std::printf("  (M20K blocks: %llu)\n\n",
                static_cast<unsigned long long>(res.resources.m20k_blocks));
  }

  std::printf("paper reference rows (bits):\n");
  std::printf("  11x11r     est Rsm 800,   Bsc 1408   | act Rsm 928,  Rtot "
              "998,  Bsc 1536\n");
  std::printf("  11x11h     est Rsm 352,   Bsm 448    | act Rsm 355,  Rtot "
              "425,  Bsm 512 (Btot 2048)\n");
  std::printf("  1024x1024r est Rsm 65632, Bsc 131072 | act Rsm 65670, Rtot "
              "66857, Bsc 131200\n");
  std::printf("  1024x1024h est Rsm 352,   Bsm 65280  | act Rsm 362,  Rtot "
              "1549, Bsm 65536 (Btot 196736)\n");
  return 0;
}
