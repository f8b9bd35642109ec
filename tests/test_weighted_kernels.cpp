// Tests for the weighted 3x3 convolution kernels (Gaussian / Laplacian),
// including end-to-end engine runs.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/engine.hpp"

namespace smache {
namespace {

grid::Grid<word_t> random_image(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  grid::Grid<word_t> g(n, n);
  for (std::size_t i = 0; i < g.size(); ++i)
    g[i] = to_word(static_cast<std::int32_t>(rng.next_below(256)));
  return g;
}

TEST(WeightedKernels, GaussianUniformFieldIsFixedPoint) {
  // Sum of weights = 16, >>4: a constant field maps to itself.
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(100), true};
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple)),
            100);
}

TEST(WeightedKernels, LaplacianFlatFieldIsZero) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(37), true};
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            0);
}

TEST(WeightedKernels, LaplacianDetectsPointEdge) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {to_word<std::int32_t>(0), true};
  tuple[4] = {to_word<std::int32_t>(10), true};  // bright centre pixel
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            80);
}

TEST(WeightedKernels, MissingElementsExtendTheCentre) {
  std::vector<grid::TupleElem> tuple(9);
  for (auto& e : tuple) e = {0, false};
  tuple[4] = {to_word<std::int32_t>(50), true};
  // All neighbours replaced by the centre -> Gaussian fixed point,
  // Laplacian zero.
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple)),
            50);
  EXPECT_EQ(from_word<std::int32_t>(
                rtl::apply_kernel(rtl::KernelSpec::laplacian3x3(), tuple)),
            0);
}

TEST(WeightedKernels, GaussianEndToEndMatchesReference) {
  ProblemSpec p;
  p.height = 12;
  p.width = 12;
  p.shape = grid::StencilShape::moore9();
  p.bc = grid::BoundarySpec::all_mirror();
  p.kernel = rtl::KernelSpec::gaussian3x3();
  p.steps = 3;
  const auto img = random_image(12, 61);
  for (auto arch : {Architecture::Smache, Architecture::Baseline}) {
    EngineOptions opts;
    opts.arch = arch;
    EXPECT_EQ(Engine(opts).run(p, img).output, reference_run(p, img))
        << to_string(arch);
  }
}

TEST(WeightedKernels, LaplacianEndToEndMatchesReference) {
  ProblemSpec p;
  p.height = 10;
  p.width = 14;
  p.shape = grid::StencilShape::moore9();
  p.bc = grid::BoundarySpec::all_open();
  p.kernel = rtl::KernelSpec::laplacian3x3();
  p.steps = 2;
  const auto img = random_image(14, 62);
  grid::Grid<word_t> init(10, 14);
  for (std::size_t r = 0; r < 10; ++r)
    for (std::size_t c = 0; c < 14; ++c) init.at(r, c) = img.at(r, c);
  EXPECT_EQ(Engine(EngineOptions::smache()).run(p, init).output,
            reference_run(p, init));
}

TEST(WeightedKernels, RejectsNonMooreTuples) {
  std::vector<grid::TupleElem> tuple(4);
  EXPECT_THROW(rtl::apply_kernel(rtl::KernelSpec::gaussian3x3(), tuple),
               contract_error);
}

TEST(WeightedKernels, NamesAreDescriptive) {
  EXPECT_EQ(rtl::KernelSpec::gaussian3x3().name(), "gaussian3x3/i32");
  EXPECT_EQ(rtl::KernelSpec::laplacian3x3().name(), "laplacian3x3/i32");
}

}  // namespace
}  // namespace smache
