// Table-I-style peak-fraction bench for every kernel declared in the
// pw::stencil registry. For each registered StencilSpec the run:
//
//   * models a single U280 kernel instance at the paper's 16M grid through
//     the spec-derived fpga::perf_model entry (stencil::perf_input), and
//   * measures every single-thread engine (reference, fused, chunked host,
//     lane-batched) on this host (scaled-down grid), each run held
//     bit-identical to the kernel's scalar reference.
//
// Alongside the ASCII table it dumps a registry-backed JSON artefact
// (default BENCH_stencils.json, override with --json=). Two gauges carry
// gates in scripts/check_bench_json.py:
//
//   * stencils.bench.bit_exact is 1.0 only when every engine's run of every
//     kernel bit-matched its reference;
//   * stencils.bench.max_engine_over_reference is the largest median engine
//     time over the median reference-engine time, across kernels and
//     engines. All engines share one raw-row pass and differ only in how
//     they cut the grid, so this stays near 1; a path that emulates the
//     shift buffer value by value takes 2-10x the reference and breaks
//     the gate.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/fpga/perf_model.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/stencil/advect.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/table.hpp"
#include "pw/util/timer.hpp"

namespace {

struct EngineRun {
  pw::stencil::Engine engine;
  const char* name;
};

/// The engines that run on the calling thread alone; the threaded ones
/// would compare core counts, not passes.
constexpr EngineRun kEngines[] = {
    {pw::stencil::Engine::kReference, "reference"},
    {pw::stencil::Engine::kFused, "fused"},
    {pw::stencil::Engine::kChunkedHost, "chunked_host"},
    {pw::stencil::Engine::kLaneBatched, "lane_batched"},
};
constexpr std::size_t kEngineCount = sizeof(kEngines) / sizeof(kEngines[0]);

/// Timed runs per engine and kernel, interleaved across engines so a slow
/// phase of the host hits them alike; the median of 15 keeps the 1.5x gate
/// clear of single slow runs while the whole bench stays under a second.
constexpr int kReps = 15;

struct MeasuredRun {
  std::array<double, kEngineCount> median_s{};  ///< per kEngines entry
  bool bit_exact = true;
};

bool terms_bit_equal(const pw::advect::SourceTerms& a,
                     const pw::advect::SourceTerms& b) {
  return pw::grid::compare_interior(a.su, b.su).bit_equal() &&
         pw::grid::compare_interior(a.sv, b.sv).bit_equal() &&
         pw::grid::compare_interior(a.sw, b.sw).bit_equal();
}

/// Times kReps runs of `run` on every engine of kEngines, round-robin, and
/// bit-compares each run against the scalar reference from `reference`.
template <typename Reference, typename Run>
MeasuredRun measure(const pw::grid::GridDims& dims, Reference&& reference,
                    Run&& run) {
  pw::advect::SourceTerms expected(dims);
  reference(expected);

  std::array<std::vector<double>, kEngineCount> times;
  MeasuredRun measured;
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t e = 0; e < kEngineCount; ++e) {
      pw::stencil::EngineConfig config;
      config.engine = kEngines[e].engine;
      pw::advect::SourceTerms got(dims);
      pw::util::WallTimer timer;
      run(got, config);
      times[e].push_back(timer.seconds());
      measured.bit_exact = measured.bit_exact && terms_bit_equal(expected, got);
    }
  }
  for (std::size_t e = 0; e < kEngineCount; ++e) {
    std::sort(times[e].begin(), times[e].end());
    measured.median_s[e] = times[e][times[e].size() / 2];
  }
  return measured;
}

std::string pct(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f%%", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);

  // Modelled at the paper's Table I grid; measured on a host-friendly one.
  const grid::GridDims model_dims = grid::paper_grid(16);
  const grid::GridDims dims{
      static_cast<std::size_t>(cli.get_int("nx", 32)),
      static_cast<std::size_t>(cli.get_int("ny", 64)),
      static_cast<std::size_t>(cli.get_int("nz", 32))};

  auto state = std::make_unique<grid::WindState>(dims);
  grid::init_random(*state, 2026);
  const auto coefficients = advect::PwCoefficients::from_geometry(
      grid::Geometry::uniform(dims, 100.0, 100.0, 25.0));

  stencil::DiffusionParams diffusion;
  diffusion.kappa = 12.5;
  stencil::PoissonParams poisson;
  poisson.iterations =
      static_cast<std::size_t>(cli.get_int("poisson_iters", 8));

  obs::MetricsRegistry registry;
  util::Table table("Stencil-machine kernels: modelled single U280 kernel at " +
                    util::format_cells(model_dims.cells()) +
                    " cells, single-thread engines measured at " +
                    util::format_cells(dims.cells()) + " cells");
  table.header({"kernel", "flops/cell", "sweeps", "model GF/s", "% of peak",
                "host GF/s", "max engine/ref", "bit-exact"});

  bool all_bit_exact = true;
  double max_engine_over_reference = 0.0;
  for (const stencil::StencilSpec& spec : stencil::registered_stencils()) {
    // The spec-derived analytic model row, published through the registry
    // (gauges stencils.<name>.model.gflops / .pct_of_theoretical_peak / ...).
    std::size_t sweeps = spec.sweeps;
    fpga::KernelOnlyInput input = stencil::perf_input(spec, model_dims);
    if (spec.name == "poisson_jacobi") {
      input.sweeps = poisson.iterations;
      sweeps = poisson.iterations;
    }
    const fpga::KernelOnlyResult model = fpga::model_kernel_only(input);
    const std::string prefix = "stencils." + spec.name;
    fpga::record_kernel_only(input, model, registry, prefix + ".model");

    // The measured host row for the same kernel.
    const std::uint64_t flops = stencil::total_flops(spec, dims, sweeps);
    MeasuredRun measured;
    if (spec.name == "advect_pw") {
      measured = measure(
          dims,
          [&](advect::SourceTerms& out) {
            advect::advect_reference(*state, coefficients, out);
          },
          [&](advect::SourceTerms& out, const stencil::EngineConfig& config) {
            stencil::run_advect(*state, coefficients, out, config);
          });
    } else if (spec.name == "diffusion") {
      measured = measure(
          dims,
          [&](advect::SourceTerms& out) {
            stencil::diffusion_reference(*state, diffusion, out);
          },
          [&](advect::SourceTerms& out, const stencil::EngineConfig& config) {
            stencil::run_diffusion(*state, diffusion, out, config);
          });
    } else if (spec.name == "poisson_jacobi") {
      measured = measure(
          dims,
          [&](advect::SourceTerms& out) {
            stencil::poisson_reference(*state, poisson, out);
          },
          [&](advect::SourceTerms& out, const stencil::EngineConfig& config) {
            stencil::run_poisson(*state, poisson, out, config);
          });
    } else {
      std::fprintf(stderr, "no host driver for registry kernel '%s'\n",
                   spec.name.c_str());
      return 1;
    }
    all_bit_exact = all_bit_exact && measured.bit_exact;

    // Host GF/s and the .measured.* gauges follow the fused engine.
    const double fused_s = measured.median_s[1];  // kEngines[1]
    const double gflops =
        fused_s > 0.0 ? static_cast<double>(flops) / fused_s / 1e9 : 0.0;
    double worst = 0.0;
    for (std::size_t e = 0; e < kEngineCount; ++e) {
      const double ratio = measured.median_s[0] > 0.0
                               ? measured.median_s[e] / measured.median_s[0]
                               : 0.0;
      worst = std::max(worst, ratio);
      registry.gauge_set(prefix + "." + kEngines[e].name + ".median_s",
                         measured.median_s[e]);
      registry.gauge_set(prefix + "." + kEngines[e].name + ".over_reference",
                         ratio);
    }
    max_engine_over_reference = std::max(max_engine_over_reference, worst);

    registry.gauge_set(prefix + ".measured.gflops", gflops);
    registry.gauge_set(prefix + ".measured.seconds", fused_s);
    registry.gauge_set(prefix + ".measured.bit_exact",
                       measured.bit_exact ? 1.0 : 0.0);

    table.row({spec.name, util::format_double(spec.flops_per_cell, 0),
               std::to_string(sweeps), util::format_double(model.gflops, 2),
               pct(model.efficiency * 100.0), util::format_double(gflops, 2),
               util::format_double(worst, 2),
               measured.bit_exact ? "yes" : "NO"});
  }

  registry.gauge_set("stencils.bench.bit_exact", all_bit_exact ? 1.0 : 0.0);
  registry.gauge_set("stencils.bench.max_engine_over_reference",
                     max_engine_over_reference);
  registry.gauge_set("stencils.bench.kernels",
                     static_cast<double>(stencil::registered_stencils().size()));

  const int status = bench::emit(table, cli);
  const int json_status =
      bench::emit_registry(registry, "BENCH_stencils.json", cli);
  if (!all_bit_exact) {
    std::fprintf(stderr,
                 "stencil_kernels: a kernel diverged from its reference\n");
    return 1;
  }
  return status != 0 ? status : json_status;
}
