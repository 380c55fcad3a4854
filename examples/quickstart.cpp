// Quickstart: the recommended entry point is pw::api::Solver — pick a
// kernel (PW advection by default) via SolverOptions.kernel_spec, pack
// fields (+ coefficients for advection) + options into a SolveRequest,
// call solve() (or submit() for a SolveFuture), get source terms plus a
// metrics snapshot.
// This example runs the PW advection scheme through every backend (scalar
// reference, threaded CPU baseline, the fused dataflow kernel, the
// multi-kernel launch, the overlapped host driver and the lane-batched
// datapath), verifies they agree bit-exactly — the paper's performance-portability claim in miniature —
// demonstrates the serving layer riding out injected backend faults
// (retry, then degrade to the CPU baseline without changing the answer),
// and prints the observability table collected along the way.
//
//   ./quickstart [--nx=32 --ny=32 --nz=16 --chunk=8 --metrics]
#include <chrono>
#include <cstdio>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "pw/advect/coefficients.hpp"
#include "pw/advect/flops.hpp"
#include "pw/api/request.hpp"
#include "pw/fault/injector.hpp"
#include "pw/grid/compare.hpp"
#include "pw/grid/init.hpp"
#include "pw/obs/export.hpp"
#include "pw/serve/service.hpp"
#include "pw/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace pw;
  const util::Cli cli(argc, argv);
  const grid::GridDims dims{
      static_cast<std::size_t>(cli.get_int("nx", 32)),
      static_cast<std::size_t>(cli.get_int("ny", 32)),
      static_cast<std::size_t>(cli.get_int("nz", 16))};

  std::cout << "PW advection quickstart on a " << dims.nx << "x" << dims.ny
            << "x" << dims.nz << " grid (" << dims.cells() << " cells, "
            << advect::total_flops(dims) << " FLOPs per pass)\n\n";

  // 1. A smooth divergence-free wind field with periodic halos. Payloads
  //    are shared_ptr so one state can back any number of requests.
  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_taylor_green(*state, 5.0);

  // 2. Scheme coefficients from the grid geometry (100m horizontal
  //    spacing, 50m levels — a typical LES configuration).
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));

  // 3. One SolverOptions is the single construction point for the whole
  //    pipeline: backend knobs, kernel chunking, metrics sink. Fields +
  //    coefficients + options together form a SolveRequest.
  obs::MetricsRegistry registry;
  api::SolverOptions options;
  options.kernel_spec = api::Kernel::kAdvectPw;  // the default, made explicit
  options.kernel.chunk_y = static_cast<std::size_t>(cli.get_int("chunk", 8));
  options.metrics = &registry;

  // 4. The scalar reference is just another backend.
  options.backend = api::Backend::kReference;
  const auto reference = api::Solver(options).solve(
      api::make_request(state, coefficients, options));
  if (!reference.ok()) {
    std::cerr << "reference solve failed: " << reference.message << "\n";
    return 1;
  }

  // 5. Every other datapath must agree with it to the last bit.
  //    Each backend's knobs live in its own options struct — invalid
  //    combinations are unrepresentable. submit() returns a SolveFuture;
  //    wait() blocks for the result.
  bool all_exact = true;
  api::HostOptions host;
  host.x_chunks = 4;
  const std::vector<api::BackendSpec> specs = {
      api::BackendSpec(api::Backend::kCpuBaseline),
      api::BackendSpec(api::Backend::kFused),
      api::BackendSpec(api::Backend::kMultiKernel),
      api::BackendSpec(host),
      api::BackendSpec(api::Backend::kVectorized)};
  for (const api::BackendSpec& spec : specs) {
    options.backend = spec;
    const api::Backend backend = spec.backend();
    api::SolveFuture future = api::Solver(options).submit(
        api::make_request(state, coefficients, options));
    const auto& result = future.wait();
    if (!result.ok()) {
      std::cerr << api::to_string(backend)
                << " solve failed: " << result.message << "\n";
      return 1;
    }
    const bool exact =
        grid::compare_interior(reference.terms->su, result.terms->su)
            .bit_equal() &&
        grid::compare_interior(reference.terms->sv, result.terms->sv)
            .bit_equal() &&
        grid::compare_interior(reference.terms->sw, result.terms->sw)
            .bit_equal();
    all_exact = all_exact && exact;
    std::printf("%-13s %8.2f ms   %s\n", api::to_string(backend),
                result.seconds * 1e3,
                exact ? "bit-exact vs reference" : "MISMATCH");
  }

  // 5b. The same Solver serves any declared stencil kernel: swap the
  //     KernelSpec, drop the coefficients payload, keep everything else —
  //     backends, metrics, serving. Diffusion knobs ride in the spec.
  {
    api::DiffusionOptions diffusion;
    diffusion.kappa = 12.5;  // m^2/s, a typical LES eddy diffusivity
    api::SolverOptions diffusion_options = options;
    diffusion_options.kernel_spec = diffusion;
    diffusion_options.backend = api::Backend::kReference;
    const auto diffused = api::Solver(diffusion_options)
                              .solve(api::make_request(state, diffusion_options));
    diffusion_options.backend = api::Backend::kFused;
    const auto streamed = api::Solver(diffusion_options)
                              .solve(api::make_request(state, diffusion_options));
    if (!diffused.ok() || !streamed.ok()) {
      std::cerr << "diffusion solve failed\n";
      return 1;
    }
    const bool exact =
        grid::compare_interior(diffused.terms->su, streamed.terms->su)
            .bit_equal();
    all_exact = all_exact && exact;
    std::printf("%-13s %8.2f ms   %s\n", "diffusion",
                streamed.seconds * 1e3,
                exact ? "bit-exact vs reference" : "MISMATCH");
  }

  std::cout << "\nsample source terms at the domain centre:\n";
  const auto ci = static_cast<std::ptrdiff_t>(dims.nx / 2);
  const auto cj = static_cast<std::ptrdiff_t>(dims.ny / 2);
  const auto ck = static_cast<std::ptrdiff_t>(dims.nz / 2);
  std::printf("  su = %+.6e\n  sv = %+.6e\n  sw = %+.6e\n",
              reference.terms->su.at(ci, cj, ck),
              reference.terms->sv.at(ci, cj, ck),
              reference.terms->sw.at(ci, cj, ck));

  // 6. Resilience: arm a fault plan that breaks the fused backend twice,
  //    then permanently, and let SolveService ride it out. The first
  //    request recovers via retry; the second degrades to the CPU baseline
  //    failover — still the bit-exact answer, flagged `degraded`.
  std::cout << "\nresilience demo (injected fused-backend faults):\n";
  {
    fault::FaultPlan plan;
    fault::FaultRule rule;
    rule.site = "serve.solve.fused";
    rule.kind = fault::FaultKind::kTransferFailure;
    rule.count = 2;  // fault the first two attempts, then permanently...
    plan.rules.push_back(rule);
    // A later rule is only consulted when no earlier rule injected, so this
    // one's hit 0 is request 1's successful third attempt: skipping it
    // makes the fused backend fail permanently from request 2 onward.
    fault::FaultRule permanent = rule;
    permanent.after = 1;
    permanent.count = std::numeric_limits<std::uint64_t>::max();
    plan.rules.push_back(permanent);
    fault::FaultInjector injector(plan);
    fault::ScopedArm arm(injector);

    serve::ServiceConfig service_config;
    service_config.result_cache = false;
    service_config.retry.initial_backoff = std::chrono::milliseconds(1);
    serve::SolveService service(service_config);
    options.backend = api::Backend::kFused;
    for (int attempt = 0; attempt < 2; ++attempt) {
      // Copy, not bind: the temporary SolveFuture owns the result's storage
      // and dies at the end of the full expression.
      const api::SolveResult served =
          service.submit(api::make_request(state, coefficients, options))
              .wait();
      if (!served.ok()) {
        std::cerr << "served solve failed: " << served.message << "\n";
        return 1;
      }
      const bool exact =
          grid::compare_interior(reference.terms->su, served.terms->su)
              .bit_equal();
      std::printf("  request %d: %s after %u attempt(s)%s\n", attempt + 1,
                  served.degraded ? "degraded to cpu_baseline" : "recovered",
                  served.attempts, exact ? ", still bit-exact" : " MISMATCH");
      all_exact = all_exact && exact;
    }
    service.shutdown();
    const serve::ServiceReport report = service.report();
    std::printf("  service: %llu retries, %llu recovered, %llu failovers\n",
                static_cast<unsigned long long>(report.retries),
                static_cast<unsigned long long>(report.retry_recovered),
                static_cast<unsigned long long>(report.failovers));
    std::cout << "  fault schedule: " << injector.report().schedule() << "\n";
  }

  // 7. Everything the backends reported landed in one registry.
  if (cli.get_bool("metrics", false)) {
    std::cout << "\ncollected metrics:\n";
    obs::to_table(registry.snapshot()).print(std::cout);
  }
  return all_exact ? 0 : 1;
}
