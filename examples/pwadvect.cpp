// pwadvect: the library's front door — one binary exposing the main
// workflows as subcommands.
//
//   pwadvect run      [--nx --ny --nz --chunk --metrics --json=PATH
//                      --impl=reference|cpu|fused|multi|host|vectorized|
//                             xilinx|intel|legacy]
//   pwadvect model    [--device --cells --kernels --chunk --overlap]
//   pwadvect report   [--chunk --nz]
//   pwadvect figures  [--csv-dir=DIR]
//   pwadvect versal   [--instances]
//
// `run` goes through pw::api::Solver, the recommended entry point: one
// options struct (backend + KernelSpec), one solve() call, metrics
// snapshot included. The xilinx/intel/legacy vendor frontends stay
// available as direct datapaths.
#include <fstream>
#include <iostream>
#include <memory>

#include "pw/advect/reference.hpp"
#include "pw/api/request.hpp"
#include "pw/baseline/legacy_pipeline.hpp"
#include "pw/exp/experiments.hpp"
#include "pw/exp/report.hpp"
#include "pw/fpga/profile_io.hpp"
#include "pw/fpga/synthesis_report.hpp"
#include "pw/fpga/versal.hpp"
#include "pw/grid/compare.hpp"
#include "pw/kernel/intel_frontend.hpp"
#include "pw/kernel/xilinx_frontend.hpp"
#include "pw/obs/export.hpp"
#include "pw/util/cli.hpp"
#include "pw/util/timer.hpp"

namespace {

using namespace pw;

bool matches_reference(const advect::SourceTerms& reference,
                       const advect::SourceTerms& out) {
  return grid::compare_interior(reference.su, out.su).bit_equal() &&
         grid::compare_interior(reference.sv, out.sv).bit_equal() &&
         grid::compare_interior(reference.sw, out.sw).bit_equal();
}

int cmd_run(const util::Cli& cli) {
  const grid::GridDims dims{
      static_cast<std::size_t>(cli.get_int("nx", 32)),
      static_cast<std::size_t>(cli.get_int("ny", 32)),
      static_cast<std::size_t>(cli.get_int("nz", 16))};
  const std::string impl = cli.get_string("impl", "fused");

  auto state = std::make_shared<grid::WindState>(dims);
  grid::init_taylor_green(*state, 3.0);
  auto coefficients = std::make_shared<const advect::PwCoefficients>(
      advect::PwCoefficients::from_geometry(
          grid::Geometry::uniform(dims, 100.0, 100.0, 50.0)));
  advect::SourceTerms reference(dims);
  advect::advect_reference(*state, *coefficients, reference);

  api::SolverOptions options;
  options.kernel_spec = api::Kernel::kAdvectPw;
  options.kernel.chunk_y = static_cast<std::size_t>(cli.get_int("chunk", 16));
  options.kernel.stream_depth = 16;

  advect::SourceTerms out(dims);
  double ms = 0.0;
  // The vendor frontends and the legacy pipeline are direct datapaths; all
  // other implementations route through the unified solver API.
  if (impl == "xilinx" || impl == "intel" || impl == "legacy") {
    util::WallTimer timer;
    if (impl == "xilinx") {
      kernel::run_kernel_xilinx(*state, *coefficients, out, options.kernel);
    } else if (impl == "intel") {
      kernel::run_kernel_intel(*state, *coefficients, out, options.kernel);
    } else {
      baseline::run_legacy_pipeline(*state, *coefficients, out,
                                    options.kernel);
    }
    ms = timer.milliseconds();
  } else {
    if (impl == "reference") {
      options.backend = api::Backend::kReference;
    } else if (impl == "cpu") {
      options.backend = api::Backend::kCpuBaseline;
    } else if (impl == "fused") {
      options.backend = api::Backend::kFused;
    } else if (impl == "multi") {
      options.backend = api::Backend::kMultiKernel;
    } else if (impl == "host") {
      options.backend = api::Backend::kHostOverlap;
    } else if (impl == "vectorized") {
      options.backend = api::Backend::kVectorized;
    } else if (auto parsed = api::parse_backend(impl)) {
      options.backend = *parsed;  // the canonical long names also work
    } else {
      std::cerr << "unknown --impl\n";
      return 1;
    }
    api::SolveRequest request =
        api::make_request(state, coefficients, options);
    request.tag = impl;
    auto result = api::Solver(options).solve(request);
    if (!result.ok()) {
      std::cerr << "solve failed: " << result.message << "\n";
      return 1;
    }
    ms = result.seconds * 1e3;
    out = *result.terms;
    if (cli.get_bool("metrics", false)) {
      obs::to_table(result.metrics).print(std::cout);
    }
    if (auto path = cli.get("json")) {
      std::ofstream os(*path);
      if (!os) {
        std::cerr << "cannot write " << *path << "\n";
        return 1;
      }
      os << obs::to_json(result.metrics);
      std::cout << "metrics json written to " << *path << "\n";
    }
  }
  const bool ok = matches_reference(reference, out);
  std::cout << impl << " datapath on " << dims.nx << "x" << dims.ny << "x"
            << dims.nz << ": " << ms << " ms, "
            << (ok ? "bit-exact vs reference" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}

int cmd_model(const util::Cli& cli) {
  const auto devices = exp::paper_devices();
  const std::string name = cli.get_string("device", "alveo");
  const auto& device = name == "stratix" ? devices.stratix : devices.alveo;
  const auto& power =
      name == "stratix" ? devices.stratix_power : devices.alveo_power;
  const grid::GridDims dims =
      grid::paper_grid(static_cast<std::size_t>(cli.get_int("cells", 16)));
  const bool overlap = cli.get_bool("overlap", true);
  const auto run = exp::run_fpga_overall(device, power, dims, overlap);
  std::cout << device.name << ", " << util::format_cells(dims.cells())
            << " cells, " << (overlap ? "overlapped" : "sequential") << ": "
            << util::format_double(run.gflops, 2) << " GFLOPS, "
            << util::format_double(run.power_w, 1) << " W, "
            << util::format_double(run.gflops_per_watt, 3) << " GFLOPS/W ("
            << run.note << ")\n";
  return 0;
}

int cmd_report(const util::Cli& cli) {
  const auto devices = exp::paper_devices();
  kernel::KernelConfig config;
  config.chunk_y = static_cast<std::size_t>(cli.get_int("chunk", 64));
  fpga::KernelEstimateOptions options;
  options.nz = static_cast<std::size_t>(cli.get_int("nz", 64));
  fpga::synthesize_kernel(config, options, devices.alveo)
      .to_table()
      .print(std::cout);
  fpga::synthesize_kernel(config, options, devices.stratix)
      .to_table()
      .print(std::cout);
  return 0;
}

int cmd_figures(const util::Cli& cli) {
  const auto devices = exp::paper_devices();
  if (auto md = cli.get("md")) {
    std::ofstream os(*md);
    if (!os) {
      std::cerr << "cannot write " << *md << "\n";
      return 1;
    }
    exp::write_markdown_report(devices, os);
    std::cout << "markdown report written to " << *md << "\n";
    return 0;
  }
  const auto dir = cli.get("csv-dir");
  int index = 0;
  for (const auto& table :
       {exp::table1(devices), exp::table2(devices), exp::fig5(devices),
        exp::fig6(devices), exp::fig7(devices), exp::fig8(devices)}) {
    table.print(std::cout);
    std::cout << '\n';
    if (dir) {
      const std::string path =
          *dir + "/artefact_" + std::to_string(index) + ".csv";
      std::ofstream os(path);
      if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
      }
      table.write_csv(os);
    }
    ++index;
  }
  return 0;
}

int cmd_export_profile(const util::Cli& cli) {
  const auto devices = exp::paper_devices();
  const std::string name = cli.get_string("device", "alveo");
  if (name == "alveo") {
    std::cout << fpga::profile_to_config_text(devices.alveo);
  } else if (name == "stratix") {
    std::cout << fpga::profile_to_config_text(devices.stratix);
  } else if (name == "ku115") {
    std::cout << fpga::profile_to_config_text(fpga::kintex_ku115());
  } else {
    std::cerr << "unknown --device\n";
    return 1;
  }
  return 0;
}

int cmd_versal(const util::Cli& cli) {
  const fpga::VersalProfile profile;
  const auto instances =
      static_cast<std::size_t>(cli.get_int("instances", 16));
  for (bool fp32 : {true, false}) {
    const auto p = fpga::project_versal(profile, instances, fp32);
    std::cout << (fp32 ? "fp32" : "fp64") << ", " << instances
              << " shift-buffer instances: "
              << util::format_double(p.projected_gflops, 1) << " GFLOPS ("
              << p.binding_constraint << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const pw::util::Cli cli(argc, argv);
  const std::string command =
      cli.positional().empty() ? "help" : cli.positional().front();
  if (command == "run") {
    return cmd_run(cli);
  }
  if (command == "model") {
    return cmd_model(cli);
  }
  if (command == "report") {
    return cmd_report(cli);
  }
  if (command == "figures") {
    return cmd_figures(cli);
  }
  if (command == "versal") {
    return cmd_versal(cli);
  }
  if (command == "export-profile") {
    return cmd_export_profile(cli);
  }
  std::cout <<
      "pwadvect — PW advection on FPGAs, reproduced in C++\n"
      "  pwadvect run            --impl=reference|cpu|fused|multi|host|\n"
      "                                 vectorized|xilinx|intel|legacy\n"
      "                          [--nx ... --metrics --json=PATH]\n"
      "  pwadvect model          --device=alveo|stratix --cells=16|67|268|536\n"
      "  pwadvect report         [--chunk --nz]\n"
      "  pwadvect figures        [--csv-dir=DIR]\n"
      "  pwadvect versal         [--instances=N]\n"
      "  pwadvect export-profile --device=alveo|stratix|ku115 > board.ini\n";
  return command == "help" ? 0 : 1;
}
