#pragma once

#include "pw/advect/coefficients.hpp"
#include "pw/advect/reference.hpp"
#include "pw/grid/init.hpp"
#include "pw/stencil/machine.hpp"

namespace pw::stencil {

/// The declared spec of the paper's PW advection kernel on the stencil
/// template (also reachable via find_stencil("advect_pw")). Every
/// api::Solver advection backend except the scalar oracle runs it:
/// cpu_baseline, fused, multi_kernel and vectorized as one run_advect on
/// their engine, host_overlap as one fused run_advect per X chunk inside
/// ocl::advect_via_host. Advection's lint graph, fault site and perf entry
/// flow from the same registry as every other kernel.
const StencilSpec& advect_spec();

/// The advection per-cell op on the template: advect_cell read straight
/// from the field views, with the per-level Z coefficients looked up from
/// the cell's k (exactly what the fused kernel inlines).
struct AdvectOp {
  const advect::PwCoefficients* c = nullptr;
  std::ptrdiff_t nz = 0;

  AdvectOp(const advect::PwCoefficients& coefficients, std::size_t levels)
      : c(&coefficients), nz(static_cast<std::ptrdiff_t>(levels)) {}

  advect::CellSources operator()(const CellView& view,
                                 const CellCtx& cell) const {
    const auto gk = static_cast<std::size_t>(cell.k);
    const advect::ZCoeffs z{c->tzc1[gk], c->tzc2[gk], c->tzd1[gk],
                            c->tzd2[gk]};
    return advect::advect_cell(view, c->tcx, c->tcy, z, cell.k == nz - 1);
  }
};

/// One advection solve on the stencil machine. Bit-identical to
/// advect_reference on every engine.
PassStats run_advect(const grid::WindState& state,
                     const advect::PwCoefficients& coefficients,
                     advect::SourceTerms& out, const EngineConfig& config);

}  // namespace pw::stencil
