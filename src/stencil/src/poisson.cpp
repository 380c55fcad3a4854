#include "pw/stencil/poisson.hpp"

#include <algorithm>

namespace pw::stencil {

const StencilSpec& poisson_spec() {
  static const StencilSpec spec = [] {
    StencilSpec s;
    s.name = "poisson_jacobi";
    s.description =
        "Jacobi iteration for lap(u) = rhs with Dirichlet-zero boundaries";
    s.radius = 1;
    s.points = 7;
    s.fields_in = 2;   // guess + right-hand side
    s.fields_out = 1;  // updated guess
    s.flops_per_cell = kPoissonFlopsPerCell;
    s.sweeps = 8;  // representative; per-request iterations override it
    s.boundary = BoundaryRule::kDirichletZero;
    return s;
  }();
  return spec;
}

void poisson_reference(const grid::WindState& state,
                       const PoissonParams& params, advect::SourceTerms& out) {
  const grid::GridDims dims = state.u.dims();
  const PoissonOp op(params);
  // Ping-pong guess buffers with Dirichlet-zero halos: freshly constructed
  // fields are all-zero, and only interiors are ever written.
  grid::FieldD guess(dims, state.u.halo());
  grid::FieldD next(dims, state.u.halo());
  guess.copy_interior_from(state.u);

  const std::size_t iterations = std::max<std::size_t>(1, params.iterations);
  for (std::size_t sweep = 0; sweep < iterations; ++sweep) {
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(dims.nx);
         ++i) {
      for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(dims.ny);
           ++j) {
        for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(dims.nz);
             ++k) {
          // The exact PoissonOp expression over direct reads of the current
          // guess and rhs — bit-identical to the machine engines.
          const double sum =
              (guess.at(i - 1, j, k) + guess.at(i + 1, j, k)) * op.cx +
              (guess.at(i, j - 1, k) + guess.at(i, j + 1, k)) * op.cy +
              (guess.at(i, j, k - 1) + guess.at(i, j, k + 1)) * op.cz;
          next.at(i, j, k) = (sum - state.v.at(i, j, k)) * op.inv_diag;
        }
      }
    }
    std::swap(guess, next);
  }
  out.su.copy_interior_from(guess);
  out.sv.fill(0.0);
  out.sw.fill(0.0);
}

PassStats run_poisson(const grid::WindState& state,
                      const PoissonParams& params, advect::SourceTerms& out,
                      const EngineConfig& config) {
  const grid::GridDims dims = state.u.dims();
  const std::size_t iterations = std::max<std::size_t>(1, params.iterations);
  // Ping-pong between out.su and one scratch guess, both with Dirichlet-zero
  // halos, reading the rhs in place from state.v. Starting in out.su on an
  // even sweep count lands the last sweep in out.su.
  grid::FieldD scratch(dims, out.su.halo());
  out.su.fill_halo(0.0);
  grid::FieldD* guess = iterations % 2 == 0 ? &out.su : &scratch;
  grid::FieldD* next = iterations % 2 == 0 ? &scratch : &out.su;
  guess->copy_interior_from(state.u);

  const PassEngine engine(config, dims);
  const PoissonOp op(params);
  const PassStats total = engine.observe(poisson_spec(), iterations, [&] {
    engine.run(poisson_spec(),
               {{guess, &state.v, nullptr}, {next, nullptr, nullptr}}, op);
    std::swap(guess, next);
  });
  out.sv.fill(0.0);
  out.sw.fill(0.0);
  return total;
}

}  // namespace pw::stencil
