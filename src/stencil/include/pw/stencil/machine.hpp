#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "pw/advect/reference.hpp"
#include "pw/advect/scheme.hpp"
#include "pw/grid/init.hpp"
#include "pw/kernel/chunking.hpp"
#include "pw/kernel/multi_kernel.hpp"
#include "pw/obs/metrics.hpp"
#include "pw/stencil/spec.hpp"
#include "pw/util/thread_pool.hpp"

namespace pw::stencil {

/// Which execution strategy runs a declared kernel. These mirror the
/// api::Backend strategies one-for-one. Every engine runs the same raw-row
/// pass with the same per-cell op; they differ only in how they cut the
/// grid (whole grid, X slabs, Y chunks) and where each piece runs, so all
/// engines are bit-identical by construction (the property the
/// differential tests assert per kernel).
enum class Engine {
  kReference,      ///< whole grid, serial (the readable oracle path)
  kThreaded,       ///< X slabs on a thread pool
  kFused,          ///< Y chunks in raster order, one instance (Fig. 2)
  kMultiInstance,  ///< X slabs on a thread pool, each walked in Y chunks
  kChunkedHost,    ///< X slabs one after another, each walked in Y chunks
  kLaneBatched,    ///< whole grid, serial; reports lane batches (math f64)
};

struct EngineConfig {
  Engine engine = Engine::kReference;
  std::size_t chunk_y = 64;   ///< Y-chunking of the chunked engines
  std::size_t threads = 0;    ///< kThreaded worker count (0 = hardware)
  std::size_t instances = 4;  ///< kMultiInstance kernel instances
  std::size_t x_chunks = 8;   ///< kChunkedHost slab count
  std::size_t lanes = 8;      ///< kLaneBatched batch width
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-pass accounting, the stencil counterpart of KernelRunStats. The
/// streaming counts are what the Fig. 3 shift-buffer walk of the same cut
/// would count, derived from its geometry.
struct PassStats {
  std::uint64_t cells = 0;             ///< interior cells written
  std::uint64_t values_streamed = 0;   ///< per-field raster values consumed
  std::uint64_t stencils_emitted = 0;  ///< windows completed (chunked engines)
  std::uint64_t chunks = 0;
  std::uint64_t batches = 0;  ///< lane batches (kLaneBatched only)

  PassStats& operator+=(const PassStats& other) {
    cells += other.cells;
    values_streamed += other.values_streamed;
    stencils_emitted += other.stencils_emitted;
    chunks += other.chunks;
    batches += other.batches;
    return *this;
  }
};

/// Grid coordinates of the cell an op is computing (interior, 0-based).
struct CellCtx {
  std::ptrdiff_t i = 0;
  std::ptrdiff_t j = 0;
  std::ptrdiff_t k = 0;
};

// ---------------------------------------------------------------------------
// What an op sees. An Op is any callable
//
//   advect::CellSources operator()(const CellView&, const CellCtx&) const
//
// mapping one cell's radius-1 neighbourhood of the input fields to its
// output values. The view reads the fields in place, so a field the op does
// not touch costs nothing. Ops must not throw (see PassEngine::run).

/// One input field around a cell: `at(dx, dy, dz)` and `centre()` read the
/// values advect::Stencil27 would hold.
struct FieldView {
  const double* row = nullptr;  ///< &field.at(i, j, 0)
  std::ptrdiff_t k = 0;
  std::ptrdiff_t stride_i = 0;
  std::ptrdiff_t stride_j = 0;

  double at(int dx, int dy, int dz) const {
    return row[k + dz + dx * stride_i + dy * stride_j];
  }
  double centre() const { return row[k]; }
};

/// Views beyond the spec's fields_in are empty and must not be read.
struct CellView {
  FieldView u;
  FieldView v;
  FieldView w;
};

/// The fields one pass reads and writes; entries beyond spec.fields_in /
/// spec.fields_out are null and never touched.
struct PassFields {
  std::array<const grid::FieldD*, 3> in{};
  std::array<grid::FieldD*, 3> out{};
};

/// One engine's cut of a grid into X slabs and Y chunks, walked in raster
/// order like the Fig. 2/3 streaming machine (whose shift buffer lives in
/// src/kernel), plus the pool a threaded engine's passes share, so an
/// iterative kernel starts its threads once per solve.
class PassEngine {
 public:
  PassEngine(const EngineConfig& config, grid::GridDims dims);

  /// One sweep of `op` over the interior of `fields.out`. Consults the
  /// kernel's fault site (an armed hard fault throws fault::FaultError,
  /// which the api layer reports as SolveError::kBackendFault); reports
  /// nothing to obs (see observe).
  template <typename Op>
  void run(const StencilSpec& spec, const PassFields& fields,
           const Op& op) const {
    // A template output count keeps per-cell tests out of the inner loop.
    // noexcept: a slab may run on a pool worker while the caller's frame
    // holds `fields` and `op`, so an op that throws ends the process rather
    // than unwinding past a running slab.
    run_slabs(spec, [&](kernel::XRange slab) noexcept {
      switch (spec.fields_out) {
        case 1:
          return run_slab<1>(fields, op, slab);
        case 2:
          return run_slab<2>(fields, op, slab);
        default:
          return run_slab<3>(fields, op, slab);
      }
    });
  }

  /// Calls `sweep` (one run() each) `passes` times inside one obs span
  /// named after the kernel's fault site, then adds the counters of all
  /// passes at once when config.metrics is set, so an iterative solve
  /// reports once rather than once per sweep. Returns the passes' stats.
  PassStats observe(const StencilSpec& spec, std::size_t passes,
                    const std::function<void()>& sweep) const;

 private:
  template <std::size_t Outputs, typename Op>
  void run_slab(const PassFields& fields, const Op& op,
                kernel::XRange slab) const {
    const auto nz = static_cast<std::ptrdiff_t>(fields.out[0]->nz());
    for (const kernel::YChunk& chunk : chunks_) {
      for (auto i = static_cast<std::ptrdiff_t>(slab.begin);
           i < static_cast<std::ptrdiff_t>(slab.end); ++i) {
        for (auto j = static_cast<std::ptrdiff_t>(chunk.j_begin);
             j < static_cast<std::ptrdiff_t>(chunk.j_end); ++j) {
          std::array<FieldView, 3> in{};
          std::array<double*, Outputs> out{};
          for (std::size_t f = 0; f < 3; ++f) {
            if (const grid::FieldD* field = fields.in[f]) {
              in[f] = {&field->at(i, j, 0), 0, field->stride_i(),
                       field->stride_j()};
            }
          }
          for (std::size_t f = 0; f < Outputs; ++f) {
            out[f] = &fields.out[f]->at(i, j, 0);
          }
          for (std::ptrdiff_t k = 0; k < nz; ++k) {
            in[0].k = in[1].k = in[2].k = k;
            const advect::CellSources s =
                op(CellView{in[0], in[1], in[2]}, CellCtx{i, j, k});
            const std::array<double, 3> values{s.su, s.sv, s.sw};
            for (std::size_t f = 0; f < Outputs; ++f) {
              out[f][k] = values[f];
            }
          }
        }
      }
    }
  }

  /// Fault check, then `slab` over every X slab (the calling thread takes
  /// the first, the pool if any the rest).
  void run_slabs(const StencilSpec& spec,
                 const std::function<void(kernel::XRange)>& slab) const;

  EngineConfig config_;
  std::vector<kernel::XRange> slabs_;
  std::vector<kernel::YChunk> chunks_;
  PassStats stats_;
  std::unique_ptr<util::ThreadPool> pool_;  ///< null for serial engines
};

/// One sweep of `op` over the grid under `config`, with the spec-derived
/// fault site and obs instrumentation every declared kernel inherits.
template <typename Op>
PassStats run_pass(const StencilSpec& spec, const grid::WindState& in,
                   advect::SourceTerms& out, const Op& op,
                   const EngineConfig& config) {
  const PassFields fields{
      {&in.u, spec.fields_in > 1 ? &in.v : nullptr,
       spec.fields_in > 2 ? &in.w : nullptr},
      {&out.su, spec.fields_out > 1 ? &out.sv : nullptr,
       spec.fields_out > 2 ? &out.sw : nullptr}};
  const PassEngine engine(config, in.u.dims());
  return engine.observe(spec, 1, [&] { engine.run(spec, fields, op); });
}

}  // namespace pw::stencil
