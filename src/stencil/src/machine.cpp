#include "pw/stencil/machine.hpp"

#include <algorithm>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "pw/fault/injector.hpp"
#include "pw/obs/span.hpp"

namespace pw::stencil {

namespace {

/// The names a kernel's passes report under, built once per kernel.
struct PassNames {
  std::string site;  ///< fault site and span: "stencil.<name>.pass"
  std::string passes;
  std::string cells;
  std::string values_streamed;
  std::string stencils_emitted;
};

const PassNames& pass_names(const StencilSpec& spec) {
  static std::mutex mutex;
  static std::map<std::string, PassNames, std::less<>> cache;
  const std::lock_guard lock(mutex);
  auto [it, added] = cache.try_emplace(spec.name);
  if (added) {
    const std::string prefix = obs_prefix(spec);
    it->second = {fault_site(spec), prefix + ".passes", prefix + ".cells",
                  prefix + ".values_streamed", prefix + ".stencils_emitted"};
  }
  return it->second;
}

}  // namespace

PassEngine::PassEngine(const EngineConfig& config, grid::GridDims dims)
    : config_(config) {
  const Engine engine = config.engine;
  const bool threaded =
      engine == Engine::kThreaded || engine == Engine::kMultiInstance;
  const bool chunked = engine == Engine::kFused ||
                       engine == Engine::kMultiInstance ||
                       engine == Engine::kChunkedHost;
  std::size_t parts = engine == Engine::kThreaded        ? config.threads
                      : engine == Engine::kMultiInstance ? config.instances
                      : engine == Engine::kChunkedHost
                          ? std::max<std::size_t>(1, config.x_chunks)
                          : 1;
  if (parts == 0) {  // threads / instances: 0 = one per hardware thread
    parts = std::max(1U, std::thread::hardware_concurrency());
  }
  slabs_ = kernel::partition_x(dims.nx, parts);
  chunks_ = kernel::ChunkPlan(dims, chunked ? config.chunk_y : 0).chunks();
  if (threaded && slabs_.size() > 1) {
    pool_ = std::make_unique<util::ThreadPool>(slabs_.size() - 1);
  }

  stats_.cells = dims.cells();
  if (chunked) {
    // Each slab and chunk of the shift-buffer walk rasters a one-cell halo
    // on both sides.
    stats_.values_streamed = (dims.nx + 2 * slabs_.size()) *
                             (dims.ny + 2 * chunks_.size()) * (dims.nz + 2);
    stats_.stencils_emitted = stats_.cells;
    stats_.chunks = slabs_.size() * chunks_.size();
  }
  if (engine == Engine::kLaneBatched) {
    // Lane batching shapes the traversal accounting (how many vector
    // batches a lane-parallel datapath would issue); the arithmetic stays
    // double so the engine remains bit-identical to the reference.
    const std::size_t lanes = std::max<std::size_t>(1, config.lanes);
    stats_.batches = (stats_.cells + lanes - 1) / lanes;
  }
}

void PassEngine::run_slabs(
    const StencilSpec& spec,
    const std::function<void(kernel::XRange)>& slab) const {
  if (fault::armed() != nullptr) {
    fault::throw_if(fault_site(spec));
  }
  const std::size_t local = pool_ ? 1 : slabs_.size();
  std::vector<std::future<void>> done;
  for (std::size_t s = local; s < slabs_.size(); ++s) {
    done.push_back(pool_->submit([&, s] { slab(slabs_[s]); }));
  }
  for (std::size_t s = 0; s < local; ++s) {
    slab(slabs_[s]);
  }
  for (std::future<void>& f : done) {
    f.get();
  }
}

PassStats PassEngine::observe(const StencilSpec& spec, std::size_t passes,
                              const std::function<void()>& sweep) const {
  obs::MetricsRegistry* metrics = config_.metrics;
  const PassNames* names = metrics != nullptr ? &pass_names(spec) : nullptr;
  std::optional<obs::Span> span;
  if (metrics != nullptr) {
    span.emplace(*metrics, names->site);
  }
  PassStats total;
  for (std::size_t p = 0; p < passes; ++p) {
    sweep();
    total += stats_;
  }
  if (metrics != nullptr) {
    metrics->counter_add(names->passes, passes);
    metrics->counter_add(names->cells, total.cells);
    if (total.values_streamed != 0) {  // the chunked engines
      metrics->counter_add(names->values_streamed, total.values_streamed);
      metrics->counter_add(names->stencils_emitted, total.stencils_emitted);
    }
  }
  return total;
}

}  // namespace pw::stencil
