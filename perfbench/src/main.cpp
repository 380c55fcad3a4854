// perfbench: the repository benchmark. One process runs one workload for a
// fixed time through the public entry points (api::Solver,
// shard::ShardedSolver, serve::SolveService), checks every output against
// the independent transcriptions in transcription.cpp, and prints one JSON
// line of metrics. See README.md for the workloads, metrics and tolerances.
//
//   perfbench --workload solve_64|solve_8 --seed N --seconds S
//             --trace 0|1 [--trace-out FILE]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pw/advect/reference.hpp"
#include "pw/api/request.hpp"
#include "pw/api/solver.hpp"
#include "pw/serve/service.hpp"
#include "pw/serve/traffic.hpp"
#include "pw/shard/sharded_solver.hpp"
#include "pw/stencil/diffusion.hpp"
#include "pw/stencil/poisson.hpp"
#include "pw/util/thread_pool.hpp"
#include "transcription.hpp"

namespace {

using perfbench::Box;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// CPU seconds used so far by every thread of the process.
double cpu_s() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Comparison tolerances, relative to the largest magnitude of the expected
// field (README "Correctness"). Every double-precision path evaluates the
// same arithmetic in at most a different order; the vectorized backend's
// advection runs in float32.
constexpr double kTolF64 = 1e-12;
constexpr double kTolF32 = 1e-5;

// ---------------------------------------------------------------------------
// Statistics.

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile of a sample, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double iqr_over_median(const std::vector<double>& v) {
  const double m = median(v);
  return m > 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m : 0.0;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double log_sum = 0.0;
  for (const double x : v) {
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------------------
// Spans: kept in memory while the traced run goes, written at exit as
// Chrome trace-event JSON. Names are static strings or strings owned by
// objects that outlive the tracer's use.

struct SpanRec {
  const char* name;
  double start;
  double end;
  int parent;
  std::uint64_t request;  ///< 0 when the span belongs to no request
};

class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 400000;

  bool on = false;

  int begin(const char* name, int parent = -1, std::uint64_t request = 0) {
    if (!on) {
      return -1;
    }
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, now_s(), 0.0, parent, request});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) {
    if (id >= 0) {
      spans_[static_cast<std::size_t>(id)].end = now_s();
    }
  }
  /// Records an already-timed interval.
  void add(const char* name, double start, double end, int parent,
           std::uint64_t request) {
    if (!on) {
      return;
    }
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, start, end, parent, request});
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      return false;
    }
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":"
        << dropped_ << "},\"traceEvents\":[\n";
    char buf[512];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRec& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"request\":%llu}}\n",
                    i ? "," : "", s.name, s.start * 1e6,
                    (s.end - s.start) * 1e6, i, s.parent,
                    static_cast<unsigned long long>(s.request));
      out << buf;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<SpanRec> spans_;
  std::uint64_t dropped_ = 0;
};

Tracer g_trace;

// ---------------------------------------------------------------------------
// Inputs, generated by the benchmark from the seed.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed ^ 0x6a09e667f3bcc909ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double between(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t s_;
};

/// Uniform values in [-scale, scale) in the interior; periodic halos in x
/// and y, zero halos below the surface and above the lid.
Box random_field(std::size_t n, Rng& rng, double scale) {
  Box f(n, n, n);
  const auto sn = static_cast<std::ptrdiff_t>(n);
  for (std::ptrdiff_t i = 0; i < sn; ++i) {
    for (std::ptrdiff_t j = 0; j < sn; ++j) {
      for (std::ptrdiff_t k = 0; k < sn; ++k) {
        f(i, j, k) = rng.between(-scale, scale);
      }
    }
  }
  for (std::ptrdiff_t i = -1; i <= sn; ++i) {
    for (std::ptrdiff_t j = -1; j <= sn; ++j) {
      for (std::ptrdiff_t k = 0; k < sn; ++k) {
        f(i, j, k) = f((i + sn) % sn, (j + sn) % sn, k);
      }
    }
  }
  return f;
}

void load(const Box& box, pw::grid::FieldD& field) {
  auto raw = field.raw();
  if (raw.size() != box.a.size() || field.halo() != 1) {
    throw std::runtime_error("perfbench: field layout differs from Box");
  }
  std::copy(box.a.begin(), box.a.end(), raw.begin());
}

Box unload(const pw::grid::FieldD& field) {
  Box box(field.nx(), field.ny(), field.nz());
  auto raw = field.raw();
  if (raw.size() != box.a.size() || field.halo() != 1) {
    throw std::runtime_error("perfbench: field layout differs from Box");
  }
  std::copy(raw.begin(), raw.end(), box.a.begin());
  return box;
}

perfbench::PwCoeffs to_coeffs(const pw::advect::PwCoefficients& c) {
  return {c.tcx, c.tcy, c.tzc1, c.tzc2, c.tzd1, c.tzd2};
}

/// A kernel's input and its transcribed output, plus how to recompute it.
struct Problem {
  std::string kernel;  ///< registry name, parsed by api::parse_kernel
  Box u, v, w;
  perfbench::PwCoeffs coeffs;
  double kappa = 1.0;
  perfbench::Spacing spacing;
  std::size_t sweeps = 8;
  Box su, sv, sw;  ///< expected output, written by transcribe()
  /// Outputs of the threaded yardstick, shared by its threads.
  Box ya, yb, yc;

  /// Runs the transcription into su/sv/sw.
  void transcribe() {
    if (kernel == "advect_pw") {
      perfbench::pw_advection(u, v, w, coeffs, su, sv, sw);
    } else if (kernel == "diffusion") {
      perfbench::diffusion(u, kappa, spacing, su);
      perfbench::diffusion(v, kappa, spacing, sv);
      perfbench::diffusion(w, kappa, spacing, sw);
    } else {
      perfbench::poisson_jacobi(u, v, spacing, sweeps, su, sv);
    }
  }

  /// The transcription split into `threads` x-slabs that run at once, one
  /// thread each, the threads started and joined inside the call as a
  /// threaded solve does; with 0 threads, whole on the calling thread.
  void transcribe_on(std::size_t threads) {
    if (threads == 0) {
      transcribe();
      return;
    }
    if (ya.a.empty()) {
      ya = Box(u.nx, u.ny, u.nz);
      yb = ya;
      yc = ya;
    }
    std::barrier<> sync(static_cast<std::ptrdiff_t>(threads));
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      const perfbench::Slab slab{u.nx * t / threads,
                                 u.nx * (t + 1) / threads};
      pool.emplace_back([this, slab, &sync] { transcribe_slab(slab, sync); });
    }
    for (std::thread& thread : pool) {
      thread.join();
    }
  }

  /// One thread's share of transcribe_on: its slab of ya, yb, yc.
  void transcribe_slab(perfbench::Slab slab, std::barrier<>& sync) {
    if (kernel == "advect_pw") {
      perfbench::pw_advection(u, v, w, coeffs, ya, yb, yc, slab);
    } else if (kernel == "diffusion") {
      perfbench::diffusion(u, kappa, spacing, ya, slab);
      perfbench::diffusion(v, kappa, spacing, yb, slab);
      perfbench::diffusion(w, kappa, spacing, yc, slab);
    } else {
      // poisson_jacobi's sweeps, the threads meeting after each one. Only
      // interiors are written, so the halos of ya and yb stay zero.
      const std::size_t n = std::max<std::size_t>(1, sweeps);
      Box* x = n % 2 ? &yb : &ya;
      Box* next = n % 2 ? &ya : &yb;
      for (auto i = static_cast<std::ptrdiff_t>(slab.begin);
           i < static_cast<std::ptrdiff_t>(slab.end); ++i) {
        for (std::ptrdiff_t j = 0; j < static_cast<std::ptrdiff_t>(u.ny);
             ++j) {
          for (std::ptrdiff_t k = 0; k < static_cast<std::ptrdiff_t>(u.nz);
               ++k) {
            (*x)(i, j, k) = u(i, j, k);
          }
        }
      }
      sync.arrive_and_wait();
      for (std::size_t sweep = 0; sweep < n; ++sweep) {
        perfbench::jacobi_sweep(*x, v, spacing, *next, slab);
        sync.arrive_and_wait();
        std::swap(x, next);
      }
    }
  }

  /// Largest relative error of a solve's terms against the expected output.
  double error(const pw::advect::SourceTerms& t) const {
    return std::max({perfbench::relative_error(t.su.raw(), su),
                     perfbench::relative_error(t.sv.raw(), sv),
                     perfbench::relative_error(t.sw.raw(), sw)});
  }
};

Problem make_problem(const std::string& kernel, const Box& u, const Box& v,
                     const Box& w) {
  Problem p;
  p.kernel = kernel;
  p.u = u;
  p.v = v;
  p.w = w;
  p.su = Box(u.nx, u.ny, u.nz);
  p.sv = p.su;
  p.sw = p.su;
  return p;
}

// ---------------------------------------------------------------------------
// Solve phase: interleaved rounds over every (kernel, backend) pair.

const char* const kKernelNames[] = {"advect_pw", "diffusion",
                                    "poisson_jacobi"};
const char* const kBackendNames[] = {"reference",    "cpu_baseline",
                                     "fused",        "multi_kernel",
                                     "host_overlap", "vectorized"};

struct Pair {
  std::size_t kernel = 0;  ///< index into kKernelNames / problems
  std::string backend;     ///< backend name, or "d1"/"d4" for sharded
  std::string label;       ///< span and metric name stem
  bool valid = false;      ///< names parsed and the request was built
  std::size_t devices = 0;  ///< 0 = api::Solver, else ShardedSolver
  /// Threads the solve starts for its work (0: it runs on the caller's);
  /// the pair's yardstick runs the transcription on as many.
  std::size_t threads = 0;
  /// Clock of the pair's solve and yardstick: wall time (now_s), or the
  /// process's CPU time (cpu_s) for the sharded solves (README "Why the
  /// sharded solves count CPU time").
  double (*clock)() = now_s;
  double tolerance = kTolF64;
  pw::api::SolveRequest request;
  std::unique_ptr<pw::shard::ShardedSolver> sharded;
  std::vector<double> ratios;   ///< yardstick time / solve time
  std::vector<double> seconds;  ///< solve wall time
  std::vector<double> exchange_s, critical_s;
  std::uint64_t halo_bytes = 0;
};

struct SolveSetup {
  std::size_t n = 0;
  std::vector<Problem> problems;  ///< one per kernel, kKernelNames order
  std::shared_ptr<pw::grid::WindState> wind;
  std::shared_ptr<pw::grid::WindState> poisson_state;
  std::shared_ptr<pw::advect::PwCoefficients> coefficients;
  std::vector<Pair> pairs;  ///< grouped by kernel
};

/// Builds the inputs (not the expected outputs) of one solve workload.
SolveSetup make_solve_setup(std::size_t n, std::uint64_t seed) {
  SolveSetup s;
  s.n = n;
  Rng rng(seed * 0x9e3779b97f4a7c15ull + n);
  const Box u = random_field(n, rng, 1.0);
  const Box v = random_field(n, rng, 1.0);
  const Box w = random_field(n, rng, 1.0);
  const Box rhs = random_field(n, rng, 1e-4);

  s.wind = std::make_shared<pw::grid::WindState>(pw::grid::GridDims{n, n, n});
  load(u, s.wind->u);
  load(v, s.wind->v);
  load(w, s.wind->w);
  s.poisson_state =
      std::make_shared<pw::grid::WindState>(pw::grid::GridDims{n, n, n});
  load(u, s.poisson_state->u);
  load(rhs, s.poisson_state->v);

  const double dx = rng.between(80.0, 120.0);
  const double dy = rng.between(80.0, 120.0);
  const double dz = rng.between(40.0, 60.0);
  auto c = std::make_shared<pw::advect::PwCoefficients>();
  c->tcx = 0.25 / dx;
  c->tcy = 0.25 / dy;
  for (std::size_t k = 0; k < n; ++k) {
    const double rdz = 0.25 / (dz * (1.0 + 0.5 * static_cast<double>(k) /
                                               static_cast<double>(n)));
    c->tzc1.push_back(rdz * rng.between(0.9, 1.1));
    c->tzc2.push_back(rdz * rng.between(0.9, 1.1));
    c->tzd1.push_back(rdz * rng.between(0.9, 1.1));
    c->tzd2.push_back(rdz * rng.between(0.9, 1.1));
  }
  s.coefficients = c;
  const double kappa = rng.between(0.5, 2.0);

  s.problems.push_back(make_problem("advect_pw", u, v, w));
  s.problems.back().coeffs = to_coeffs(*c);
  s.problems.push_back(make_problem("diffusion", u, v, w));
  s.problems.back().kappa = kappa;
  s.problems.back().spacing = {dx, dy, dz};
  s.problems.push_back(make_problem("poisson_jacobi", u, rhs, Box(n, n, n)));
  s.problems.back().spacing = {dx, dy, dz};
  s.problems.back().sweeps = 8;

  std::vector<std::string> backends(std::begin(kBackendNames),
                                    std::end(kBackendNames));
  backends.push_back("d1");
  backends.push_back("d4");
  for (std::size_t k = 0; k < 3; ++k) {
    for (const std::string& b : backends) {
      Pair pair;
      pair.kernel = k;
      pair.backend = b;
      const bool is_shard = b == "d1" || b == "d4";
      pair.devices = is_shard ? (b == "d1" ? 1 : 4) : 0;
      pair.label = is_shard
                       ? std::string("shard.") + kKernelNames[k] + "." + b
                       : std::string("api.") + kKernelNames[k] + "." + b;
      const auto kernel = pw::api::parse_kernel(kKernelNames[k]);
      const auto backend =
          pw::api::parse_backend(is_shard ? "reference" : b);
      if (kernel && backend) {
        pw::api::SolverOptions options;
        options.backend = *backend;
        switch (*kernel) {
          case pw::api::Kernel::kAdvectPw:
            options.kernel_spec = pw::api::AdvectPwOptions{};
            break;
          case pw::api::Kernel::kDiffusion:
            options.kernel_spec = pw::api::DiffusionOptions{kappa, dx, dy, dz};
            break;
          case pw::api::Kernel::kPoissonJacobi:
            options.kernel_spec = pw::api::PoissonOptions{8, dx, dy, dz};
            break;
        }
        pair.request = pw::api::make_request(
            *kernel == pw::api::Kernel::kPoissonJacobi ? s.poisson_state
                                                       : s.wind,
            *kernel == pw::api::Kernel::kAdvectPw ? s.coefficients : nullptr,
            options);
        pair.tolerance = *backend == pw::api::Backend::kVectorized &&
                                 *kernel == pw::api::Kernel::kAdvectPw
                             ? kTolF32
                             : kTolF64;
        const auto& bs = options.backend;
        if (const auto* cpu = bs.get_if<pw::api::CpuBaselineOptions>()) {
          pair.threads = cpu->threads > 0
                             ? cpu->threads
                             : std::max(1u, std::thread::hardware_concurrency());
        } else if (const auto* mk =
                       bs.get_if<pw::api::MultiKernelOptions>()) {
          pair.threads = mk->kernels;
        }
        if (is_shard) {
          pair.threads = pair.devices;  // one pass thread per shard
          pair.clock = cpu_s;
          pw::shard::ShardOptions so;
          so.devices = pair.devices;
          pair.sharded = std::make_unique<pw::shard::ShardedSolver>(so);
        }
        pair.valid = true;
      }
      s.pairs.push_back(std::move(pair));
    }
  }
  return s;
}

pw::api::SolveResult run_pair(Pair& pair) {
  return pair.sharded ? pair.sharded->solve(pair.request)
                      : pw::api::Solver().solve(pair.request);
}

struct Counts {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
};

/// One checked operation: ok and within tolerance of the transcription.
bool check(const pw::api::SolveResult& result, const Problem& problem,
           double tolerance) {
  return result.ok() && result.terms &&
         problem.error(*result.terms) <= tolerance;
}

struct SolvePhase {
  std::vector<double> yardstick_s[3];  ///< one-thread yardstick, per kernel
  std::vector<double> traced_ratio, untraced_ratio;  ///< per-round geomeans
  std::size_t rounds = 0;
};

/// Rounds until `seconds` have passed: per pair, the sequence T S T, where
/// T is a timed run of the transcription on as many threads as the pair's
/// solve starts (the yardstick) and S the timed solve, both on the pair's
/// clock, so every solve sits between two yardstick runs taken at the same
/// moment of the host's speed and of the cores it gives the process. In a
/// traced run the rounds alternate between traced and untraced. After each
/// round it calls between_rounds with the share of `seconds` gone; what
/// that does falls outside every timed solve and transcription.
template <typename BetweenRounds>
SolvePhase run_solve_phase(SolveSetup& s, double seconds, bool trace,
                           Counts& counts, BetweenRounds&& between_rounds) {
  SolvePhase phase;
  const double start = now_s();
  const double deadline = start + seconds;
  // The first, untimed run brings the transcription's arrays back into the
  // caches the preceding solve evicted, so the timed run measures the
  // host's speed rather than what the previous pair left in the caches.
  const auto time_yardstick = [&](Problem& p, const Pair& pair, int parent) {
    p.transcribe_on(pair.threads);
    const int span = g_trace.begin("transcription", parent);
    const double t0 = pair.clock();
    p.transcribe_on(pair.threads);
    const double t = pair.clock() - t0;
    g_trace.end(span);
    return t;
  };
  while (phase.rounds == 0 || now_s() < deadline) {
    g_trace.on = trace && phase.rounds % 2 == 0;
    const int round_span = g_trace.begin("solve.round");
    std::vector<double> round_ratios;
    for (std::size_t k = 0; k < 3; ++k) {
      Problem& problem = s.problems[k];
      for (Pair& pair : s.pairs) {
        if (pair.kernel != k) {
          continue;
        }
        ++counts.attempted;
        if (!pair.valid) {
          ++counts.failed;
          continue;
        }
        const double before = time_yardstick(problem, pair, round_span);
        const int span = g_trace.begin(pair.label.c_str(), round_span);
        const double t0 = now_s();
        const double c0 = pair.clock();
        const pw::api::SolveResult result = run_pair(pair);
        const double clocked_s = pair.clock() - c0;
        const double solve_s = now_s() - t0;
        g_trace.end(span);
        const double after = time_yardstick(problem, pair, round_span);
        if (pair.threads == 0 && pair.clock == now_s) {
          phase.yardstick_s[k].push_back(before);
          phase.yardstick_s[k].push_back(after);
        }
        if (!check(result, problem, pair.tolerance)) {
          ++counts.failed;
          counts.mismatched += result.ok() ? 1 : 0;
        } else {
          const double ratio = 0.5 * (before + after) / clocked_s;
          pair.ratios.push_back(ratio);
          pair.seconds.push_back(solve_s);
          round_ratios.push_back(ratio);
          if (pair.devices == 4) {
            const auto& report = pair.sharded->last_report();
            pair.exchange_s.push_back(report.exchange_wall_s);
            pair.critical_s.push_back(report.critical_path_s);
            pair.halo_bytes = report.halo_bytes;
          }
        }
      }
    }
    g_trace.end(round_span);
    (g_trace.on ? phase.traced_ratio : phase.untraced_ratio)
        .push_back(geomean(round_ratios));
    ++phase.rounds;
    between_rounds((now_s() - start) / seconds);
  }
  g_trace.on = false;
  return phase;
}

// ---------------------------------------------------------------------------
// Serve phase: one generator thread keeps a fixed window of requests
// outstanding against a weighted-fair SolveService.

constexpr std::size_t kWindow = 16;
constexpr std::size_t kTrafficRequests = 16384;
constexpr std::size_t kCatalogue = 384;

struct ServeSetup {
  std::vector<pw::serve::TimedRequest> traffic;
  std::unique_ptr<pw::serve::SolveService> service;
};

pw::serve::TrafficSpec traffic_spec(std::uint64_t seed) {
  pw::serve::TrafficSpec spec;
  spec.requests = kTrafficRequests;
  spec.zipf_s = 1.1;
  spec.catalogue = kCatalogue;
  spec.tenants = {{"tenant-a", 1.0, pw::api::Priority::kInteractive},
                  {"tenant-b", 1.0, pw::api::Priority::kNormal},
                  {"tenant-hog", 3.0, pw::api::Priority::kBatch}};
  spec.trace.shapes = {{8, 8, 8}, {12, 12, 8}};
  spec.trace.kernels = {pw::api::Kernel::kAdvectPw,
                        pw::api::Kernel::kDiffusion,
                        pw::api::Kernel::kPoissonJacobi};
  spec.trace.backends = {pw::api::Backend::kReference,
                         pw::api::Backend::kFused,
                         pw::api::Backend::kCpuBaseline};
  spec.trace.seed = seed;
  return spec;
}

/// Bytes of one scenario's result: three haloed double fields.
std::size_t result_bytes(const pw::grid::GridDims& d) {
  return 3 * (d.nx + 2) * (d.ny + 2) * (d.nz + 2) * sizeof(double);
}

pw::serve::ServiceConfig service_config(std::size_t cache_bytes) {
  pw::serve::ServiceConfig config;
  config.scheduler = pw::serve::sched::Policy::kWeightedFair;
  config.queue_capacity = 4 * kWindow;
  // One worker per backend pool: the three pools together stay within
  // the four cores the benchmark is sized for.
  config.workers_per_backend = 1;
  config.result_cache_bytes = cache_bytes;
  return config;
}

struct Outstanding {
  pw::api::SolveFuture future;
  std::size_t index = 0;  ///< into the traffic
  std::uint64_t request = 0;
  double submit_start = 0.0;
  double submit_end = 0.0;
  bool traced = false;
};

/// Expected outputs of the traffic, keyed by (input state, kernel).
struct Expectations {
  std::map<std::pair<const void*, int>, std::unique_ptr<Problem>> table;

  Problem* find(const pw::api::SolveRequest& r) const {
    const auto it = table.find(
        {r.state.get(), static_cast<int>(r.options.kernel_spec.kernel())});
    return it == table.end() ? nullptr : it->second.get();
  }
};

/// Transcribes the expected output of every distinct scenario in the
/// traffic (the benchmark's own work, outside setup_s).
Expectations expect_traffic(const std::vector<pw::serve::TimedRequest>& t) {
  Expectations e;
  for (const auto& timed : t) {
    const pw::api::SolveRequest& r = timed.request;
    const auto kernel = r.options.kernel_spec.kernel();
    auto& slot = e.table[{r.state.get(), static_cast<int>(kernel)}];
    if (slot) {
      continue;
    }
    Problem p = make_problem(pw::api::to_string(kernel), unload(r.state->u),
                             unload(r.state->v), unload(r.state->w));
    const pw::api::KernelSpec& spec = r.options.kernel_spec;
    if (const auto* d = spec.get_if<pw::api::DiffusionOptions>()) {
      p.kappa = d->kappa;
      p.spacing = {d->dx, d->dy, d->dz};
    } else if (const auto* q = spec.get_if<pw::api::PoissonOptions>()) {
      p.spacing = {q->dx, q->dy, q->dz};
      p.sweeps = q->iterations;
    } else {
      p.coeffs = to_coeffs(*r.coefficients);
    }
    p.transcribe();
    slot = std::make_unique<Problem>(std::move(p));
  }
  return e;
}

/// Closed loop: keeps kWindow requests outstanding, submitting the next
/// request of the traffic (cycling) while more() allows, and calls
/// done(request, ready time) for each completion. Returns once more() is
/// false and the window has drained. Requests alternate between traced
/// and untraced in blocks of 256 when `trace` is set.
template <typename More, typename Done>
void serve_loop(ServeSetup& s, bool trace, More&& more, Done&& done) {
  constexpr std::uint64_t kTraceBlock = 256;
  std::deque<Outstanding> window;
  std::uint64_t request_id = 0;
  std::size_t next = 0;
  while (true) {
    while (window.size() < kWindow && more()) {
      Outstanding o;
      o.index = next;
      o.request = ++request_id;
      o.traced = trace && (o.request / kTraceBlock) % 2 == 0;
      next = (next + 1) % s.traffic.size();
      g_trace.on = o.traced;
      const int span = g_trace.begin("serve.submit", -1, o.request);
      o.submit_start = now_s();
      o.future = s.service->submit(s.traffic[o.index].request);
      o.submit_end = now_s();
      g_trace.end(span);
      window.push_back(std::move(o));
    }
    if (window.empty()) {
      break;
    }
    window.front().future.wait();
    const double ready = now_s();
    for (auto it = window.begin(); it != window.end();) {
      if (it->future.ready()) {
        g_trace.on = it->traced;
        g_trace.add("serve.wait", it->submit_end, ready, -1, it->request);
        done(*it, ready);
        it = window.erase(it);
      } else {
        ++it;
      }
    }
  }
  g_trace.on = false;
}

/// The serve loop's traffic and service, warmed with a short serve loop.
ServeSetup make_serve_setup(std::uint64_t seed) {
  ServeSetup s;
  s.traffic = pw::serve::make_traffic(traffic_spec(seed));
  // Scenario k has shape k % 2; the cap holds a third of their results, so
  // the result cache must evict.
  const std::size_t catalogue_bytes =
      kCatalogue / 2 * (result_bytes({8, 8, 8}) + result_bytes({12, 12, 8}));
  s.service = std::make_unique<pw::serve::SolveService>(
      service_config(catalogue_bytes / 3));
  std::size_t warm = 0;
  serve_loop(
      s, false, [&] { return warm++ < 2 * kWindow; },
      [](Outstanding&, double) {});
  return s;
}

struct ServePhase {
  std::uint64_t ok = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_s, submit_s, wait_s, solve_s;
  std::vector<double> traced_latency_s, untraced_latency_s;
};

/// The measured serve loop: runs until `seconds` have passed, then drains.
/// Every response is checked against the transcription once its latency
/// has been taken.
ServePhase run_serve_phase(ServeSetup& s, const Expectations& expected,
                           double seconds, bool trace, Counts& counts) {
  ServePhase phase;
  const double t0 = now_s();
  const double deadline = t0 + seconds;
  double last = t0;
  serve_loop(
      s, trace, [&] { return now_s() < deadline; },
      [&](Outstanding& o, double ready) {
        const pw::api::SolveResult& result = o.future.result();
        ++counts.attempted;
        last = ready;
        phase.submit_s.push_back(o.submit_end - o.submit_start);
        const Problem* problem = expected.find(s.traffic[o.index].request);
        if (problem == nullptr || !check(result, *problem, kTolF64)) {
          ++counts.failed;
          counts.mismatched += result.ok() ? 1 : 0;
          return;
        }
        ++phase.ok;
        const double latency = ready - o.submit_start;
        phase.latency_s.push_back(latency);
        (o.traced ? phase.traced_latency_s : phase.untraced_latency_s)
            .push_back(latency);
        phase.wait_s.push_back(ready - o.submit_end);
        if (!result.cached) {
          phase.solve_s.push_back(result.seconds);
        }
      });
  phase.elapsed_s = last - t0;
  return phase;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): direct calls below the facade.

/// Wall time of one call of f, recorded as a span when tracing.
template <typename F>
double timed(const char* span, F&& f) {
  const int id = g_trace.begin(span);
  const double t0 = now_s();
  f();
  const double t = now_s() - t0;
  g_trace.end(id);
  return t;
}

// ---------------------------------------------------------------------------
// Workloads and reporting.

struct Workload {
  const char* name;
  std::size_t grid;    ///< solve grid edge
  std::size_t setups;  ///< set-up repetitions; setup_s is their median
};

const Workload kWorkloads[] = {{"solve_64", 64, 5}, {"solve_8", 8, 41}};

/// One set-up as setup_s times it: the solve inputs and solvers built from
/// nothing and warmed with one solve per pair. Appends its process CPU time
/// to `times`: its wall time follows the host's load (README "End-to-end
/// metrics").
SolveSetup set_up(const Workload& w, std::uint64_t seed,
                  std::vector<double>& times) {
  const double t0 = cpu_s();
  SolveSetup s = make_solve_setup(w.grid, seed);
  for (Pair& pair : s.pairs) {
    if (pair.valid) {
      run_pair(pair);
    }
  }
  times.push_back(cpu_s() - t0);
  return s;
}

/// Share of a traced run's --seconds given to the serve loop. The serve
/// figures move with the host's load by far more than any bound could
/// absorb (README "Why serve is a layer"), so they are read in traced runs
/// and gate nothing; untraced runs time the solve rounds alone.
constexpr double kTracedServeShare = 0.25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = value == "1";
      } else if (key == "--trace-out") {
        a.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const char* unit) {
    items.push_back({name, {value, unit}});
  }
};

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  const Workload* workload = nullptr;
  if (parsed) {
    for (const Workload& w : kWorkloads) {
      if (parsed->workload == w.name) {
        workload = &w;
      }
    }
  }
  if (!parsed || workload == nullptr) {
    std::cerr << "usage: perfbench --workload solve_64|solve_8 "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n";
    return 2;
  }
  const Args& args = *parsed;

  const std::string self = perfbench::self_check();
  if (!self.empty()) {
    std::cerr << "perfbench: transcription self-check failed: " << self
              << "\n";
    return 1;
  }

  // setup_s is the median of several set-ups. The first one's objects are
  // the ones measured; untraced runs repeat the set-up between rounds,
  // spread evenly over the run so that a short slow phase of the host moves
  // few of them, and drop what the repeats build.
  std::vector<double> setup_s;
  SolveSetup solve = set_up(*workload, args.seed, setup_s);
  const std::size_t setups = args.trace ? 1 : workload->setups;
  // The serve loop runs in traced runs only, so only they build it.
  ServeSetup serve;
  if (args.trace) {
    serve = make_serve_setup(args.seed);
  }

  // The benchmark's own work: expected outputs.
  for (Problem& p : solve.problems) {
    p.transcribe();
  }
  Counts counts;
  const double serve_seconds = args.trace ? args.seconds * kTracedServeShare
                                          : 0.0;
  const SolvePhase sp = run_solve_phase(
      solve, args.seconds - serve_seconds, args.trace, counts,
      [&](double gone) {
        if (setup_s.size() < setups &&
            gone * static_cast<double>(setups) >=
                static_cast<double>(setup_s.size())) {
          set_up(*workload, args.seed, setup_s);
        }
      });
  while (setup_s.size() < setups) {
    set_up(*workload, args.seed, setup_s);
  }
  ServePhase vp;
  if (args.trace) {
    const Expectations expected = expect_traffic(serve.traffic);
    vp = run_serve_phase(serve, expected, serve_seconds, true, counts);
  }

  // Solve metrics.
  std::vector<double> kernel_speedup[3];
  std::vector<double> shard_d4;
  for (const Pair& pair : solve.pairs) {
    if (pair.devices == 0) {
      kernel_speedup[pair.kernel].push_back(median(pair.ratios));
    } else if (pair.devices == 4) {
      shard_d4.push_back(median(pair.ratios));
    }
  }

  Metrics m;
  if (!args.trace) {
    m.add("advect_speedup", geomean(kernel_speedup[0]), "x");
    m.add("diffusion_speedup", geomean(kernel_speedup[1]), "x");
    m.add("poisson_speedup", geomean(kernel_speedup[2]), "x");
    m.add("sharded_speedup", geomean(shard_d4), "x");
    m.add("setup_s", median(setup_s), "s");
    m.add("peak_rss_mb", peak_rss_mib(), "MiB");
  } else {
    const double cells = static_cast<double>(solve.n * solve.n * solve.n);
    for (const Pair& pair : solve.pairs) {
      m.add(pair.label + ".speedup", median(pair.ratios), "x");
      if (pair.devices == 0) {
        m.add(pair.label + ".mcups", cells / median(pair.seconds) / 1e6,
              "Mcell/s");
      }
    }

    // Facade overhead and direct engine calls, interleaved per repetition.
    const std::size_t reps = solve.n >= 32 ? 5 : 200;
    for (std::size_t k = 0; k < 3; ++k) {
      const Pair* ref = nullptr;
      for (const Pair& pair : solve.pairs) {
        if (pair.kernel == k && pair.backend == "reference" && pair.valid) {
          ref = &pair;
        }
      }
      if (ref == nullptr) {
        continue;
      }
      pw::advect::SourceTerms terms(ref->request.state->u.dims());
      pw::stencil::EngineConfig reference_engine;
      const pw::grid::WindState& st = *ref->request.state;
      const pw::api::KernelSpec& spec = ref->request.options.kernel_spec;
      std::vector<double> facade, direct;
      const char* const direct_span =
          k == 0   ? "advect.reference"
          : k == 1 ? "stencil.diffusion.reference"
                   : "stencil.poisson_jacobi.reference";
      for (std::size_t r = 0; r < reps; ++r) {
        facade.push_back(timed("api.solve.reference", [&] {
          pw::api::Solver().solve(ref->request);
        }));
        direct.push_back(timed(direct_span, [&] {
          if (k == 0) {
            pw::advect::advect_reference(st, *ref->request.coefficients,
                                         terms);
          } else if (k == 1) {
            pw::stencil::run_diffusion(
                st, *spec.get_if<pw::api::DiffusionOptions>(), terms,
                reference_engine);
          } else {
            pw::stencil::run_poisson(st,
                                     *spec.get_if<pw::api::PoissonOptions>(),
                                     terms, reference_engine);
          }
        }));
      }
      m.add(std::string("api.") + kKernelNames[k] + ".overhead_us",
            1e6 * (median(facade) - median(direct)), "us");
      m.add(k == 0 ? std::string("advect.reference_us")
                   : std::string("stencil.") + kKernelNames[k] +
                         ".reference_us",
            1e6 * median(direct), "us");
    }

    const std::size_t threads =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    std::vector<double> pool_s;
    for (int r = 0; r < 50; ++r) {
      pool_s.push_back(timed("util.thread_pool",
                             [&] { pw::util::ThreadPool pool(threads); }));
    }
    m.add("util.thread_pool_us", 1e6 * median(pool_s), "us");

    double wall_sum = 0.0, exchange_sum = 0.0, critical_sum = 0.0;
    std::uint64_t halo = 0;
    for (const Pair& pair : solve.pairs) {
      if (pair.devices == 4) {
        wall_sum += median(pair.seconds);
        exchange_sum += median(pair.exchange_s);
        critical_sum += median(pair.critical_s);
        halo += pair.halo_bytes;
      }
    }
    m.add("shard.d4.wall_ms", 1e3 * wall_sum, "ms");
    m.add("shard.d4.exchange_ms", 1e3 * exchange_sum, "ms");
    m.add("shard.d4.critical_path_ms", 1e3 * critical_sum, "ms");
    m.add("shard.d4.halo_bytes", static_cast<double>(halo), "bytes");

    m.add("serve.rps", static_cast<double>(vp.ok) / vp.elapsed_s, "1/s");
    m.add("serve.p50_ms", 1e3 * quantile(vp.latency_s, 0.50), "ms");
    m.add("serve.p99_ms", 1e3 * quantile(vp.latency_s, 0.99), "ms");
    m.add("serve.submit_us", 1e6 * median(vp.submit_s), "us");
    m.add("serve.wait_us", 1e6 * median(vp.wait_s), "us");
    m.add("serve.wait_p99_us", 1e6 * quantile(vp.wait_s, 0.99), "us");
    m.add("serve.solve_ms", 1e3 * median(vp.solve_s), "ms");

    std::vector<double> snapshot_s;
    pw::serve::ServiceReport report;
    for (int r = 0; r < 3; ++r) {
      snapshot_s.push_back(
          timed("obs.snapshot", [&] { report = serve.service->report(); }));
    }
    const double done = static_cast<double>(report.completed);
    m.add("serve.cache_hit_ratio",
          done > 0 ? static_cast<double>(report.result_cache_hits) / done : 0.0,
          "ratio");
    m.add("serve.computed", static_cast<double>(report.computed), "count");
    m.add("serve.cache_evictions", static_cast<double>(report.cache_evictions),
          "count");
    m.add("serve.batch_size_mean", report.batch_size.mean, "count");
    const double plans =
        static_cast<double>(report.plan_cache_hits + report.plan_cache_misses);
    m.add("serve.plan_cache_hit_ratio",
          plans > 0 ? static_cast<double>(report.plan_cache_hits) / plans : 0.0,
          "ratio");

    // counter_add with a per-tenant name built per call, as the serve hot
    // path does; ns per call, median of batches.
    const char* const tenants[] = {"tenant-a", "tenant-b", "tenant-hog"};
    std::vector<double> per_call;
    constexpr int kCalls = 20000;
    for (int batch = 0; batch < 7; ++batch) {
      const double t0 = now_s();
      for (int c = 0; c < kCalls; ++c) {
        serve.service->metrics().counter_add(
            std::string("serve.tenant.") + tenants[c % 3] + ".bench");
      }
      per_call.push_back((now_s() - t0) / kCalls);
    }
    m.add("obs.counter_add_ns", 1e9 * median(per_call), "ns");
    m.add("obs.snapshot_ms", 1e3 * median(snapshot_s), "ms");

    double yardstick_iqr = 0.0;
    for (const auto& y : sp.yardstick_s) {
      yardstick_iqr = std::max(yardstick_iqr, iqr_over_median(y));
    }
    m.add("host.yardstick_iqr", yardstick_iqr, "ratio");
    const double g_untraced = median(sp.untraced_ratio);
    const double g_traced = median(sp.traced_ratio);
    m.add("trace.solve_overhead_pct",
          g_traced > 0 ? 100.0 * (g_untraced / g_traced - 1.0) : 0.0, "%");
    const double p50_untraced = quantile(vp.untraced_latency_s, 0.5);
    m.add("trace.serve_overhead_pct",
          p50_untraced > 0
              ? 100.0 * (quantile(vp.traced_latency_s, 0.5) / p50_untraced -
                         1.0)
              : 0.0,
          "%");
  }
  if (args.trace && !args.trace_out.empty()) {
    if (!g_trace.write(args.trace_out)) {
      std::cerr << "perfbench: cannot write trace to " << args.trace_out
                << "\n";
      return 1;
    }
  }

  std::cout << "workload " << workload->name << " seed " << args.seed
            << ": rounds " << sp.rounds << ", served " << vp.ok
            << ", attempted " << counts.attempted << ", failed "
            << counts.failed << " (mismatched " << counts.mismatched
            << ")\n";
  for (const auto& [name, vu] : m.items) {
    std::cout << "  " << name << " = " << vu.first << " " << vu.second
              << "\n";
  }
  std::ostringstream json;
  json.precision(10);
  // A refused operation counts in `failed`; an output that disagrees with
  // the transcription also makes the run incorrect.
  json << "{\"correct\": " << (counts.mismatched == 0 ? "true" : "false")
       << ", \"attempted\": " << counts.attempted
       << ", \"failed\": " << counts.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    json << (i ? ", " : "") << "\"" << m.items[i].first
         << "\": {\"value\": " << m.items[i].second.first << ", \"unit\": \""
         << m.items[i].second.second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
