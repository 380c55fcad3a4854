#pragma once

// Independent scalar transcriptions of the three kernels the benchmark
// times. They are written from the numerical methods, not from the
// library: they index plain arrays themselves and read nothing but the
// input arrays and the coefficients, so a fault shared by every library
// path (a wrong index, a dropped term, a halo rule) still shows as a
// mismatch. They double as the yardstick every solve is timed against.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// A scalar field on an nx × ny × nz interior with a one-cell halo on
/// every face, stored z fastest, then y, then x — the layout of the
/// library's Field3D with halo 1, so a Box and a field's raw() span hold
/// the same values at the same offsets.
struct Box {
  std::size_t nx = 0, ny = 0, nz = 0;
  std::vector<double> a;

  Box() = default;
  Box(std::size_t x, std::size_t y, std::size_t z)
      : nx(x), ny(y), nz(z), a((x + 2) * (y + 2) * (z + 2), 0.0) {}

  std::size_t index(std::ptrdiff_t i, std::ptrdiff_t j,
                    std::ptrdiff_t k) const {
    return static_cast<std::size_t>(i + 1) * (ny + 2) * (nz + 2) +
           static_cast<std::size_t>(j + 1) * (nz + 2) +
           static_cast<std::size_t>(k + 1);
  }
  double& operator()(std::ptrdiff_t i, std::ptrdiff_t j, std::ptrdiff_t k) {
    return a[index(i, j, k)];
  }
  double operator()(std::ptrdiff_t i, std::ptrdiff_t j,
                    std::ptrdiff_t k) const {
    return a[index(i, j, k)];
  }
  std::size_t cells() const { return nx * ny * nz; }
};

/// Piacsek–Williams coefficients: horizontal tcx/tcy and four per-level
/// vertical profiles (length nz).
struct PwCoeffs {
  double tcx = 0.0, tcy = 0.0;
  std::vector<double> tzc1, tzc2, tzd1, tzd2;
};

/// Uniform-grid spacings shared by diffusion and the Jacobi sweep.
struct Spacing {
  double dx = 100.0, dy = 100.0, dz = 50.0;
};

/// Interior x-planes [begin, end) a call writes; the default is all of
/// them. Calls on disjoint slabs may run at once on shared outputs.
struct Slab {
  std::size_t begin = 0;
  std::size_t end = static_cast<std::size_t>(-1);
};

/// PW advection tendencies (su, sv, sw) of the wind (u, v, w). At the top
/// level the outgoing vertical flux of the u and v terms is dropped (the
/// rigid lid); the w term keeps both vertical fluxes.
void pw_advection(const Box& u, const Box& v, const Box& w,
                  const PwCoeffs& c, Box& su, Box& sv, Box& sw,
                  Slab slab = {});

/// kappa · (7-point discrete Laplacian) of f, reading f's halo as given.
void diffusion(const Box& f, double kappa, const Spacing& s, Box& out,
               Slab slab = {});

/// One Jacobi sweep for lap(x) = rhs, reading the guess's halo as given.
void jacobi_sweep(const Box& guess, const Box& rhs, const Spacing& s,
                  Box& out, Slab slab = {});

/// `sweeps` Jacobi sweeps from `guess` with Dirichlet-zero boundaries:
/// the guess's halo is ignored and held at zero. `out` and `scratch` must
/// have the guess's shape; the result lands in `out`, and `scratch` is
/// left zero.
void poisson_jacobi(const Box& guess, const Box& rhs, const Spacing& s,
                    std::size_t sweeps, Box& out, Box& scratch);

/// Largest |a - b| over the interior of b's layout, divided by the largest
/// |b| there (by 1 when b is all zero). A NaN counts as infinitely wrong.
double relative_error(std::span<const double> a, const Box& b);

/// Checks the transcriptions against properties the methods must have,
/// independent of any other implementation. Returns "" when they hold,
/// else a description of the first failed property.
std::string self_check();

}  // namespace perfbench
