#include "transcription.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

using Idx = std::ptrdiff_t;

Idx sz(std::size_t n) { return static_cast<Idx>(n); }

Idx slab_end(Slab slab, std::size_t nx) { return sz(std::min(slab.end, nx)); }

}  // namespace

void pw_advection(const Box& u, const Box& v, const Box& w,
                  const PwCoeffs& c, Box& su, Box& sv, Box& sw, Slab slab) {
  const Idx ny = sz(u.ny), nz = sz(u.nz);
  for (Idx i = sz(slab.begin); i < slab_end(slab, u.nx); ++i) {
    for (Idx j = 0; j < ny; ++j) {
      for (Idx k = 0; k < nz; ++k) {
        const bool lid = k == nz - 1;
        const auto z = static_cast<std::size_t>(k);

        // u momentum: fluxes through the x, y and z faces of the u cell.
        const double ux = u(i - 1, j, k) * (u(i, j, k) + u(i - 1, j, k)) -
                          u(i + 1, j, k) * (u(i, j, k) + u(i + 1, j, k));
        const double uy =
            u(i, j - 1, k) * (v(i, j - 1, k) + v(i + 1, j - 1, k)) -
            u(i, j + 1, k) * (v(i, j, k) + v(i + 1, j, k));
        const double uz_in =
            u(i, j, k - 1) * (w(i, j, k - 1) + w(i + 1, j, k - 1));
        const double uz_out = u(i, j, k + 1) * (w(i, j, k) + w(i + 1, j, k));
        double s = c.tcx * ux + c.tcy * uy + c.tzc1[z] * uz_in;
        if (!lid) {
          s -= c.tzc2[z] * uz_out;
        }
        su(i, j, k) = s;

        // v momentum.
        const double vx =
            v(i - 1, j, k) * (u(i - 1, j, k) + u(i - 1, j + 1, k)) -
            v(i + 1, j, k) * (u(i, j, k) + u(i, j + 1, k));
        const double vy = v(i, j - 1, k) * (v(i, j, k) + v(i, j - 1, k)) -
                          v(i, j + 1, k) * (v(i, j, k) + v(i, j + 1, k));
        const double vz_in =
            v(i, j, k - 1) * (w(i, j, k - 1) + w(i, j + 1, k - 1));
        const double vz_out = v(i, j, k + 1) * (w(i, j, k) + w(i, j + 1, k));
        s = c.tcx * vx + c.tcy * vy + c.tzc1[z] * vz_in;
        if (!lid) {
          s -= c.tzc2[z] * vz_out;
        }
        sv(i, j, k) = s;

        // w momentum: both vertical fluxes at every level.
        const double wx =
            w(i - 1, j, k) * (u(i - 1, j, k) + u(i - 1, j, k + 1)) -
            w(i + 1, j, k) * (u(i, j, k) + u(i, j, k + 1));
        const double wy =
            w(i, j - 1, k) * (v(i, j - 1, k) + v(i, j - 1, k + 1)) -
            w(i, j + 1, k) * (v(i, j, k) + v(i, j, k + 1));
        const double wz_in = w(i, j, k - 1) * (w(i, j, k) + w(i, j, k - 1));
        const double wz_out = w(i, j, k + 1) * (w(i, j, k) + w(i, j, k + 1));
        sw(i, j, k) = c.tcx * wx + c.tcy * wy + c.tzd1[z] * wz_in -
                      c.tzd2[z] * wz_out;
      }
    }
  }
}

void diffusion(const Box& f, double kappa, const Spacing& s, Box& out,
               Slab slab) {
  const double cx = kappa / (s.dx * s.dx);
  const double cy = kappa / (s.dy * s.dy);
  const double cz = kappa / (s.dz * s.dz);
  const Idx ny = sz(f.ny), nz = sz(f.nz);
  for (Idx i = sz(slab.begin); i < slab_end(slab, f.nx); ++i) {
    for (Idx j = 0; j < ny; ++j) {
      for (Idx k = 0; k < nz; ++k) {
        const double centre = 2.0 * f(i, j, k);
        out(i, j, k) = cx * (f(i - 1, j, k) + f(i + 1, j, k) - centre) +
                       cy * (f(i, j - 1, k) + f(i, j + 1, k) - centre) +
                       cz * (f(i, j, k - 1) + f(i, j, k + 1) - centre);
      }
    }
  }
}

void jacobi_sweep(const Box& guess, const Box& rhs, const Spacing& s,
                  Box& out, Slab slab) {
  const double cx = 1.0 / (s.dx * s.dx);
  const double cy = 1.0 / (s.dy * s.dy);
  const double cz = 1.0 / (s.dz * s.dz);
  const double diag = 2.0 * (cx + cy + cz);
  const Idx ny = sz(guess.ny), nz = sz(guess.nz);
  for (Idx i = sz(slab.begin); i < slab_end(slab, guess.nx); ++i) {
    for (Idx j = 0; j < ny; ++j) {
      for (Idx k = 0; k < nz; ++k) {
        const double neighbours =
            cx * (guess(i - 1, j, k) + guess(i + 1, j, k)) +
            cy * (guess(i, j - 1, k) + guess(i, j + 1, k)) +
            cz * (guess(i, j, k - 1) + guess(i, j, k + 1));
        out(i, j, k) = (neighbours - rhs(i, j, k)) / diag;
      }
    }
  }
}

void poisson_jacobi(const Box& guess, const Box& rhs, const Spacing& s,
                    std::size_t sweeps, Box& out, Box& scratch) {
  // Only interiors are ever written, so zero halos stay at the Dirichlet
  // zero. An even number of sweeps ping-pongs out -> scratch -> out; an odd
  // number starts in scratch so the last sweep still lands in out.
  std::fill(out.a.begin(), out.a.end(), 0.0);
  std::fill(scratch.a.begin(), scratch.a.end(), 0.0);
  const std::size_t n = std::max<std::size_t>(1, sweeps);
  Box* x = n % 2 ? &scratch : &out;
  Box* next = n % 2 ? &out : &scratch;
  for (Idx i = 0; i < sz(guess.nx); ++i) {
    for (Idx j = 0; j < sz(guess.ny); ++j) {
      for (Idx k = 0; k < sz(guess.nz); ++k) {
        (*x)(i, j, k) = guess(i, j, k);
      }
    }
  }
  for (std::size_t sweep = 0; sweep < n; ++sweep) {
    jacobi_sweep(*x, rhs, s, *next);
    std::swap(x, next);
  }
  std::fill(scratch.a.begin(), scratch.a.end(), 0.0);
}

double relative_error(std::span<const double> a, const Box& b) {
  if (a.size() != b.a.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double scale = 0.0;
  double worst = 0.0;
  for (Idx i = 0; i < sz(b.nx); ++i) {
    for (Idx j = 0; j < sz(b.ny); ++j) {
      for (Idx k = 0; k < sz(b.nz); ++k) {
        const std::size_t at = b.index(i, j, k);
        const double diff = std::abs(a[at] - b.a[at]);
        // A NaN anywhere must fail the comparison, not vanish in max().
        if (!(diff <= worst)) {
          worst = std::isnan(diff) ? std::numeric_limits<double>::infinity()
                                   : diff;
        }
        scale = std::max(scale, std::abs(b.a[at]));
      }
    }
  }
  return worst / (scale > 0.0 ? scale : 1.0);
}

namespace {

Box filled(std::size_t n, double (*f)(Idx, Idx, Idx)) {
  Box box(n, n + 1, n + 2);
  for (Idx i = -1; i <= sz(box.nx); ++i) {
    for (Idx j = -1; j <= sz(box.ny); ++j) {
      for (Idx k = -1; k <= sz(box.nz); ++k) {
        box(i, j, k) = f(i, j, k);
      }
    }
  }
  return box;
}

bool all_zero(const Box& box, Idx below_k) {
  for (Idx i = 0; i < sz(box.nx); ++i) {
    for (Idx j = 0; j < sz(box.ny); ++j) {
      for (Idx k = 0; k < std::min(below_k, sz(box.nz)); ++k) {
        if (box(i, j, k) != 0.0) {
          return false;
        }
      }
    }
  }
  return true;
}

PwCoeffs z_varying(std::size_t nz) {
  PwCoeffs c;
  c.tcx = 0.0025;
  c.tcy = 0.003;
  for (std::size_t k = 0; k < nz; ++k) {
    c.tzc1.push_back(0.005 + 1e-4 * static_cast<double>(k));
    c.tzc2.push_back(0.006 - 1e-4 * static_cast<double>(k));
    c.tzd1.push_back(0.004 + 2e-4 * static_cast<double>(k));
    c.tzd2.push_back(0.007 - 3e-5 * static_cast<double>(k));
  }
  return c;
}

}  // namespace

std::string self_check() {
  constexpr std::size_t n = 6;
  const Spacing spacing{100.0, 80.0, 50.0};

  // Constant horizontal wind: every flux difference cancels exactly, so all
  // three advection tendencies and every diffusion tendency are zero.
  const Box u0 = filled(n, [](Idx, Idx, Idx) { return 1.75; });
  const Box v0 = filled(n, [](Idx, Idx, Idx) { return -0.5; });
  const Box w0 = filled(n, [](Idx, Idx, Idx) { return 0.0; });
  Box su(n, n + 1, n + 2), sv = su, sw = su;
  pw_advection(u0, v0, w0, z_varying(n + 2), su, sv, sw);
  if (!all_zero(su, sz(n + 2)) || !all_zero(sv, sz(n + 2)) ||
      !all_zero(sw, sz(n + 2))) {
    return "advection of a constant horizontal wind is not zero";
  }
  // With a vertical component too, vertically uniform coefficients cancel
  // the z fluxes below the lid.
  const Box w1 = filled(n, [](Idx, Idx, Idx) { return 0.25; });
  PwCoeffs uniform = z_varying(n + 2);
  std::fill(uniform.tzc2.begin(), uniform.tzc2.end(), uniform.tzc1[0]);
  std::fill(uniform.tzc1.begin(), uniform.tzc1.end(), uniform.tzc1[0]);
  std::fill(uniform.tzd2.begin(), uniform.tzd2.end(), uniform.tzd1[0]);
  std::fill(uniform.tzd1.begin(), uniform.tzd1.end(), uniform.tzd1[0]);
  pw_advection(u0, v0, w1, uniform, su, sv, sw);
  if (!all_zero(su, sz(n + 1)) || !all_zero(sv, sz(n + 1)) ||
      !all_zero(sw, sz(n + 2))) {
    return "advection of a constant wind is not zero below the lid";
  }
  Box lap(n, n + 1, n + 2);
  for (const Box* f : {&u0, &v0, &w1}) {
    diffusion(*f, 1.3, spacing, lap);
    if (!all_zero(lap, sz(n + 2))) {
      return "diffusion of a constant field is not zero";
    }
  }

  // A linear field with integer values has an exactly zero discrete
  // Laplacian (every sum is exact), so its diffusion tendency is zero.
  const Box linear = filled(n, [](Idx i, Idx j, Idx k) {
    return 3.0 * static_cast<double>(i) - 2.0 * static_cast<double>(j) +
           5.0 * static_cast<double>(k) + 7.0;
  });
  diffusion(linear, 0.7, spacing, lap);
  if (!all_zero(lap, sz(n + 2))) {
    return "the discrete Laplacian of a linear field is not zero";
  }

  // A discrete-harmonic field is a fixed point of the Jacobi sweep with a
  // zero right-hand side, up to the rounding of the final division.
  const Box zero(n, n + 1, n + 2);
  Box swept(n, n + 1, n + 2);
  jacobi_sweep(linear, zero, spacing, swept);
  if (relative_error(swept.a, linear) >
      8.0 * std::numeric_limits<double>::epsilon()) {
    return "a discrete-harmonic field is not a fixed point of the sweep";
  }
  // With zero data and Dirichlet-zero boundaries the iterate stays zero.
  Box solved(n, n + 1, n + 2), scratch(n, n + 1, n + 2);
  poisson_jacobi(zero, zero, spacing, 8, solved, scratch);
  if (!all_zero(solved, sz(n + 2))) {
    return "Jacobi iteration on zero data is not zero";
  }
  return "";
}

}  // namespace perfbench
