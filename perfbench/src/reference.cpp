#include "reference.hpp"

#include <cmath>
#include <cstddef>
#include <limits>
#include <span>

namespace perfbench {

namespace {

struct scheme {
  double gam = 1.4;
  double gm1 = 0.4;
  double cfl = 0.9;
  double eps = 0.05;
  double qinf[4] = {};
};

scheme make_scheme(double alpha_rad) {
  scheme c;
  const double mach = 0.4;
  const double p = 1.0;
  const double r = 1.0;
  const double u = std::sqrt(c.gam * p / r) * mach;
  const double e = p / (r * c.gm1) + 0.5 * u * u;
  c.qinf[0] = r;
  c.qinf[1] = r * u * std::cos(alpha_rad);
  c.qinf[2] = r * u * std::sin(alpha_rad);
  c.qinf[3] = r * e;
  return c;
}

double pressure(const scheme& c, const double* q) {
  const double ri = 1.0 / q[0];
  return c.gm1 * (q[3] - 0.5 * ri * (q[1] * q[1] + q[2] * q[2]));
}

// Flux across a face with normal (dy, -dx) between states qa and qb,
// with artificial dissipation mu: f[n] leaves the first cell and enters
// the second.
void face_flux(const scheme& c, double dx, double dy, const double* qa,
               const double* qb, double mu, double* f) {
  const double pa = pressure(c, qa);
  const double pb = pressure(c, qb);
  const double va = (qa[1] * dy - qa[2] * dx) / qa[0];
  const double vb = (qb[1] * dy - qb[2] * dx) / qb[0];
  f[0] = 0.5 * (va * qa[0] + vb * qb[0]) + mu * (qa[0] - qb[0]);
  f[1] = 0.5 * (va * qa[1] + pa * dy + vb * qb[1] + pb * dy) +
         mu * (qa[1] - qb[1]);
  f[2] = 0.5 * (va * qa[2] - pa * dx + vb * qb[2] - pb * dx) +
         mu * (qa[2] - qb[2]);
  f[3] = 0.5 * (va * (qa[3] + pa) + vb * (qb[3] + pb)) + mu * (qa[3] - qb[3]);
}

}  // namespace

reference_result reference_airfoil(const op2::mesh& m, double alpha_rad,
                                   int niter) {
  const scheme c = make_scheme(alpha_rad);
  const std::span<const double> x = m.dat("p_x").data<double>();
  const std::span<const int> bound = m.dat("p_bound").data<int>();
  const std::span<const int> pcell = m.map("pcell").table();
  const std::span<const int> pedge = m.map("pedge").table();
  const std::span<const int> pecell = m.map("pecell").table();
  const std::span<const int> pbedge = m.map("pbedge").table();
  const std::span<const int> pbecell = m.map("pbecell").table();
  const auto ncell = static_cast<std::size_t>(m.set("cells").size());
  const auto nedge = static_cast<std::size_t>(m.set("edges").size());
  const auto nbedge = static_cast<std::size_t>(m.set("bedges").size());

  const auto node = [&](int id) { return &x[2 * static_cast<std::size_t>(id)]; };

  reference_result out;
  std::vector<double>& q = out.q;
  q.resize(4 * ncell);
  for (std::size_t i = 0; i < ncell; ++i) {
    for (std::size_t n = 0; n < 4; ++n) {
      q[4 * i + n] = c.qinf[n];
    }
  }
  std::vector<double> qold(4 * ncell);
  std::vector<double> adt(ncell);
  std::vector<double> res(4 * ncell, 0.0);

  for (int iter = 0; iter < niter; ++iter) {
    qold = q;
    double rms = 0.0;
    for (int stage = 0; stage < 2; ++stage) {
      // Local time step: sum over the four faces of the cell of
      // |u.n| + c|n|, divided by the CFL number.
      for (std::size_t i = 0; i < ncell; ++i) {
        const double* qi = &q[4 * i];
        const double u = qi[1] / qi[0];
        const double v = qi[2] / qi[0];
        const double sound =
            std::sqrt(c.gam * c.gm1 * (qi[3] / qi[0] - 0.5 * (u * u + v * v)));
        double sum = 0.0;
        for (std::size_t k = 0; k < 4; ++k) {
          const double* a = node(pcell[4 * i + k]);
          const double* b = node(pcell[4 * i + (k + 1) % 4]);
          const double dx = b[0] - a[0];
          const double dy = b[1] - a[1];
          sum += std::fabs(u * dy - v * dx) + sound * std::sqrt(dx * dx + dy * dy);
        }
        adt[i] = sum / c.cfl;
      }

      double f[4];
      for (std::size_t e = 0; e < nedge; ++e) {
        const double* a = node(pedge[2 * e]);
        const double* b = node(pedge[2 * e + 1]);
        const auto c1 = static_cast<std::size_t>(pecell[2 * e]);
        const auto c2 = static_cast<std::size_t>(pecell[2 * e + 1]);
        const double mu = 0.5 * (adt[c1] + adt[c2]) * c.eps;
        face_flux(c, a[0] - b[0], a[1] - b[1], &q[4 * c1], &q[4 * c2], mu, f);
        for (std::size_t n = 0; n < 4; ++n) {
          res[4 * c1 + n] += f[n];
          res[4 * c2 + n] -= f[n];
        }
      }

      for (std::size_t e = 0; e < nbedge; ++e) {
        const double* a = node(pbedge[2 * e]);
        const double* b = node(pbedge[2 * e + 1]);
        const auto c1 = static_cast<std::size_t>(pbecell[e]);
        const double dx = a[0] - b[0];
        const double dy = a[1] - b[1];
        if (bound[e] == 1) {  // wall: pressure only
          const double p = pressure(c, &q[4 * c1]);
          res[4 * c1 + 1] += p * dy;
          res[4 * c1 + 2] -= p * dx;
        } else {              // far field: flux against the free stream
          face_flux(c, dx, dy, &q[4 * c1], c.qinf, adt[c1] * c.eps, f);
          for (std::size_t n = 0; n < 4; ++n) {
            res[4 * c1 + n] += f[n];
          }
        }
      }

      rms = 0.0;
      for (std::size_t i = 0; i < ncell; ++i) {
        for (std::size_t n = 0; n < 4; ++n) {
          const double del = res[4 * i + n] / adt[i];
          q[4 * i + n] = qold[4 * i + n] - del;
          res[4 * i + n] = 0.0;
          rms += del * del;
        }
      }
    }
    out.rms.push_back(std::sqrt(rms / static_cast<double>(ncell)));
  }
  return out;
}

double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = std::fabs(a[i] - b[i]) / (1.0 + std::fabs(b[i]));
    if (!std::isfinite(d)) {
      return std::numeric_limits<double>::infinity();
    }
    if (d > worst) {
      worst = d;
    }
  }
  return worst;
}

}  // namespace perfbench
