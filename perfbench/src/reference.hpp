// Independent serial Airfoil: its own copy of the five kernel formulas
// and of the two-stage iteration, run over the arrays of a generated
// mesh with plain loops (no op2, no hpxlite).  The benchmark checks
// every backend's final q against it.
#pragma once

#include <vector>

#include "op2/mesh_io.hpp"

namespace perfbench {

struct reference_result {
  std::vector<double> q;    // 4 per cell, after the last iteration
  std::vector<double> rms;  // sqrt(sum del^2 / ncell) after each iteration
};

/// Runs `niter` iterations from the free stream of Mach 0.4 at angle of
/// attack `alpha_rad` (gamma 1.4, CFL 0.9, eps 0.05) over `m`, a mesh
/// from airfoil::generate_mesh.
reference_result reference_airfoil(const op2::mesh& m, double alpha_rad,
                                   int niter);

/// Largest |a[i] - b[i]| / (1 + |b[i]|); infinity on a size mismatch
/// or a non-finite entry.
double max_rel_diff(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench
