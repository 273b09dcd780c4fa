// LoLi-IR: the paper's fingerprint-matrix reconstruction algorithm
// (Low-rank / Linear-representation Iterative Reconstruction).
//
// The fingerprint matrix estimate is factored as X^ = L R^T and found by
// minimizing the paper's objective
//
//   min_{L,R}  lambda (||L||_F^2 + ||R||_F^2)
//            + w_d  ||B o (L R^T) - X_I||_F^2          (undistorted entries)
//            + mu   ||L R^T - X_R Z||_F^2              (LRR prediction)
//            + nu   ||(L R^T)_ref - X_R||_F^2          (fresh reference columns)
//            + gamma * continuity  + delta * similarity (distorted entries)
//
// by alternating minimization: with R fixed the objective is a ridge
// least-squares problem in L (and vice versa).  Its normal operator is
// assembled once per half-step as one r x r block per unknown row (a
// link's l_i, or a grid's r_j) plus pairwise couplings: adjacent-link
// similarity blocks in the L-step, continuity pairs in the R-step.  The
// blocks are Cholesky-factored in place; CG runs on the block operator
// (O((M+N) r^2 + pairs r) per matvec, never re-forming L R^T), block-
// Jacobi preconditioned with those same factors.  Initialization is the
// truncated SVD of the LRR prediction with known entries and reference
// columns substituted in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tafloc/linalg/cg.h"
#include "tafloc/linalg/matrix.h"
#include "tafloc/recon/operators.h"

namespace tafloc {

class MetricRegistry;

/// Solver weights and iteration controls.  Defaults are the values used
/// throughout the evaluation (see DESIGN.md).
struct LoliIrConfig {
  std::size_t rank = 0;      ///< factorization rank; 0 = numeric rank of the init.
  std::size_t max_rank = 12; ///< cap for the automatic rank choice.
  double lambda = 1e-3;             ///< factor ridge (nuclear-norm surrogate).
  double data_weight = 0.5;         ///< w_d (X_I is ambient-approximate, so < mu).
  double lrr_weight = 1.0;          ///< mu.
  double continuity_weight = 0.15;  ///< gamma.
  double similarity_weight = 0.15;  ///< delta.
  double reference_weight = 8.0;    ///< nu.
  std::size_t max_outer_iterations = 40;
  double outer_tolerance = 1e-5;    ///< relative change of X^ between outer iterations.
  CgOptions cg{1e-8, 400};          ///< inner ridge solves.
  /// false (paper's literal formulation): penalize raw differences of
  /// X^ on the distorted support -- a flatness prior.  true: penalize
  /// differences of the correction X^ - X_R Z instead, trusting the
  /// prediction's spatial gradient (useful when the prediction is clean
  /// but incomplete; see the objective-terms ablation bench).
  bool anchor_pairwise_to_prediction = false;
  /// Optional metrics sink (recon.loli_ir.* series: solve/init-SVD
  /// spans, outer/CG iteration counters, per-sweep relative-change
  /// histogram, workspace-allocation counters).  Not owned; nullptr
  /// or a disabled registry means zero instrumentation overhead.
  /// Telemetry only observes -- results are bit-identical either way.
  MetricRegistry* telemetry = nullptr;
};

/// Everything the solver needs about one reconstruction instance.
struct LoliIrProblem {
  Matrix known;             ///< X_I (M x N), meaningful where mask == 1.
  Matrix mask_undistorted;  ///< B (M x N), entries 0/1.
  Matrix prediction;        ///< X_R * Z (M x N).
  Matrix reference_columns; ///< fresh X_R (M x n).
  std::vector<std::size_t> reference_indices;  ///< grid index of each X_R column.
  std::vector<PairwiseTerm> continuity;        ///< pairs along one link (row1 == row2).
  std::vector<PairwiseTerm> similarity;        ///< pairs at one grid (col1 == col2).
  /// Link-fault mask: one 0/1 entry per row (link); empty = all rows
  /// observed.  Rows flagged 0 are treated as *unobserved* -- excluded
  /// from the data term (their `mask_undistorted` row is ignored, and
  /// any NaN parked in `known` there is harmless) and from the
  /// reference anchors, so a dead link's garbage measurements never
  /// anchor the reconstruction.  The LRR prediction term still spans
  /// all rows: patch `prediction`'s dead rows with the best available
  /// prior (e.g. the previous fingerprint rows) so those rows stay
  /// well-posed and finite.  Empty or all-ones is bit-identical to the
  /// maskless solve.
  std::vector<std::uint8_t> row_observed;
};

struct LoliIrResult {
  Matrix x;  ///< reconstructed fingerprint matrix L R^T.
  Matrix l;  ///< M x rank factor.
  Matrix r;  ///< N x rank factor.
  std::size_t rank = 0;
  std::size_t outer_iterations = 0;
  bool converged = false;
  double objective = 0.0;
  std::vector<double> objective_trace;  ///< objective after each outer iteration.
  /// Workspace-arena diagnostics: total buffer allocations over the
  /// whole solve, and the portion after the first outer iteration.
  /// The steady count being 0 is the zero-allocation guarantee of the
  /// iteration loop (every later iteration reuses warm-up buffers).
  std::size_t workspace_allocations = 0;
  std::size_t workspace_allocations_steady = 0;
};

/// Run the solver.  Throws std::invalid_argument on inconsistent shapes
/// or indices; never returns silently-invalid output (non-convergence
/// is reported through `converged` with the best iterate in `x`).
LoliIrResult loli_ir_reconstruct(const LoliIrProblem& problem, const LoliIrConfig& config = {});

/// Evaluate the objective at a given factor pair (exposed for tests:
/// monotone decrease of the alternation is a checked invariant).
double loli_ir_objective(const LoliIrProblem& problem, const LoliIrConfig& config,
                         const Matrix& l, const Matrix& r);

}  // namespace tafloc
