// Conjugate gradient for symmetric positive (semi-)definite operators
// given only as a matvec callback -- the inner solver of each LoLi-IR
// half-step, where forming the full normal-equation matrix over all of
// vec(L) or vec(R) would be wasteful.  The in-place solver optionally
// takes a preconditioner (an apply-callback for M^-1), turning it into
// preconditioned CG; LoLi-IR passes the block-Jacobi inverse of its
// per-link / per-grid r x r blocks.
#pragma once

#include <cstddef>
#include <functional>

#include "tafloc/linalg/matrix.h"

namespace tafloc {

/// Result of a CG run.
struct CgResult {
  Vector x;                  ///< final iterate.
  std::size_t iterations = 0;
  bool converged = false;    ///< residual criterion met within the cap.
  double residual_norm = 0.0;
};

/// Options controlling the iteration.
struct CgOptions {
  double relative_tolerance = 1e-10;  ///< stop when ||r|| <= tol * ||b||.
  std::size_t max_iterations = 0;     ///< 0 means "dimension of the system".
};

/// Apply-callback type: y = A x for the SPD operator A.
using LinearOperator = std::function<Vector(const Vector&)>;

/// Destination-passing apply-callback: write A x into `out`
/// (pre-sized); must not retain either span.
using LinearOperatorInto =
    std::function<void(std::span<const double> x, std::span<double> out)>;

/// Iteration outcome of the in-place solver (the iterate itself lives
/// in the caller's buffer).
struct CgSummary {
  std::size_t iterations = 0;
  bool converged = false;
  double residual_norm = 0.0;
};

/// Caller-owned work vectors for conjugate_gradient_in_place, each
/// holding at least the system's length (the solver uses the leading
/// elements).  `z` is touched only by a preconditioned solve and may be
/// empty otherwise.  Back them with buffers that outlive the solve loop
/// (e.g. Workspace leases) and the solver performs no heap allocation.
struct CgScratch {
  std::span<double> r, p, ap, z;
};

/// Solve A x = b with CG starting from x0 (pass an all-zero vector when
/// no better guess exists).  The operator must be symmetric positive
/// (semi-)definite; a breakdown (p^T A p <= 0) stops the iteration with
/// converged == false.
CgResult conjugate_gradient(const LinearOperator& apply, std::span<const double> b,
                            std::span<const double> x0, const CgOptions& options = {});

/// Allocation-free CG: `x` holds the initial guess on entry and the
/// final iterate on exit; all temporaries come from `scratch`.
/// Identical arithmetic to conjugate_gradient (the value API is a thin
/// wrapper over this one).
///
/// A non-empty `precondition` makes it preconditioned CG: the callback
/// writes z = M^-1 r for a fixed SPD approximation M of A.  The stopping
/// rule still tests the unpreconditioned residual ||b - A x||.  With an
/// empty callback the arithmetic is bit-identical to plain CG.
CgSummary conjugate_gradient_in_place(const LinearOperatorInto& apply, std::span<const double> b,
                                      std::span<double> x, const CgScratch& scratch,
                                      const CgOptions& options = {},
                                      const LinearOperatorInto& precondition = {});

}  // namespace tafloc
