#include "tafloc/linalg/cg.h"

#include <algorithm>
#include <cmath>

#include "tafloc/linalg/vector_ops.h"
#include "tafloc/util/check.h"

namespace tafloc {

CgSummary conjugate_gradient_in_place(const LinearOperatorInto& apply, std::span<const double> b,
                                      std::span<double> x, const CgScratch& scratch,
                                      const CgOptions& options,
                                      const LinearOperatorInto& precondition) {
  TAFLOC_CHECK_ARG(static_cast<bool>(apply), "CG needs a non-empty operator");
  TAFLOC_CHECK_ARG(b.size() == x.size(), "initial guess length mismatch");
  TAFLOC_CHECK_ARG(!b.empty(), "CG system must be non-empty");
  TAFLOC_CHECK_ARG(options.relative_tolerance > 0.0, "CG tolerance must be positive");

  const std::size_t n = b.size();
  const std::size_t max_iter = options.max_iterations == 0 ? n : options.max_iterations;
  const bool preconditioned = static_cast<bool>(precondition);
  TAFLOC_CHECK_ARG(scratch.r.size() >= n && scratch.p.size() >= n && scratch.ap.size() >= n &&
                       (!preconditioned || scratch.z.size() >= n),
                   "CG scratch shorter than the system");

  const std::span<double> r = scratch.r.first(n);
  const std::span<double> p = scratch.p.first(n);
  const std::span<double> ap = scratch.ap.first(n);
  // Preconditioned residual z = M^-1 r; plain CG uses r itself.
  const std::span<double> z = preconditioned ? scratch.z.first(n) : r;

  CgSummary out;

  apply(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  const double b_norm = norm2(b);
  const double threshold = options.relative_tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  double r_dot = dot(r, r);
  out.residual_norm = std::sqrt(r_dot);
  if (out.residual_norm <= threshold) {
    out.converged = true;
    return out;
  }

  double rz = r_dot;
  if (preconditioned) {
    precondition(r, z);
    rz = dot(r, z);
  }
  std::copy(z.begin(), z.end(), p.begin());
  for (std::size_t it = 0; it < max_iter; ++it) {
    apply(p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;  // operator not SPD on this subspace
    const double alpha = rz / p_ap;
    axpy(alpha, p, x);
    axpy(-alpha, ap, r);
    r_dot = dot(r, r);
    ++out.iterations;
    out.residual_norm = std::sqrt(r_dot);
    if (out.residual_norm <= threshold) {
      out.converged = true;
      return out;
    }
    double rz_new = r_dot;
    if (preconditioned) {
      precondition(r, z);
      rz_new = dot(r, z);
    }
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    rz = rz_new;
  }
  return out;
}

CgResult conjugate_gradient(const LinearOperator& apply, std::span<const double> b,
                            std::span<const double> x0, const CgOptions& options) {
  TAFLOC_CHECK_ARG(static_cast<bool>(apply), "CG needs a non-empty operator");
  CgResult out;
  out.x.assign(x0.begin(), x0.end());
  Vector r(b.size()), p(b.size()), ap(b.size());
  const CgScratch scratch{r, p, ap, {}};
  Vector in(b.size());
  const LinearOperatorInto apply_into = [&](std::span<const double> v, std::span<double> y) {
    std::copy(v.begin(), v.end(), in.begin());
    const Vector result = apply(in);
    TAFLOC_CHECK_ARG(result.size() == y.size(), "operator returned a vector of wrong length");
    std::copy(result.begin(), result.end(), y.begin());
  };
  const CgSummary summary = conjugate_gradient_in_place(apply_into, b, out.x, scratch, options);
  out.iterations = summary.iterations;
  out.converged = summary.converged;
  out.residual_norm = summary.residual_norm;
  return out;
}

}  // namespace tafloc