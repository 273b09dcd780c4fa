#include <gtest/gtest.h>

#include <cmath>

#include "tafloc/linalg/cg.h"
#include "tafloc/linalg/cholesky.h"
#include "tafloc/linalg/lsq.h"
#include "tafloc/linalg/ops.h"
#include "tafloc/linalg/vector_ops.h"
#include "tafloc/util/rng.h"

namespace tafloc {
namespace {

// ---------------- least squares ----------------

TEST(LeastSquares, ExactSystemRecovered) {
  const Matrix a = Matrix::from_rows({{1.0, 0.0}, {0.0, 2.0}, {1.0, 1.0}});
  const std::vector<double> x_true{2.0, 3.0};
  const Vector b = multiply(a, x_true);
  const Vector x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(LeastSquares, MinimizesResidualForInconsistentSystem) {
  // Fit y = c to points {1, 2, 3}: optimum is the mean, c = 2.
  const Matrix a = Matrix::from_rows({{1.0}, {1.0}, {1.0}});
  const std::vector<double> b{1.0, 2.0, 3.0};
  const Vector x = solve_least_squares(a, b);
  EXPECT_NEAR(x[0], 2.0, 1e-10);
}

TEST(LeastSquares, ResidualOrthogonalToColumnSpace) {
  Rng rng(1);
  const Matrix a = random_gaussian(10, 4, rng);
  Vector b(10);
  for (double& v : b) v = rng.normal();
  const Vector x = solve_least_squares(a, b);
  const Vector ax = multiply(a, x);
  Vector r = subtract(b, ax);
  const Vector atr = multiply_transposed(a, r);
  EXPECT_LT(norm_inf(atr), 1e-9);
}

TEST(LeastSquares, RejectsWideMatrix) {
  const Matrix a(2, 3);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(solve_least_squares(a, b), std::invalid_argument);
}

TEST(LeastSquares, RejectsLengthMismatch) {
  const Matrix a(3, 2, 1.0);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(solve_least_squares(a, b), std::invalid_argument);
}

// ---------------- ridge ----------------

TEST(Ridge, ZeroLambdaMatchesLeastSquares) {
  Rng rng(2);
  const Matrix a = random_gaussian(8, 3, rng);
  Vector b(8);
  for (double& v : b) v = rng.normal();
  const Vector x1 = solve_least_squares(a, b);
  const Vector x2 = solve_ridge(a, b, 0.0);
  EXPECT_LT(distance2(x1, x2), 1e-7);
}

TEST(Ridge, ShrinksSolutionNorm) {
  Rng rng(3);
  const Matrix a = random_gaussian(10, 4, rng);
  Vector b(10);
  for (double& v : b) v = rng.normal();
  const Vector x_small = solve_ridge(a, b, 0.01);
  const Vector x_large = solve_ridge(a, b, 100.0);
  EXPECT_LT(norm2(x_large), norm2(x_small));
}

TEST(Ridge, WorksForWideMatrices) {
  Rng rng(4);
  const Matrix a = random_gaussian(3, 8, rng);
  Vector b(3);
  for (double& v : b) v = rng.normal();
  const Vector x = solve_ridge(a, b, 1e-6);
  // Must reproduce b nearly exactly (underdetermined, tiny ridge).
  EXPECT_LT(residual_norm(a, x, b), 1e-3);
}

TEST(Ridge, SatisfiesNormalEquations) {
  Rng rng(5);
  const Matrix a = random_gaussian(9, 4, rng);
  Vector b(9);
  for (double& v : b) v = rng.normal();
  const double lambda = 0.7;
  const Vector x = solve_ridge(a, b, lambda);
  // (A^T A + lambda I) x == A^T b.
  const Vector ax = multiply(a, x);
  Vector lhs = multiply_transposed(a, ax);
  axpy(lambda, x, lhs);
  const Vector rhs = multiply_transposed(a, b);
  EXPECT_LT(distance2(lhs, rhs), 1e-8);
}

TEST(Ridge, RejectsNegativeLambda) {
  const Matrix a(2, 2, 1.0);
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(solve_ridge(a, b, -1.0), std::invalid_argument);
}

TEST(RidgeMatrix, MatchesColumnwiseSolves) {
  Rng rng(6);
  const Matrix a = random_gaussian(7, 3, rng);
  const Matrix b = random_gaussian(7, 4, rng);
  const Matrix x = solve_ridge_matrix(a, b, 0.5);
  for (std::size_t c = 0; c < 4; ++c) {
    const Vector xc = solve_ridge(a, b.col(c), 0.5);
    const Vector got = x.col(c);
    EXPECT_LT(distance2(xc, got), 1e-9);
  }
}

TEST(ResidualNorm, KnownValue) {
  const Matrix a = Matrix::identity(2);
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> b{1.0, 4.0};
  EXPECT_DOUBLE_EQ(residual_norm(a, x, b), 3.0);
}

// ---------------- conjugate gradient ----------------

TEST(Cg, SolvesSpdSystem) {
  Rng rng(7);
  const Matrix g = random_gaussian(10, 6, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 0.5;
  Vector x_true(6);
  for (double& v : x_true) v = rng.normal();
  const Vector b = multiply(a, x_true);
  const Vector x0(6, 0.0);
  const CgResult res =
      conjugate_gradient([&](const Vector& v) { return multiply(a, v); }, b, x0);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(distance2(res.x, x_true), 1e-6);
}

TEST(Cg, ConvergesInAtMostNIterationsForExactArithmetic) {
  Rng rng(8);
  const Matrix g = random_gaussian(8, 5, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) += 1.0;
  Vector b(5);
  for (double& v : b) v = rng.normal();
  const Vector x0(5, 0.0);
  const CgResult res =
      conjugate_gradient([&](const Vector& v) { return multiply(a, v); }, b, x0);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 5u + 2u);
}

TEST(Cg, IdentityOperatorConvergesImmediately) {
  const std::vector<double> b{1.0, 2.0, 3.0};
  const std::vector<double> x0{0.0, 0.0, 0.0};
  const CgResult res = conjugate_gradient([](const Vector& v) { return v; }, b, x0);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 1u);
  EXPECT_LT(distance2(res.x, b), 1e-10);
}

TEST(Cg, WarmStartAtSolutionTakesZeroIterations) {
  const std::vector<double> b{2.0, 4.0};
  const CgResult res =
      conjugate_gradient([](const Vector& v) { return v; }, b, b, CgOptions{});
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0u);
}

TEST(Cg, DiagonalSystem) {
  const std::vector<double> diag{1.0, 10.0, 100.0};
  const Matrix a = Matrix::diagonal(diag);
  const std::vector<double> b{1.0, 10.0, 100.0};
  const std::vector<double> x0{0.0, 0.0, 0.0};
  const CgResult res =
      conjugate_gradient([&](const Vector& v) { return multiply(a, v); }, b, x0);
  EXPECT_TRUE(res.converged);
  for (double v : res.x) EXPECT_NEAR(v, 1.0, 1e-7);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const std::vector<double> b{0.0, 0.0};
  const std::vector<double> x0{0.0, 0.0};
  const CgResult res = conjugate_gradient([](const Vector& v) { return v; }, b, x0);
  EXPECT_TRUE(res.converged);
  EXPECT_DOUBLE_EQ(norm2(res.x), 0.0);
}

TEST(Cg, IterationCapReported) {
  Rng rng(9);
  const Matrix g = random_gaussian(30, 20, rng);
  Matrix a = gram_product(g, g);
  for (std::size_t i = 0; i < 20; ++i) a(i, i) += 1e-4;
  Vector b(20);
  for (double& v : b) v = rng.normal();
  const Vector x0(20, 0.0);
  CgOptions opts;
  opts.max_iterations = 2;  // deliberately too few
  opts.relative_tolerance = 1e-14;
  const CgResult res =
      conjugate_gradient([&](const Vector& v) { return multiply(a, v); }, b, x0, opts);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 2u);
}

TEST(Cg, RejectsBadArguments) {
  const std::vector<double> b{1.0};
  const std::vector<double> x0_bad{1.0, 2.0};
  EXPECT_THROW(conjugate_gradient([](const Vector& v) { return v; }, b, x0_bad),
               std::invalid_argument);
  const std::vector<double> empty;
  EXPECT_THROW(conjugate_gradient([](const Vector& v) { return v; }, empty, empty),
               std::invalid_argument);
}

// ---------------- preconditioned conjugate gradient ----------------

/// Textbook unpreconditioned CG, written out independently of the
/// library: the reference the null-preconditioner path must reproduce
/// bit for bit.
CgSummary reference_cg(const Matrix& a, std::span<const double> b, Vector& x,
                       const CgOptions& opt) {
  const std::size_t n = b.size();
  const Vector ax = multiply(a, x);
  Vector r(n), p(n);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
  const double b_norm = norm2(b);
  const double threshold = opt.relative_tolerance * (b_norm > 0.0 ? b_norm : 1.0);
  CgSummary out;
  double r_dot = dot(r, r);
  out.residual_norm = std::sqrt(r_dot);
  if (out.residual_norm <= threshold) {
    out.converged = true;
    return out;
  }
  p = r;
  const std::size_t cap = opt.max_iterations == 0 ? n : opt.max_iterations;
  for (std::size_t it = 0; it < cap; ++it) {
    const Vector ap = multiply(a, p);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;
    const double alpha = r_dot / p_ap;
    for (std::size_t i = 0; i < n; ++i) x[i] += alpha * p[i];
    for (std::size_t i = 0; i < n; ++i) r[i] += -alpha * ap[i];
    const double r_dot_new = dot(r, r);
    ++out.iterations;
    out.residual_norm = std::sqrt(r_dot_new);
    if (out.residual_norm <= threshold) {
      out.converged = true;
      return out;
    }
    const double beta = r_dot_new / r_dot;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    r_dot = r_dot_new;
  }
  return out;
}

/// SPD test system: `blocks` diagonal blocks of size `bs`, block k
/// scaled by scale^k, plus Laplacian-style couplings (PSD, so the sum
/// stays SPD) between matching entries of neighbouring blocks.
Matrix block_spd(std::size_t blocks, std::size_t bs, double scale, double coupling,
                 std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t n = blocks * bs;
  Matrix a(n, n);
  double s = 1.0;
  for (std::size_t k = 0; k < blocks; ++k, s *= scale) {
    const Matrix g = random_gaussian(bs + 2, bs, rng);
    const Matrix d = gram_product(g, g);
    for (std::size_t i = 0; i < bs; ++i)
      for (std::size_t j = 0; j < bs; ++j)
        a(k * bs + i, k * bs + j) = s * (d(i, j) + (i == j ? 0.1 : 0.0));
  }
  for (std::size_t k = 0; k + 1 < blocks; ++k)
    for (std::size_t i = 0; i < bs; ++i) {
      const std::size_t u = k * bs + i, v = (k + 1) * bs + i;
      const double w = coupling * std::min(a(u, u), a(v, v));
      a(u, u) += w;
      a(v, v) += w;
      a(u, v) -= w;
      a(v, u) -= w;
    }
  return a;
}

/// z = D^-1 r with D the block diagonal of `a`, from Cholesky factors.
LinearOperatorInto block_jacobi(const Matrix& a, std::size_t bs) {
  std::vector<Matrix> factors;
  for (std::size_t k = 0; k * bs < a.rows(); ++k) {
    Matrix d(bs, bs);
    for (std::size_t i = 0; i < bs; ++i)
      for (std::size_t j = 0; j < bs; ++j) d(i, j) = a(k * bs + i, k * bs + j);
    factors.push_back(cholesky_factor(d));
  }
  return [factors, bs](std::span<const double> r, std::span<double> z) {
    for (std::size_t k = 0; k < factors.size(); ++k) {
      const Vector zk = cholesky_solve(factors[k], r.subspan(k * bs, bs));
      std::copy(zk.begin(), zk.end(), z.begin() + static_cast<std::ptrdiff_t>(k * bs));
    }
  };
}

struct CgBuffers {
  explicit CgBuffers(std::size_t n) : r(n), p(n), ap(n), z(n) {}
  CgScratch scratch() { return {r, p, ap, z}; }
  Vector r, p, ap, z;
};

TEST(Pcg, NullPreconditionerIsBitIdenticalToPlainCg) {
  const Matrix a = block_spd(6, 4, 3.0, 0.3, 21);
  Rng rng(22);
  Vector b(a.rows());
  for (double& v : b) v = rng.normal();
  const CgOptions opt{1e-12, 0};

  Vector x_ref(a.rows(), 0.0);
  const CgSummary ref = reference_cg(a, b, x_ref, opt);

  Vector x(a.rows(), 0.0);
  CgBuffers buf(a.rows());
  const LinearOperatorInto apply = [&](std::span<const double> v, std::span<double> y) {
    const Vector av = multiply(a, v);
    std::copy(av.begin(), av.end(), y.begin());
  };
  const CgSummary got = conjugate_gradient_in_place(apply, b, x, buf.scratch(), opt);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_EQ(got.residual_norm, ref.residual_norm);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], x_ref[i]) << "entry " << i;

  // The value API is the same solver.
  const CgResult value =
      conjugate_gradient([&](const Vector& v) { return multiply(a, v); }, b,
                         Vector(a.rows(), 0.0), opt);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(value.x[i], x_ref[i]) << "entry " << i;
}

TEST(Pcg, BlockJacobiSolveMatchesDenseCholesky) {
  const Matrix a = block_spd(8, 3, 2.0, 0.4, 31);
  Rng rng(32);
  Vector b(a.rows());
  for (double& v : b) v = rng.normal();
  const Vector expected = solve_spd(a, b);

  Vector x(a.rows(), 0.0);
  CgBuffers buf(a.rows());
  const LinearOperatorInto apply = [&](std::span<const double> v, std::span<double> y) {
    const Vector av = multiply(a, v);
    std::copy(av.begin(), av.end(), y.begin());
  };
  const CgSummary res = conjugate_gradient_in_place(apply, b, x, buf.scratch(),
                                                    CgOptions{1e-13, 200}, block_jacobi(a, 3));
  EXPECT_TRUE(res.converged);
  EXPECT_LT(distance2(x, expected), 1e-9 * (1.0 + norm2(expected)));
}

TEST(Pcg, BlockJacobiCutsIterationsOnIllConditionedBlockDiagonal) {
  // Blocks spanning ten decades: plain CG crawls, while block-Jacobi is
  // the exact inverse of a block-diagonal operator.
  const Matrix a = block_spd(10, 4, 10.0, 0.0, 41);
  Rng rng(42);
  Vector b(a.rows());
  for (double& v : b) v = rng.normal();
  const LinearOperatorInto apply = [&](std::span<const double> v, std::span<double> y) {
    const Vector av = multiply(a, v);
    std::copy(av.begin(), av.end(), y.begin());
  };
  const CgOptions opt{1e-10, 1000};

  Vector x_plain(a.rows(), 0.0);
  CgBuffers buf(a.rows());
  const CgSummary plain = conjugate_gradient_in_place(apply, b, x_plain, buf.scratch(), opt);
  Vector x_pcg(a.rows(), 0.0);
  const CgSummary pcg =
      conjugate_gradient_in_place(apply, b, x_pcg, buf.scratch(), opt, block_jacobi(a, 4));
  EXPECT_TRUE(pcg.converged);
  EXPECT_LE(pcg.iterations, 2u);
  EXPECT_LT(pcg.iterations, plain.iterations);
  EXPECT_GT(plain.iterations, 20u);
}

TEST(Pcg, RejectsShortScratch) {
  const std::vector<double> b{1.0, 2.0};
  Vector x(2, 0.0), shortv(1), ok(2);
  const LinearOperatorInto id = [](std::span<const double> v, std::span<double> y) {
    std::copy(v.begin(), v.end(), y.begin());
  };
  EXPECT_THROW(conjugate_gradient_in_place(id, b, x, CgScratch{shortv, ok, ok, {}}),
               std::invalid_argument);
  EXPECT_THROW(conjugate_gradient_in_place(id, b, x, CgScratch{ok, ok, ok, {}}, CgOptions{}, id),
               std::invalid_argument);
}

}  // namespace
}  // namespace tafloc
