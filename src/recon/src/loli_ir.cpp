#include "tafloc/recon/loli_ir.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "tafloc/exec/thread_pool.h"
#include "tafloc/exec/workspace.h"
#include "tafloc/linalg/svd.h"
#include "tafloc/telemetry/metrics.h"
#include "tafloc/telemetry/span.h"
#include "tafloc/telemetry/trace.h"
#include "tafloc/util/check.h"

namespace tafloc {

namespace {

/// Shape/contents validation of a problem instance.
void validate(const LoliIrProblem& p) {
  TAFLOC_CHECK_ARG(!p.known.empty(), "X_I must be non-empty");
  TAFLOC_CHECK_ARG(p.mask_undistorted.same_shape(p.known), "mask shape must match X_I");
  TAFLOC_CHECK_ARG(p.prediction.same_shape(p.known), "prediction shape must match X_I");
  for (double v : p.mask_undistorted.data())
    TAFLOC_CHECK_ARG(v == 0.0 || v == 1.0, "mask entries must be 0 or 1");
  TAFLOC_CHECK_ARG(p.reference_columns.rows() == p.known.rows(),
                   "reference columns must have one row per link");
  for (std::size_t idx : p.reference_indices)
    TAFLOC_CHECK_BOUNDS(idx, p.known.cols(), "reference grid index");
  TAFLOC_CHECK_ARG(p.reference_columns.cols() == p.reference_indices.size(),
                   "reference column count must match index count");
  auto check_pairs = [&](const std::vector<PairwiseTerm>& pairs) {
    for (const PairwiseTerm& t : pairs) {
      TAFLOC_CHECK_BOUNDS(t.row1, p.known.rows(), "pair row");
      TAFLOC_CHECK_BOUNDS(t.row2, p.known.rows(), "pair row");
      TAFLOC_CHECK_BOUNDS(t.col1, p.known.cols(), "pair col");
      TAFLOC_CHECK_BOUNDS(t.col2, p.known.cols(), "pair col");
    }
  };
  check_pairs(p.continuity);
  check_pairs(p.similarity);
  for (const PairwiseTerm& t : p.continuity)
    TAFLOC_CHECK_ARG(t.row1 == t.row2, "continuity pairs must lie along one link");
  for (const PairwiseTerm& t : p.similarity)
    TAFLOC_CHECK_ARG(t.col1 == t.col2, "similarity pairs must lie at one grid");
  TAFLOC_CHECK_ARG(std::max(p.continuity.size(), p.similarity.size()) <= UINT32_MAX,
                   "too many pair terms");
  if (!p.row_observed.empty()) {
    TAFLOC_CHECK_ARG(p.row_observed.size() == p.known.rows(),
                     "row_observed must have one entry per link");
    bool any = false;
    for (std::uint8_t v : p.row_observed) {
      TAFLOC_CHECK_ARG(v == 0 || v == 1, "row_observed entries must be 0 or 1");
      any = any || v == 1;
    }
    TAFLOC_CHECK_ARG(any, "row_observed must keep at least one link observed");
  }
}

/// nullptr when every row is observed (the bit-identical fast path),
/// else the per-row 0/1 flags.
const std::uint8_t* observed_rows(const LoliIrProblem& p) {
  if (p.row_observed.empty()) return nullptr;
  for (std::uint8_t v : p.row_observed)
    if (v == 0) return p.row_observed.data();
  return nullptr;
}

void validate(const LoliIrConfig& c) {
  TAFLOC_CHECK_ARG(c.lambda > 0.0, "lambda must be positive (it keeps the subproblems SPD)");
  TAFLOC_CHECK_ARG(c.data_weight >= 0.0 && c.lrr_weight >= 0.0 && c.continuity_weight >= 0.0 &&
                       c.similarity_weight >= 0.0 && c.reference_weight >= 0.0,
                   "objective weights must be non-negative");
  TAFLOC_CHECK_ARG(c.max_outer_iterations > 0, "outer iteration cap must be positive");
  TAFLOC_CHECK_ARG(c.outer_tolerance > 0.0, "outer tolerance must be positive");
  TAFLOC_CHECK_ARG(c.max_rank > 0, "max rank must be positive");
}

/// The initialization matrix: LRR prediction, overwritten by the known
/// undistorted entries and the freshly measured reference columns --
/// except on unobserved (dead-link) rows, which keep the prediction:
/// their measurements are by definition garbage.
Matrix initial_estimate(const LoliIrProblem& p, const std::uint8_t* obs) {
  Matrix x0 = p.prediction;
  for (std::size_t i = 0; i < x0.rows(); ++i) {
    if (obs != nullptr && obs[i] == 0) continue;
    for (std::size_t j = 0; j < x0.cols(); ++j)
      if (p.mask_undistorted(i, j) == 1.0) x0(i, j) = p.known(i, j);
  }
  for (std::size_t k = 0; k < p.reference_indices.size(); ++k) {
    const std::size_t g = p.reference_indices[k];
    if (obs == nullptr) {
      x0.set_col(g, p.reference_columns.col_view(k));
    } else {
      for (std::size_t i = 0; i < x0.rows(); ++i)
        if (obs[i] != 0) x0(i, g) = p.reference_columns(i, k);
    }
  }
  return x0;
}

/// Grain of a loop over `rows` independent block rows: one chunk per
/// pool lane once the work is big enough to beat fork-join overhead;
/// otherwise one chunk (inline).  Every block row is computed by the
/// same instruction sequence whichever lane owns it, so the split never
/// changes a result bit.
std::size_t block_grain(std::size_t rows, std::size_t work_per_row) {
  const std::size_t lanes = ThreadPool::global().size();
  if (lanes <= 1 || rows * work_per_row < (std::size_t{1} << 14))
    return std::max<std::size_t>(rows, 1);
  return std::max<std::size_t>(1, (rows + lanes - 1) / lanes);
}

// ---- packed r x r blocks --------------------------------------------
// A symmetric block is stored as its lower triangle, row-packed: row a
// holds entries (a, 0..a) at offset a (a + 1) / 2.  After factor_packed
// the same storage holds the lower Cholesky factor F (block = F F^T).

std::size_t packed_size(std::size_t r) { return r * (r + 1) / 2; }

/// blk += w u u^T.
void add_outer_packed(double* blk, const double* u, double w, std::size_t r) {
  for (std::size_t a = 0; a < r; ++a) {
    double* row = blk + a * (a + 1) / 2;
    const double wa = w * u[a];
    for (std::size_t b = 0; b <= a; ++b) row[b] += wa * u[b];
  }
}

/// blk += w (u - v)(u - v)^T.
void add_outer_diff_packed(double* blk, const double* u, const double* v, double w,
                           std::size_t r) {
  for (std::size_t a = 0; a < r; ++a) {
    double* row = blk + a * (a + 1) / 2;
    const double wa = w * (u[a] - v[a]);
    for (std::size_t b = 0; b <= a; ++b) row[b] += wa * (u[b] - v[b]);
  }
}

/// blk += w g (both packed).
void add_packed(double* blk, const double* g, double w, std::size_t r) {
  const std::size_t t = packed_size(r);
  for (std::size_t e = 0; e < t; ++e) blk[e] += w * g[e];
}

/// out = sum of f_u f_u^T over the rows u of `f` (all of them when
/// `keep` is null, else those with keep[u] != 0), packed.
void packed_gram(const Matrix& f, const std::uint8_t* keep, double* out) {
  std::fill(out, out + packed_size(f.cols()), 0.0);
  for (std::size_t u = 0; u < f.rows(); ++u)
    if (keep == nullptr || keep[u] != 0) add_outer_packed(out, f.row_span(u).data(), 1.0, f.cols());
}

/// Row u of `out` = packed f_u f_u^T for each row f_u of `f`, so that
/// the data-term blocks sum_j B_uj f_j f_j^T for all u come out of one
/// (zero-skipping) matrix product with the mask.
void pack_outer_rows(const Matrix& f, MatrixView out) {
  for (std::size_t u = 0; u < f.rows(); ++u) {
    double* row = out.row_ptr(u);
    std::fill(row, row + out.cols(), 0.0);
    add_outer_packed(row, f.row_span(u).data(), 1.0, f.cols());
  }
}

/// In-place Cholesky: packed SPD block -> packed lower factor F.  Every
/// block carries lambda I with lambda > 0, so pivots stay positive.
void factor_packed(double* blk, std::size_t r) {
  for (std::size_t i = 0; i < r; ++i) {
    double* fi = blk + i * (i + 1) / 2;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* fj = blk + j * (j + 1) / 2;
      double s = fi[j];
      for (std::size_t k = 0; k < j; ++k) s -= fi[k] * fj[k];
      fi[j] = i == j ? std::sqrt(s) : s / fj[j];
    }
  }
}

/// y = F F^T v for a packed factor F.
void apply_factored(const double* f, const double* v, double* y, std::size_t r) {
  std::fill(y, y + r, 0.0);
  for (std::size_t i = 0; i < r; ++i) {  // y = F^T v, by rows of F
    const double* fi = f + i * (i + 1) / 2;
    for (std::size_t k = 0; k <= i; ++k) y[k] += fi[k] * v[i];
  }
  for (std::size_t ii = r; ii > 0; --ii) {  // y = F y, bottom-up in place
    const std::size_t i = ii - 1;
    const double* fi = f + i * (i + 1) / 2;
    double s = 0.0;
    for (std::size_t k = 0; k <= i; ++k) s += fi[k] * y[k];
    y[i] = s;
  }
}

/// z <- (F F^T)^-1 z for a packed factor F.
void solve_factored(const double* f, double* z, std::size_t r) {
  for (std::size_t i = 0; i < r; ++i) {  // F y = z
    const double* fi = f + i * (i + 1) / 2;
    double s = z[i];
    for (std::size_t k = 0; k < i; ++k) s -= fi[k] * z[k];
    z[i] = s / fi[i];
  }
  for (std::size_t ii = r; ii > 0; --ii) {  // F^T x = y
    const std::size_t i = ii - 1;
    const double* fi = f + i * (i + 1) / 2;
    z[i] /= fi[i];
    for (std::size_t k = 0; k < i; ++k) z[k] -= fi[k] * z[i];
  }
}

/// y -= S v for a packed symmetric S.
void subtract_sym_packed(const double* s, const double* v, double* y, std::size_t r) {
  for (std::size_t a = 0; a < r; ++a) {
    const double* row = s + a * (a + 1) / 2;
    for (std::size_t b = 0; b < a; ++b) {
      y[a] -= row[b] * v[b];
      y[b] -= row[b] * v[a];
    }
    y[a] -= row[a] * v[a];
  }
}

/// Pair-term incidence grouped by the block row each entry lands in: a
/// CSR layout (row u owns items[start[u] .. start[u+1]-1], each a term
/// or link-pair index), filled in term order so every block sums its
/// contributions in one fixed order.  Built once per solve.
struct Incidence {
  std::vector<std::size_t> start;
  std::vector<std::uint32_t> items;
};

/// `each(emit)` must call emit(row, item) for every entry, identically
/// on both passes.
template <class Each>
Incidence build_incidence(std::size_t rows, const Each& each) {
  Incidence inc;
  inc.start.assign(rows + 1, 0);
  each([&](std::size_t row, std::size_t) { ++inc.start[row + 1]; });
  for (std::size_t u = 0; u < rows; ++u) inc.start[u + 1] += inc.start[u];
  inc.items.resize(inc.start[rows]);
  std::vector<std::size_t> next(inc.start.begin(), inc.start.end() - 1);
  each([&](std::size_t row, std::size_t item) {
    inc.items[next[row]++] = static_cast<std::uint32_t>(item);
  });
  return inc;
}

/// The pair terms regrouped for block assembly.  Continuity pairs share
/// a link (row1 == row2); similarity pairs share a grid (col1 == col2).
///  - L-step: a continuity pair is local to its link's block; the
///    similarity pairs of one adjacent link pair sum into one coupling
///    block S_q = delta sum_c r_c r_c^T, which enters both links'
///    diagonal blocks and couples them with -S_q.
///  - R-step: a similarity pair is local to its grid's block; a
///    continuity pair adds gamma l_i l_i^T to both grids' blocks and
///    couples them with -gamma l_i l_i^T, applied pairwise.
struct PairStructure {
  Incidence cont_by_link;  ///< link -> its continuity terms.
  Incidence cont_by_grid;  ///< grid -> continuity terms touching it.
  Incidence sim_by_grid;   ///< grid -> its similarity terms.
  Incidence sim_by_pair;   ///< link pair -> its similarity terms.
  Incidence pairs_by_link; ///< link -> link pairs containing it.
  std::vector<std::pair<std::size_t, std::size_t>> link_pairs;  ///< (lo, hi) links.

  /// The link paired with `link` in link pair q.
  std::size_t partner(std::size_t q, std::size_t link) const {
    return link_pairs[q].first == link ? link_pairs[q].second : link_pairs[q].first;
  }
};

/// The grid paired with `grid` in a continuity term.
std::size_t partner(const PairwiseTerm& t, std::size_t grid) {
  return t.col1 == grid ? t.col2 : t.col1;
}

PairStructure build_pair_structure(const LoliIrProblem& p, bool has_cont, bool has_sim) {
  const std::size_t m = p.known.rows();
  const std::size_t n = p.known.cols();
  PairStructure ps;
  if (has_cont) {
    ps.cont_by_link = build_incidence(m, [&](const auto& emit) {
      for (std::size_t t = 0; t < p.continuity.size(); ++t) emit(p.continuity[t].row1, t);
    });
    ps.cont_by_grid = build_incidence(n, [&](const auto& emit) {
      for (std::size_t t = 0; t < p.continuity.size(); ++t) {
        emit(p.continuity[t].col1, t);
        emit(p.continuity[t].col2, t);
      }
    });
  }
  if (has_sim) {
    // Link pairs numbered in order of first appearance.
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> index;
    std::vector<std::uint32_t> pair_of(p.similarity.size());
    for (std::size_t t = 0; t < p.similarity.size(); ++t) {
      const auto key = std::minmax(p.similarity[t].row1, p.similarity[t].row2);
      const auto [it, fresh] = index.emplace(key, ps.link_pairs.size());
      if (fresh) ps.link_pairs.push_back(key);
      pair_of[t] = static_cast<std::uint32_t>(it->second);
    }
    ps.sim_by_pair = build_incidence(ps.link_pairs.size(), [&](const auto& emit) {
      for (std::size_t t = 0; t < p.similarity.size(); ++t) emit(pair_of[t], t);
    });
    ps.pairs_by_link = build_incidence(m, [&](const auto& emit) {
      for (std::size_t q = 0; q < ps.link_pairs.size(); ++q) {
        emit(ps.link_pairs[q].first, q);
        emit(ps.link_pairs[q].second, q);
      }
    });
    ps.sim_by_grid = build_incidence(n, [&](const auto& emit) {
      for (std::size_t t = 0; t < p.similarity.size(); ++t) emit(p.similarity[t].col1, t);
    });
  }
  return ps;
}

/// Objective evaluated against a precomputed X = L R^T (so the solver's
/// bookkeeping step reuses its workspace copy instead of re-forming it).
/// `obs` == nullptr means every row observed; unobserved rows are
/// excluded from the data and reference terms (see row_observed).
double objective_given_x(const LoliIrProblem& p, const LoliIrConfig& c, const Matrix& l,
                         const Matrix& r, const Matrix& x, const std::uint8_t* obs) {
  double f = c.lambda * (l.frobenius_norm() * l.frobenius_norm() +
                         r.frobenius_norm() * r.frobenius_norm());
  if (c.data_weight > 0.0) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.rows(); ++i) {
      if (obs != nullptr && obs[i] == 0) continue;
      for (std::size_t j = 0; j < x.cols(); ++j)
        if (p.mask_undistorted(i, j) == 1.0) {
          const double d = x(i, j) - p.known(i, j);
          s += d * d;
        }
    }
    f += c.data_weight * s;
  }
  if (c.lrr_weight > 0.0) {
    const double nrm = frobenius_diff_norm(x, p.prediction);
    f += c.lrr_weight * nrm * nrm;
  }
  if (c.reference_weight > 0.0) {
    double s = 0.0;
    for (std::size_t k = 0; k < p.reference_indices.size(); ++k) {
      const std::size_t j = p.reference_indices[k];
      for (std::size_t i = 0; i < x.rows(); ++i) {
        if (obs != nullptr && obs[i] == 0) continue;
        const double d = x(i, j) - p.reference_columns(i, k);
        s += d * d;
      }
    }
    f += c.reference_weight * s;
  }
  const auto pair_term = [&](const std::vector<PairwiseTerm>& pairs) {
    return c.anchor_pairwise_to_prediction ? pairwise_energy_relative(x, p.prediction, pairs)
                                           : pairwise_energy(x, pairs);
  };
  if (c.continuity_weight > 0.0) f += c.continuity_weight * pair_term(p.continuity);
  if (c.similarity_weight > 0.0) f += c.similarity_weight * pair_term(p.similarity);
  return f;
}

}  // namespace

double loli_ir_objective(const LoliIrProblem& p, const LoliIrConfig& c, const Matrix& l,
                         const Matrix& r) {
  const Matrix x = outer_product(l, r);  // L R^T
  return objective_given_x(p, c, l, r, x, observed_rows(p));
}

LoliIrResult loli_ir_reconstruct(const LoliIrProblem& p, const LoliIrConfig& c) {
  validate(p);
  validate(c);
  ScopedSpan solve_span(c.telemetry, "recon.loli_ir.solve_seconds");
  // Request-scoped twin of the ambient span: when a trace is live on
  // this thread (a traced request triggered a synchronous reconstruct),
  // the solve lands in that request's stage list too.
  TraceStage solve_stage("recon.loli_ir.solve");
  Counter* tel_cg_iters = registry_counter(c.telemetry, "recon.loli_ir.cg_iterations");
  Histogram* tel_sweep = registry_histogram(c.telemetry, "recon.loli_ir.sweep_rel_change");

  const std::size_t m = p.known.rows();
  const std::size_t n = p.known.cols();
  const std::size_t nref = p.reference_indices.size();
  // Non-null only when some link row is genuinely unobserved; every
  // masked branch below keys off this, so the all-observed solve runs
  // the exact pre-mask instruction sequence (bit-identity).
  const std::uint8_t* obs = observed_rows(p);

  // ---- initialization: truncated SVD of the patched prediction ----
  // (scoped: the SVD and its input are released before the solve's
  // buffers are leased)
  std::size_t rank = c.rank;
  Matrix l;
  Matrix r;
  {
    const Matrix x0 = initial_estimate(p, obs);
    SvdResult svd;
    {
      ScopedSpan svd_span(c.telemetry, "recon.loli_ir.init_svd_seconds");
      svd = svd_decompose(x0);
    }
    if (rank == 0) rank = std::max<std::size_t>(svd.numeric_rank(1e-3), 1);
    rank = std::min({rank, c.max_rank, m, n});

    l = Matrix(m, rank);
    r = Matrix(n, rank);
    for (std::size_t t = 0; t < rank; ++t) {
      const double root = std::sqrt(std::max(svd.sigma[t], 1e-12));
      for (std::size_t i = 0; i < m; ++i) l(i, t) = svd.u(i, t) * root;
      for (std::size_t j = 0; j < n; ++j) r(j, t) = svd.v(j, t) * root;
    }
  }

  // ---- workspace: every per-iteration temporary is leased once here
  // and reused across all outer iterations and CG matvecs; the arena
  // counter proves the steady-state loop performs no heap allocation.
  Workspace ws(c.telemetry);
  // The data and LRR terms' joint right-hand-side matrix
  // w_d (B o X_I) + mu X_R Z, fixed for the whole solve.
  auto target_lease = ws.matrix(m, n);
  Matrix& target = *target_lease;
  // Effective data mask and reference anchors: with unobserved rows the
  // solver reads row-zeroed copies, so dead-link measurements drop out
  // of every term below without touching the caller's problem.
  std::optional<Workspace::MatrixLease> bmask_lease;
  std::optional<Workspace::MatrixLease> ref_eff_lease;
  const Matrix* bmask = &p.mask_undistorted;
  const Matrix* ref_cols = &p.reference_columns;
  if (obs == nullptr) {
    hadamard_into(p.mask_undistorted, p.known, target);
  } else {
    bmask_lease.emplace(ws.matrix(m, n));
    Matrix& bm = **bmask_lease;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        bm(i, j) = obs[i] != 0 ? p.mask_undistorted(i, j) : 0.0;
        // Explicit select, not a Hadamard product: `known` may carry
        // NaN on dead rows, and 0 * NaN would poison the RHS.
        target(i, j) = bm(i, j) == 1.0 ? p.known(i, j) : 0.0;
      }
    bmask = &bm;
    if (nref > 0) {
      ref_eff_lease.emplace(ws.matrix(m, nref));
      Matrix& re = **ref_eff_lease;
      for (std::size_t i = 0; i < m; ++i)
        for (std::size_t k = 0; k < nref; ++k)
          re(i, k) = obs[i] != 0 ? p.reference_columns(i, k) : 0.0;
      ref_cols = &re;
    }
  }
  for (std::size_t e = 0; e < target.size(); ++e) {
    const double data = c.data_weight > 0.0 ? c.data_weight * target.data()[e] : 0.0;
    target.data()[e] = data + c.lrr_weight * p.prediction.data()[e];
  }

  auto tmp_l_lease = ws.matrix(m, rank);
  auto rhs_l_lease = ws.matrix(m, rank);
  auto rhs_r_lease = ws.matrix(n, rank);
  auto x_now_lease = ws.matrix(m, n);
  auto x_prev_lease = ws.matrix(m, n);
  std::optional<Workspace::MatrixLease> r_ref_lease;
  if (nref > 0) r_ref_lease.emplace(ws.matrix(nref, rank));
  Matrix& tmp_l = *tmp_l_lease;
  Matrix& rhs_l = *rhs_l_lease;
  Matrix& rhs_r = *rhs_r_lease;
  Matrix& x_now = *x_now_lease;
  Matrix& x_prev = *x_prev_lease;

  // ---- block operators: each half-step's normal operator is one r x r
  // block per unknown row (link in the L-step, grid in the R-step) plus
  // pairwise couplings.  The diagonal blocks are assembled once per
  // half-step and factored in place; the one buffer serves both steps.
  const bool has_data = c.data_weight > 0.0;
  const bool has_lrr = c.lrr_weight > 0.0;
  const bool has_ref = c.reference_weight > 0.0 && nref > 0;
  const bool has_cont = c.continuity_weight > 0.0 && !p.continuity.empty();
  const bool has_sim = c.similarity_weight > 0.0 && !p.similarity.empty();
  const PairStructure ps = build_pair_structure(p, has_cont, has_sim);
  std::vector<std::size_t> ref_count(n, 0);
  for (std::size_t g : p.reference_indices) ++ref_count[g];

  const std::size_t tri = packed_size(rank);
  const std::size_t rows_max = std::max(m, n);
  // Diagonal blocks of the current half-step in the leading rows, the
  // packed factor outer products of the data term after them.
  auto blocks_lease = ws.vector((m + n) * tri);
  auto coupling_lease = ws.vector(std::max<std::size_t>(ps.link_pairs.size(), 1) * tri);
  auto gram_lease = ws.vector(tri);      // packed R^T R or L^T L
  auto ref_gram_lease = ws.vector(tri);  // packed reference-anchor Gram
  double* const blocks = (*blocks_lease).data();
  double* const coupling = (*coupling_lease).data();
  double* const gram = (*gram_lease).data();
  double* const ref_gram = (*ref_gram_lease).data();
  const auto block_rows = [&](std::size_t first, std::size_t count) {
    return MatrixView(blocks + first * tri, count, tri, tri);
  };
  auto cg_r_lease = ws.vector(rows_max * rank);
  auto cg_p_lease = ws.vector(rows_max * rank);
  auto cg_ap_lease = ws.vector(rows_max * rank);
  auto cg_z_lease = ws.vector(rows_max * rank);
  const CgScratch cg_scratch{*cg_r_lease, *cg_p_lease, *cg_ap_lease, *cg_z_lease};

  ThreadPool& pool = ThreadPool::global();
  // Per block: scale, add the shared Grams and pair terms, factor.
  const std::size_t link_grain = block_grain(m, tri * (rank + 2));
  const std::size_t grid_grain = block_grain(n, tri * (rank + 2));
  const std::size_t pair_grain = block_grain(
      ps.link_pairs.size(),
      tri * (p.similarity.size() / std::max<std::size_t>(ps.link_pairs.size(), 1) + 1));
  const std::size_t link_apply_grain = block_grain(m, tri * 2);
  const std::size_t grid_apply_grain = block_grain(n, tri * 2);

  // L-step blocks: D_i = lambda I + w_d sum_j B_ij r_j r_j^T + mu R^T R
  //   + nu [i observed] sum_k r_ref_k r_ref_k^T + gamma sum d d^T (its
  //   continuity pairs, d = r_col1 - r_col2) + the S_q of its link pairs.
  const auto assemble_l = [&] {
    packed_gram(r, nullptr, gram);
    if (has_ref) {
      std::fill(ref_gram, ref_gram + tri, 0.0);
      for (std::size_t g : p.reference_indices)
        add_outer_packed(ref_gram, r.row_span(g).data(), 1.0, rank);
    }
    pool.parallel_for(0, ps.link_pairs.size(), pair_grain, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        double* s_q = coupling + q * tri;
        std::fill(s_q, s_q + tri, 0.0);
        for (std::size_t e = ps.sim_by_pair.start[q]; e < ps.sim_by_pair.start[q + 1]; ++e)
          add_outer_packed(s_q, r.row_span(p.similarity[ps.sim_by_pair.items[e]].col1).data(),
                           c.similarity_weight, rank);
      }
    });
    if (has_data) {
      pack_outer_rows(r, block_rows(m, n));
      multiply_into(*bmask, block_rows(m, n), block_rows(0, m));
    }
    pool.parallel_for(0, m, link_grain, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        double* d = blocks + i * tri;
        if (has_data) {
          for (std::size_t e = 0; e < tri; ++e) d[e] *= c.data_weight;
        } else {
          std::fill(d, d + tri, 0.0);
        }
        if (has_lrr) add_packed(d, gram, c.lrr_weight, rank);
        if (has_ref && (obs == nullptr || obs[i] != 0))
          add_packed(d, ref_gram, c.reference_weight, rank);
        if (has_cont)
          for (std::size_t e = ps.cont_by_link.start[i]; e < ps.cont_by_link.start[i + 1]; ++e) {
            const PairwiseTerm& t = p.continuity[ps.cont_by_link.items[e]];
            add_outer_diff_packed(d, r.row_span(t.col1).data(), r.row_span(t.col2).data(),
                                  c.continuity_weight, rank);
          }
        if (has_sim)
          for (std::size_t e = ps.pairs_by_link.start[i]; e < ps.pairs_by_link.start[i + 1]; ++e)
            add_packed(d, coupling + ps.pairs_by_link.items[e] * tri, 1.0, rank);
        for (std::size_t a = 0; a < rank; ++a) d[a * (a + 3) / 2] += c.lambda;
        factor_packed(d, rank);
      }
    });
  };

  // R-step blocks: D_j = lambda I + w_d sum_i B_ij l_i l_i^T + mu L^T L
  //   + nu (times grid j is a reference) sum_{i observed} l_i l_i^T
  //   + delta sum (l_row1 - l_row2)(.)^T (its similarity pairs)
  //   + gamma sum l_i l_i^T (each continuity pair touching grid j).
  const auto assemble_r = [&] {
    packed_gram(l, nullptr, gram);
    if (has_ref) packed_gram(l, obs, ref_gram);
    if (has_data) {
      pack_outer_rows(l, block_rows(n, m));
      gram_product_into(*bmask, block_rows(n, m), block_rows(0, n));
    }
    pool.parallel_for(0, n, grid_grain, [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        double* d = blocks + j * tri;
        if (has_data) {
          for (std::size_t e = 0; e < tri; ++e) d[e] *= c.data_weight;
        } else {
          std::fill(d, d + tri, 0.0);
        }
        if (has_lrr) add_packed(d, gram, c.lrr_weight, rank);
        if (has_ref && ref_count[j] > 0)
          add_packed(d, ref_gram, c.reference_weight * static_cast<double>(ref_count[j]), rank);
        if (has_sim)
          for (std::size_t e = ps.sim_by_grid.start[j]; e < ps.sim_by_grid.start[j + 1]; ++e) {
            const PairwiseTerm& t = p.similarity[ps.sim_by_grid.items[e]];
            add_outer_diff_packed(d, l.row_span(t.row1).data(), l.row_span(t.row2).data(),
                                  c.similarity_weight, rank);
          }
        if (has_cont)
          for (std::size_t e = ps.cont_by_grid.start[j]; e < ps.cont_by_grid.start[j + 1]; ++e)
            add_outer_packed(d, l.row_span(p.continuity[ps.cont_by_grid.items[e]].row1).data(),
                             c.continuity_weight, rank);
        for (std::size_t a = 0; a < rank; ++a) d[a * (a + 3) / 2] += c.lambda;
        factor_packed(d, rank);
      }
    });
  };

  // Matvecs: y_u = F_u F_u^T v_u minus the couplings.  L-step: -S_q v_b
  // per adjacent link b.  R-step: -gamma l_i (l_i . v_k) per continuity
  // neighbour grid k along link i.  Both capture only stable references,
  // so one std::function apiece serves every outer iteration.
  const LinearOperatorInto apply_l = [&](std::span<const double> v, std::span<double> y) {
    pool.parallel_for(0, m, link_apply_grain, [&](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) {
        double* yi = y.data() + i * rank;
        apply_factored(blocks + i * tri, v.data() + i * rank, yi, rank);
        if (has_sim)
          for (std::size_t e = ps.pairs_by_link.start[i]; e < ps.pairs_by_link.start[i + 1]; ++e) {
            const std::size_t q = ps.pairs_by_link.items[e];
            subtract_sym_packed(coupling + q * tri, v.data() + ps.partner(q, i) * rank, yi, rank);
          }
      }
    });
  };
  const LinearOperatorInto apply_r = [&](std::span<const double> v, std::span<double> y) {
    pool.parallel_for(0, n, grid_apply_grain, [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        double* yj = y.data() + j * rank;
        apply_factored(blocks + j * tri, v.data() + j * rank, yj, rank);
        if (has_cont)
          for (std::size_t e = ps.cont_by_grid.start[j]; e < ps.cont_by_grid.start[j + 1]; ++e) {
            const PairwiseTerm& t = p.continuity[ps.cont_by_grid.items[e]];
            const double* li = l.row_span(t.row1).data();
            const double* vk = v.data() + partner(t, j) * rank;
            double s = 0.0;
            for (std::size_t k = 0; k < rank; ++k) s += li[k] * vk[k];
            s *= c.continuity_weight;
            for (std::size_t k = 0; k < rank; ++k) yj[k] -= s * li[k];
          }
      }
    });
  };
  // Block-Jacobi preconditioner: z_u = D_u^-1 r_u from the factors.
  const auto block_jacobi = [&](std::size_t rows, std::size_t grain) {
    return LinearOperatorInto([&, rows, grain](std::span<const double> res, std::span<double> z) {
      pool.parallel_for(0, rows, grain, [&](std::size_t u0, std::size_t u1) {
        std::copy(res.begin() + u0 * rank, res.begin() + u1 * rank, z.begin() + u0 * rank);
        for (std::size_t u = u0; u < u1; ++u)
          solve_factored(blocks + u * tri, z.data() + u * rank, rank);
      });
    });
  };
  const LinearOperatorInto precondition_l = block_jacobi(m, link_apply_grain);
  const LinearOperatorInto precondition_r = block_jacobi(n, grid_apply_grain);

  LoliIrResult out;
  outer_product_into(l, r, x_prev);
  std::size_t warmup_allocations = ws.allocations();

  for (std::size_t outer = 0; outer < c.max_outer_iterations; ++outer) {
    // ================= L-step: fix R, solve for L =================
    {
      if (nref > 0) {
        Matrix& r_ref = **r_ref_lease;
        for (std::size_t k = 0; k < nref; ++k)
          r_ref.set_row(k, r.row_span(p.reference_indices[k]));
      }
      assemble_l();

      multiply_into(target, r, rhs_l);
      if (has_ref) {
        multiply_into(*ref_cols, **r_ref_lease, tmp_l);
        add_scaled_into(tmp_l, c.reference_weight, rhs_l);
      }
      // Anchored pairwise terms penalize deviations of X^ differences
      // from the prediction's differences: the anchor contributes to
      // the RHS.  (Unanchored terms have a zero RHS.)
      if (c.anchor_pairwise_to_prediction && c.continuity_weight > 0.0) {
        for (const PairwiseTerm& t : p.continuity) {
          const double coef = c.continuity_weight *
                              (p.prediction(t.row1, t.col1) - p.prediction(t.row2, t.col2));
          if (coef == 0.0) continue;
          for (std::size_t k = 0; k < rank; ++k)
            rhs_l(t.row1, k) += coef * (r(t.col1, k) - r(t.col2, k));
        }
      }
      if (c.anchor_pairwise_to_prediction && c.similarity_weight > 0.0) {
        for (const PairwiseTerm& t : p.similarity) {
          const double coef = c.similarity_weight *
                              (p.prediction(t.row1, t.col1) - p.prediction(t.row2, t.col2));
          if (coef == 0.0) continue;
          for (std::size_t k = 0; k < rank; ++k) {
            rhs_l(t.row1, k) += coef * r(t.col1, k);
            rhs_l(t.row2, k) -= coef * r(t.col1, k);
          }
        }
      }

      const CgSummary cg = conjugate_gradient_in_place(apply_l, rhs_l.data(), l.data(),
                                                       cg_scratch, c.cg, precondition_l);
      if (tel_cg_iters != nullptr) tel_cg_iters->add(cg.iterations);
    }

    // ================= R-step: fix L, solve for R =================
    {
      assemble_r();

      gram_product_into(target, l, rhs_r);
      if (has_ref) {
        for (std::size_t k = 0; k < nref; ++k) {
          const std::size_t g = p.reference_indices[k];
          for (std::size_t t = 0; t < rank; ++t) {
            double acc = 0.0;
            for (std::size_t i = 0; i < m; ++i) acc += l(i, t) * (*ref_cols)(i, k);
            rhs_r(g, t) += c.reference_weight * acc;
          }
        }
      }
      if (c.anchor_pairwise_to_prediction && c.continuity_weight > 0.0) {
        for (const PairwiseTerm& t : p.continuity) {
          const double coef = c.continuity_weight *
                              (p.prediction(t.row1, t.col1) - p.prediction(t.row2, t.col2));
          if (coef == 0.0) continue;
          for (std::size_t k = 0; k < rank; ++k) {
            rhs_r(t.col1, k) += coef * l(t.row1, k);
            rhs_r(t.col2, k) -= coef * l(t.row1, k);
          }
        }
      }
      if (c.anchor_pairwise_to_prediction && c.similarity_weight > 0.0) {
        for (const PairwiseTerm& t : p.similarity) {
          const double coef = c.similarity_weight *
                              (p.prediction(t.row1, t.col1) - p.prediction(t.row2, t.col2));
          if (coef == 0.0) continue;
          for (std::size_t k = 0; k < rank; ++k)
            rhs_r(t.col1, k) += coef * (l(t.row1, k) - l(t.row2, k));
        }
      }

      const CgSummary cg = conjugate_gradient_in_place(apply_r, rhs_r.data(), r.data(),
                                                       cg_scratch, c.cg, precondition_r);
      if (tel_cg_iters != nullptr) tel_cg_iters->add(cg.iterations);
    }

    // ================= convergence bookkeeping =================
    outer_product_into(l, r, x_now);
    out.objective_trace.push_back(objective_given_x(p, c, l, r, x_now, obs));
    out.outer_iterations = outer + 1;
    const double denom = std::max(x_prev.frobenius_norm(), 1e-12);
    const double rel_change = frobenius_diff_norm(x_now, x_prev) / denom;
    if (tel_sweep != nullptr) tel_sweep->observe(rel_change);
    x_prev = x_now;
    if (outer == 0) warmup_allocations = ws.allocations();
    if (rel_change < c.outer_tolerance) {
      out.converged = true;
      break;
    }
  }

  out.x = x_prev;
  out.l = std::move(l);
  out.r = std::move(r);
  out.rank = rank;
  out.objective = out.objective_trace.empty() ? 0.0 : out.objective_trace.back();
  out.workspace_allocations = ws.allocations();
  out.workspace_allocations_steady = ws.allocations() - warmup_allocations;
  if (c.telemetry != nullptr && c.telemetry->enabled()) {
    c.telemetry->counter("recon.loli_ir.solves").add();
    c.telemetry->counter("recon.loli_ir.outer_iterations").add(out.outer_iterations);
    c.telemetry->counter("recon.loli_ir.workspace_allocations").add(out.workspace_allocations);
    c.telemetry->counter("recon.loli_ir.workspace_allocations_steady")
        .add(out.workspace_allocations_steady);
    c.telemetry->gauge("recon.loli_ir.rank").set(static_cast<double>(out.rank));
    c.telemetry->gauge("recon.loli_ir.last_objective").set(out.objective);
  }
  return out;
}

}  // namespace tafloc