#include "apps/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "hw/compute.hpp"
#include "util/error.hpp"

namespace deep::apps {

TiledMatrix::TiledMatrix(int num_tiles, int tile_size)
    : nt_(num_tiles), ts_(tile_size) {
  DEEP_EXPECT(num_tiles >= 1 && tile_size >= 1, "TiledMatrix: bad dimensions");
  data_.assign(static_cast<std::size_t>(nt_) * nt_ * ts_ * ts_, 0.0);
}

std::span<double> TiledMatrix::tile(int i, int j) {
  DEEP_EXPECT(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile: out of range");
  const std::size_t elems = static_cast<std::size_t>(ts_) * ts_;
  return std::span<double>(data_).subspan(
      (static_cast<std::size_t>(j) * nt_ + i) * elems, elems);
}

std::span<const double> TiledMatrix::tile(int i, int j) const {
  DEEP_EXPECT(i >= 0 && i < nt_ && j >= 0 && j < nt_, "tile: out of range");
  const std::size_t elems = static_cast<std::size_t>(ts_) * ts_;
  return std::span<const double>(data_).subspan(
      (static_cast<std::size_t>(j) * nt_ + i) * elems, elems);
}

double& TiledMatrix::at(int row, int col) {
  const int ti = row / ts_, tj = col / ts_;
  auto t = tile(ti, tj);
  return t[static_cast<std::size_t>(col % ts_) * ts_ + row % ts_];
}

double TiledMatrix::at(int row, int col) const {
  const int ti = row / ts_, tj = col / ts_;
  auto t = tile(ti, tj);
  return t[static_cast<std::size_t>(col % ts_) * ts_ + row % ts_];
}

// ---------------------------------------------------------------------------
// Tile kernels
//
// Every kernel walks columns through pointers with the row index i
// innermost, so loads are contiguous, and keeps a block of rows (of one
// column, or of two in gemm and syrk) in independent accumulators on the
// stack, so no call allocates.  Each element's sum still starts from the same
// value and runs over k in ascending order, so every result is
// bit-identical to the textbook k-innermost loops (tests/apps_test.cpp pins
// them with golden bit patterns).
// ---------------------------------------------------------------------------

namespace {

template <int R>
using Rows = std::integral_constant<int, R>;

// Calls block(i, Rows<R>{}) over the rows [begin, end): blocks of 8 rows,
// then at most one block each of 4, 2 and 1 rows for the tail.
template <class Block>
inline void for_row_blocks(int begin, int end, Block&& block) {
  int i = begin;
  for (; i + 8 <= end; i += 8) block(i, Rows<8>{});
  if (i + 4 <= end) {
    block(i, Rows<4>{});
    i += 4;
  }
  if (i + 2 <= end) {
    block(i, Rows<2>{});
    i += 2;
  }
  if (i < end) block(i, Rows<1>{});
}

// acc[c][r] += x[k * ld + r] * y[k * ld + c] for k = 0 .. kn-1 in
// ascending order (-= when Subtract): C columns of R rows each.
template <bool Subtract, int C, int R>
inline void dot_columns(double (&acc)[C][R], const double* x, const double* y,
                        std::size_t ld, int kn) {
  for (int k = 0; k < kn; ++k, x += ld, y += ld) {
    for (int c = 0; c < C; ++c) {
      const double yk = y[c];
      for (int r = 0; r < R; ++r) {
        if constexpr (Subtract)
          acc[c][r] -= x[r] * yk;
        else
          acc[c][r] += x[r] * yk;
      }
    }
  }
}

// Column j of a lower-left solve shared by potrf and trsm, rows [begin, ts):
// b(i, j) := (b(i, j) - sum_{k<j} b(i, k) * t(j, k)) / d.
void solve_column(double* b, const double* t, std::size_t ts, int j, int begin,
                  double d) {
  double* col = b + j * ts;
  for_row_blocks(begin, static_cast<int>(ts), [&](int i, auto rows) {
    constexpr int R = decltype(rows)::value;
    double s[1][R];
    for (int r = 0; r < R; ++r) s[0][r] = col[i + r];
    dot_columns<true>(s, b + i, t + j, ts, j);
    for (int r = 0; r < R; ++r) col[i + r] = s[0][r] / d;
  });
}

// Rows [begin, end) of the C columns from j on:
// c(i, j) -= sum_k a(i, k) * b(j, k).
template <int C>
void update_columns(const double* a, const double* b, double* c,
                    std::size_t ts, int j, int begin, int end) {
  double* col = c + j * ts;
  for_row_blocks(begin, end, [&](int i, auto rows) {
    constexpr int R = decltype(rows)::value;
    double s[C][R] = {};
    dot_columns<false>(s, a + i, b + j, ts, static_cast<int>(ts));
    for (int q = 0; q < C; ++q)
      for (int r = 0; r < R; ++r) col[q * ts + i + r] -= s[q][r];
  });
}

}  // namespace

void potrf_tile(std::span<double> a, int ts) {
  const auto n = static_cast<std::size_t>(ts);
  double* p = a.data();
  for (int j = 0; j < ts; ++j) {
    double* col = p + j * n;
    double d = col[j];
    for (int k = 0; k < j; ++k) {
      const double v = p[k * n + j];
      d -= v * v;
    }
    DEEP_EXPECT(d > 0.0, "potrf: matrix not positive definite");
    d = std::sqrt(d);
    col[j] = d;
    solve_column(p, p, n, j, j + 1, d);
    // Zero the upper triangle for cleanliness.
    std::fill(col, col + j, 0.0);
  }
}

void trsm_tile(std::span<const double> t, std::span<double> b, int ts) {
  // Solve X * T^T = B for X, T lower triangular: column sweep.
  const auto n = static_cast<std::size_t>(ts);
  for (int j = 0; j < ts; ++j)
    solve_column(b.data(), t.data(), n, j, 0, t[j * n + j]);
}

void syrk_tile(std::span<const double> a, std::span<double> c, int ts) {
  const auto n = static_cast<std::size_t>(ts);
  int j = 0;
  for (; j + 2 <= ts; j += 2) {
    update_columns<1>(a.data(), a.data(), c.data(), n, j, j, j + 1);
    update_columns<2>(a.data(), a.data(), c.data(), n, j, j + 1, ts);
  }
  if (j < ts) update_columns<1>(a.data(), a.data(), c.data(), n, j, j, ts);
}

void gemm_tile(std::span<const double> a, std::span<const double> b,
               std::span<double> c, int ts) {
  const auto n = static_cast<std::size_t>(ts);
  int j = 0;
  for (; j + 2 <= ts; j += 2)
    update_columns<2>(a.data(), b.data(), c.data(), n, j, 0, ts);
  if (j < ts) update_columns<1>(a.data(), b.data(), c.data(), n, j, 0, ts);
}

// ---------------------------------------------------------------------------
// Setup & verification
// ---------------------------------------------------------------------------

void fill_spd(TiledMatrix& a, std::uint64_t seed) {
  util::Rng rng(seed);
  const int nt = a.num_tiles(), ts = a.tile_size(), n = a.n();
  const auto len = static_cast<std::size_t>(ts);
  // Column j, rows i >= j, in the order the generator is drawn: each value
  // goes to (i, j) and its mirror (j, i).
  for (int tj = 0; tj < nt; ++tj) {
    for (int jj = 0; jj < ts; ++jj) {
      for (int ti = tj; ti < nt; ++ti) {
        double* lower = a.tile(ti, tj).data() + jj * len;
        double* upper = a.tile(tj, ti).data() + jj;
        for (int ii = ti == tj ? jj : 0; ii < ts; ++ii) {
          const double v = rng.uniform(-1.0, 1.0);
          lower[ii] = v;
          upper[ii * len] = v;
        }
      }
    }
  }
  // Diagonal dominance guarantees positive definiteness.
  for (int t = 0; t < nt; ++t) {
    double* diag = a.tile(t, t).data();
    for (std::size_t d = 0; d < len; ++d) diag[d * len + d] += n;
  }
}

void cholesky_reference(TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  for (int k = 0; k < nt; ++k) {
    potrf_tile(a.tile(k, k), ts);
    for (int i = k + 1; i < nt; ++i) trsm_tile(a.tile(k, k), a.tile(i, k), ts);
    for (int i = k + 1; i < nt; ++i) {
      for (int j = k + 1; j < i; ++j)
        gemm_tile(a.tile(i, k), a.tile(j, k), a.tile(i, j), ts);
      syrk_tile(a.tile(i, k), a.tile(i, i), ts);
    }
  }
}

double factor_error(const TiledMatrix& factor, const TiledMatrix& original) {
  DEEP_EXPECT(factor.num_tiles() == original.num_tiles() &&
                  factor.tile_size() == original.tile_size(),
              "factor_error: matrices differ in shape");
  const int nt = factor.num_tiles(), ts = factor.tile_size();
  const auto len = static_cast<std::size_t>(ts);
  double max_err = 0.0;
  // Element (i, j), i >= j, of L * L^T sums L(i, k) * L(j, k) over
  // k = 0 .. j; i runs down tile column tj in register blocks.
  for (int tj = 0; tj < nt; ++tj) {
    for (int jj = 0; jj < ts; ++jj) {
      for (int ti = tj; ti < nt; ++ti) {
        const double* want = original.tile(ti, tj).data() + jj * len;
        for_row_blocks(ti == tj ? jj : 0, ts, [&](int ii, auto rows) {
          constexpr int R = decltype(rows)::value;
          double s[1][R] = {};
          for (int kt = 0; kt <= tj; ++kt)
            dot_columns<false>(s, factor.tile(ti, kt).data() + ii,
                               factor.tile(tj, kt).data() + jj, len,
                               kt < tj ? ts : jj + 1);
          for (int r = 0; r < R; ++r)
            max_err = std::max(max_err, std::abs(s[0][r] - want[ii + r]));
        });
      }
    }
  }
  return max_err;
}

// ---------------------------------------------------------------------------
// Task-graph submission (the slide-23 program, pragmas --> regions)
// ---------------------------------------------------------------------------

void submit_cholesky_tasks(ompss::Runtime& runtime, TiledMatrix& a) {
  const int nt = a.num_tiles(), ts = a.tile_size();
  // Panel tasks sit on the critical path: raise their priority so workers
  // prefer them over trailing updates (standard tiled-Cholesky scheduling).
  constexpr int kPanelPriority = 2, kTrsmPriority = 1;
  for (int k = 0; k < nt; ++k) {
    runtime.submit("potrf", {ompss::inout(a.tile(k, k))},
                   hw::kernels::potrf(ts),
                   [&a, k, ts] { potrf_tile(a.tile(k, k), ts); },
                   kPanelPriority);
    for (int i = k + 1; i < nt; ++i) {
      runtime.submit(
          "trsm", {ompss::in(std::span<const double>(a.tile(k, k))),
                   ompss::inout(a.tile(i, k))},
          hw::kernels::trsm(ts),
          [&a, k, i, ts] { trsm_tile(a.tile(k, k), a.tile(i, k), ts); },
          kTrsmPriority);
    }
    for (int i = k + 1; i < nt; ++i) {
      for (int j = k + 1; j < i; ++j) {
        runtime.submit(
            "gemm", {ompss::in(std::span<const double>(a.tile(i, k))),
                     ompss::in(std::span<const double>(a.tile(j, k))),
                     ompss::inout(a.tile(i, j))},
            hw::kernels::gemm(ts), [&a, i, j, k, ts] {
              gemm_tile(a.tile(i, k), a.tile(j, k), a.tile(i, j), ts);
            });
      }
      runtime.submit(
          "syrk", {ompss::in(std::span<const double>(a.tile(i, k))),
                   ompss::inout(a.tile(i, i))},
          hw::kernels::syrk(ts),
          [&a, i, k, ts] { syrk_tile(a.tile(i, k), a.tile(i, i), ts); });
    }
  }
}

double cholesky_flops(int n) {
  const double nn = n;
  return nn * nn * nn / 3.0;
}

}  // namespace deep::apps
