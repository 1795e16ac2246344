#include "apps/stencil.hpp"

#include <algorithm>
#include <cmath>

#include "apps/ckpt_state.hpp"
#include "ckpt/checkpoint.hpp"
#include "hw/compute.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deep::apps {

namespace {

/// One interior row of the 5-point sweep: writes the new row to `out` and
/// returns max |out[c] - row[c]| over the interior columns.  The sum keeps
/// the cell-at-a-time order and the max is the same std::max chain, so
/// every result is bit-identical to the old sweep.  The max lives in a
/// local: `last_update` has its address taken (checkpoint pack), so
/// folding into it directly stored and reloaded it on every cell.  The
/// loop stays scalar on purpose: the max chain paces it and the row loads
/// issue under that chain, which keeps the sweep's cost steady on a shared
/// host, where a vectorised sweep ran at the speed of the memory system
/// (docs/perf.md, "Numerics on the booster").
double sweep_row(const double* __restrict above, const double* __restrict row,
                 const double* __restrict below, double* __restrict out,
                 int nx) {
  const int last = nx - 1;
  double max_update = 0.0;
  for (int c = 1; c < last; ++c) {
    const double v = 0.25 * (above[c] + below[c] + row[c - 1] + row[c + 1]);
    out[c] = v;
    max_update = std::max(max_update, std::abs(v - row[c]));
  }
  out[0] = row[0];
  out[last] = row[last];
  return max_update;
}

}  // namespace

StencilResult run_jacobi(mpi::Mpi& mpi, const mpi::Comm& comm,
                         const StencilConfig& config) {
  DEEP_EXPECT(config.nx >= 3 && config.rows >= 1 && config.iterations >= 1,
              "run_jacobi: bad configuration");
  const int nx = config.nx;
  const int rows = config.rows;
  const int size = comm.size();
  const int me = comm.rank();
  const int up = me - 1;    // owns the rows above us (-1: global top edge)
  const int down = me + 1;  // below (size: global bottom edge)

  // Grid with halo rows 0 and rows+1; row-major.
  const auto idx = [nx](int r, int c) {
    return static_cast<std::size_t>(r) * nx + c;
  };
  std::vector<double> grid(static_cast<std::size_t>(rows + 2) * nx, 0.0);
  // The sweep updates `grid` in place: row r's new values wait in one of
  // two row buffers until row r+1, the last reader of its old values, has
  // been computed.
  std::vector<double> fresh(2 * static_cast<std::size_t>(nx));
  const auto fresh_row = [&fresh, nx](int r) {
    return &fresh[static_cast<std::size_t>(r & 1) * nx];
  };
  if (me == 0)
    for (int c = 0; c < nx; ++c) grid[idx(0, c)] = config.top_value;

  std::int64_t halo_messages = 0;
  double last_update = 0.0;
  constexpr mpi::Tag kUpTag = 71, kDownTag = 72;

  // Roll back to the planned checkpoint, if any: version v is the state
  // after completing iteration v-1, so the loop resumes at iter == v.
  int start_iter = 0;
  if (config.ckpt != nullptr) {
    if (auto restored = config.ckpt->restore(mpi.ctx())) {
      std::span<const std::byte> in(restored->bytes);
      detail::unpack(in, std::span<double>(grid));
      detail::unpack(in, std::span<double>(&last_update, 1));
      start_iter = static_cast<int>(restored->version);
    }
  }

  std::vector<mpi::RequestPtr> reqs;
  reqs.reserve(4);
  for (int iter = start_iter; iter < config.iterations; ++iter) {
    // Halo exchange: send my top interior row up, bottom interior row down.
    reqs.clear();
    const std::span<double> top_halo(&grid[idx(0, 0)], static_cast<std::size_t>(nx));
    const std::span<double> bot_halo(&grid[idx(rows + 1, 0)],
                                     static_cast<std::size_t>(nx));
    const std::span<const double> top_row(&grid[idx(1, 0)],
                                          static_cast<std::size_t>(nx));
    const std::span<const double> bot_row(&grid[idx(rows, 0)],
                                          static_cast<std::size_t>(nx));
    if (up >= 0) {
      reqs.push_back(mpi.irecv<double>(comm, up, kDownTag, top_halo));
      reqs.push_back(mpi.isend<double>(comm, up, kUpTag, top_row));
      halo_messages += 2;
    }
    if (down < size) {
      reqs.push_back(mpi.irecv<double>(comm, down, kUpTag, bot_halo));
      reqs.push_back(mpi.isend<double>(comm, down, kDownTag, bot_row));
      halo_messages += 2;
    }
    mpi.wait_all(reqs);

    // Real 5-point sweep on the interior; fixed left/right edges.
    last_update = 0.0;
    for (int r = 1; r <= rows; ++r) {
      last_update = std::max(
          last_update, sweep_row(&grid[idx(r - 1, 0)], &grid[idx(r, 0)],
                                 &grid[idx(r + 1, 0)], fresh_row(r), nx));
      if (r > 1) std::copy_n(fresh_row(r - 1), nx, &grid[idx(r - 1, 0)]);
    }
    std::copy_n(fresh_row(rows), nx, &grid[idx(rows, 0)]);

    // Burn the modelled sweep time on this rank's cores.
    mpi.compute(hw::kernels::jacobi2d(nx, rows), mpi.node().spec().cores);

    if (config.ckpt != nullptr && config.ckpt->interval() > 0 &&
        (iter + 1) % config.ckpt->interval() == 0) {
      std::vector<std::byte> state;
      detail::pack(state, std::span<const double>(grid));
      detail::pack(state, std::span<const double>(&last_update, 1));
      config.ckpt->save(mpi.ctx(), static_cast<std::uint64_t>(iter + 1),
                        std::move(state));
    }
  }

  // Global reductions: residual (max) and checksum (sum).
  double local_sum = 0.0;
  for (int r = 1; r <= rows; ++r)
    for (int c = 0; c < nx; ++c) local_sum += grid[idx(r, c)];

  StencilResult result;
  const double in_max[1] = {last_update};
  double out_max[1];
  mpi.allreduce<double>(comm, mpi::Op::Max, in_max, out_max);
  const double in_sum[1] = {local_sum};
  double out_sum[1];
  mpi.allreduce<double>(comm, mpi::Op::Sum, in_sum, out_sum);
  result.residual = out_max[0];
  result.checksum = out_sum[0];
  result.halo_messages = halo_messages;
  return result;
}

void run_irregular_exchange(mpi::Mpi& mpi, const mpi::Comm& comm,
                            const IrregularConfig& config) {
  DEEP_EXPECT(config.rounds >= 1 && config.bytes >= 1,
              "run_irregular_exchange: bad configuration");
  const int n = comm.size();
  const int me = comm.rank();
  std::vector<std::byte> sbuf(static_cast<std::size_t>(config.bytes));
  std::vector<std::byte> rbuf(static_cast<std::size_t>(config.bytes));

  std::vector<int> perm(static_cast<std::size_t>(n));
  for (int round = 0; round < config.rounds; ++round) {
    // All ranks derive the same random pairing for this round.
    util::Rng rng(config.seed + static_cast<std::uint64_t>(round) * 7919);
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i)
      std::swap(perm[static_cast<std::size_t>(i)],
                perm[rng.below(static_cast<std::uint64_t>(i + 1))]);
    // perm defines a pairing: partner of perm[2k] is perm[2k+1].
    int partner = me;
    for (int k = 0; k + 1 < n; k += 2) {
      if (perm[static_cast<std::size_t>(k)] == me)
        partner = perm[static_cast<std::size_t>(k + 1)];
      if (perm[static_cast<std::size_t>(k + 1)] == me)
        partner = perm[static_cast<std::size_t>(k)];
    }
    if (partner != me) {
      mpi.sendrecv_bytes(comm, partner, 80 + round, sbuf, partner, 80 + round,
                         rbuf);
    }
    mpi.compute({config.flops_per_round, 0.0, 0.0}, 1);
  }
}

}  // namespace deep::apps
