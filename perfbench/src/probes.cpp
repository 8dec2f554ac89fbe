#include "probes.hpp"

#include <span>
#include <vector>

#include "collectives/getd.hpp"
#include "collectives/setd.hpp"
#include "pgas/global_array.hpp"
#include "util.hpp"

namespace perfbench {

using namespace pgraph;

PgasProbe probe_pgas(pgas::Runtime& rt, int runs, int barriers) {
  std::vector<double> empty;
  for (int i = 0; i < runs; ++i) {
    const double t0 = wall_now();
    rt.run([](pgas::ThreadCtx&) {});
    empty.push_back(wall_now() - t0);
  }
  std::vector<double> per;
  per.reserve(static_cast<std::size_t>(barriers));
  rt.run([&](pgas::ThreadCtx& ctx) {
    for (int b = 0; b < barriers; ++b) {
      const double t0 = wall_now();
      ctx.barrier();
      if (ctx.id() == 0) per.push_back(wall_now() - t0);
    }
  });
  return {1e6 * median(empty), 1e6 * median(per)};
}

CollProbe probe_collectives(pgas::Runtime& rt, const graph::EdgeList& el,
                            int reps) {
  const std::size_t n = el.n;
  const int s = rt.topo().total_threads();
  pgas::GlobalArray<std::uint64_t> d(rt, n, rt.make_partitioning(n));
  for (std::size_t i = 0; i < n; ++i) d.raw(i) = i;
  coll::CollectiveContext cc(rt);
  const coll::CollectiveOptions opt = coll::CollectiveOptions::optimized();

  const auto us = static_cast<std::size_t>(s);
  std::vector<coll::CollWorkspace<std::uint64_t>> ws(us);
  std::vector<std::vector<std::uint64_t>> idx(us), val(us), out(us);
  for (int t = 0; t < s; ++t) {
    const auto tt = static_cast<std::size_t>(t);
    for (const graph::Edge& e : graph::edge_chunk(el.edges, s, t)) {
      idx[tt].insert(idx[tt].end(), {e.u, e.v});
      val[tt].insert(val[tt].end(), {e.v, e.u});
    }
    out[tt].resize(idx[tt].size());
  }

  std::vector<double> host[3], modeled[3];
  rt.run([&](pgas::ThreadCtx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.id());
    const std::span<const std::uint64_t> in_idx(idx[me]);
    const std::span<const std::uint64_t> in_val(val[me]);
    for (int r = 0; r < reps; ++r) {
      for (int op = 0; op < 3; ++op) {
        ctx.barrier();  // aligns every clock, modeled and host
        const double h0 = wall_now();
        const double m0 = ctx.now_ns();
        ws[me].invalidate_keys();
        if (op == 0)
          coll::getd(ctx, d, in_idx, std::span<std::uint64_t>(out[me]), opt,
                     cc, ws[me]);
        else if (op == 1)
          coll::setd(ctx, d, in_idx, in_val, opt, cc, ws[me]);
        else
          coll::setd_min(ctx, d, in_idx, in_val, opt, cc, ws[me]);
        // Every collective ends in an exchange barrier, so thread 0's
        // clocks here are the collective's completion for all threads.
        if (me == 0) {
          host[op].push_back(wall_now() - h0);
          modeled[op].push_back(ctx.now_ns() - m0);
        }
      }
    }
  });
  return {1e6 * median(host[0]),     1e6 * median(host[1]),
          1e6 * median(host[2]),     1e-3 * median(modeled[0]),
          1e-3 * median(modeled[1]), 1e-3 * median(modeled[2])};
}

}  // namespace perfbench
