// Per-layer probes, timed alone from the benchmark (traced runs only):
//   hpxlite   async+get, .then node, dataflow node, for_each chunk,
//             fork-join team barrier
//   op2       steady-state replay of a one-block loop on each backend,
//             first-call capture, the res_calc plan build
//   airfoil   each of the five loops alone through seq op_par_loop on
//             the 400x200 mesh, with computed bytes per element
//   memory    copy bandwidth over arrays 4x the reported L3
// Every figure is the median of several batches.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "airfoil/airfoil.hpp"
#include "hpxlite/hpxlite.hpp"
#include "op2/plan.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using op2::op_arg_dat;
using op2::op_arg_gbl;
using op2::OP_ID;
using op2::OP_INC;
using op2::OP_READ;
using op2::OP_RW;
using op2::OP_WRITE;

constexpr int kBatches = 7;

// 4x the 300 MiB L3 the reference host reports, per array.
constexpr std::size_t kCopyBytes = std::size_t{1200} << 20;

/// Median over kBatches of (batch time / ops) in ns; `batch` runs ops
/// operations.
template <typename F>
double ns_per_op(int ops, F&& batch) {
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = clock::now();
    batch();
    ns.push_back(seconds_since(t0) * 1e9 / ops);
  }
  return median(ns);
}

void bump(double* x) { x[0] += 1.0; }

void hpxlite_probes(metric_sink& out, ledger& led, std::uint64_t span) {
  trace::scope probe("probe.hpxlite", span);
  op2::init(arm_config(arms()[2]));  // hpx_foreach: the 4-worker pool

  long sink = 0;
  out.set("hpxlite.async_get_ns", ns_per_op(5000, [&] {
            for (int i = 0; i < 5000; ++i) {
              sink += hpxlite::async([] { return 1; }).get();
            }
          }),
          "ns");

  constexpr int kChain = 256;
  int then_result = 0;
  out.set("hpxlite.then_node_ns", ns_per_op(kChain * 16, [&] {
            for (int round = 0; round < 16; ++round) {
              hpxlite::promise<int> p;
              hpxlite::future<int> f = p.get_future();
              for (int i = 0; i < kChain; ++i) {
                f = f.then([](hpxlite::future<int>&& in) { return in.get() + 1; });
              }
              p.set_value(0);
              then_result = f.get();
            }
          }),
          "ns");
  int df_result = 0;
  out.set("hpxlite.dataflow_node_ns", ns_per_op(kChain * 16, [&] {
            for (int round = 0; round < 16; ++round) {
              hpxlite::promise<int> p;
              hpxlite::future<int> f = p.get_future();
              for (int i = 0; i < kChain; ++i) {
                f = hpxlite::dataflow(hpxlite::launch::async,
                                      hpxlite::unwrapping([](int v) { return v + 1; }),
                                      std::move(f));
              }
              p.set_value(0);
              df_result = f.get();
            }
          }),
          "ns");

  constexpr std::size_t kElems = 65536;
  constexpr std::size_t kChunk = 256;
  std::vector<double> data(kElems, 1.0);
  out.set("hpxlite.for_each_chunk_ns",
          ns_per_op(static_cast<int>(50 * (kElems / kChunk)), [&] {
            for (int rep = 0; rep < 50; ++rep) {
              hpxlite::parallel::for_each(
                  hpxlite::par.with(hpxlite::static_chunk_size(kChunk)),
                  data.begin(), data.end(), [](double& x) { x += 1.0; });
            }
          }),
          "ns");

  op2::init(arm_config(arms()[1]));  // forkjoin: the 4-thread team
  out.set("hpxlite.team_barrier_ns", ns_per_op(5000, [&] {
            for (int i = 0; i < 5000; ++i) {
              op2::team().parallel_for(0, [](std::size_t, std::size_t) {});
            }
          }),
          "ns");

  const bool ok = sink == 5000L * kBatches && then_result == kChain &&
                  df_result == kChain &&
                  data[0] == 1.0 + 50.0 * kBatches &&
                  data[kElems - 1] == 1.0 + 50.0 * kBatches;
  led.op(true);
  if (!ok) {
    led.mismatch("hpxlite probe produced a wrong result");
  }
}

void launch_probes(metric_sink& out, ledger& led, std::uint64_t span) {
  trace::scope probe("probe.op2_launch", span);
  // One-block set: the replay cost is launch overhead, not work.
  constexpr int kElems = 64;
  constexpr int kReplays = 2000;
  op2::op_set set = op2::op_decl_set(kElems, "probe_block");
  op2::op_dat x = op2::op_decl_dat<double>(set, 1, "double", "probe_x");
  for (const arm& a : arms()) {
    op2::init(arm_config(a));
    auto xs = x.data<double>();
    std::fill(xs.begin(), xs.end(), 0.0);
    op2::loop_handle h;
    const auto replay = [&] {
      op2::op_par_loop(h, bump, "probe_replay", set,
                       op_arg_dat<double>(x, -1, OP_ID, 1, OP_RW));
    };
    for (int i = 0; i < 100; ++i) {
      replay();
    }
    out.set(std::string("op2.replay_ns.") + a.label,
            ns_per_op(kReplays, [&] {
              for (int i = 0; i < kReplays; ++i) {
                replay();
              }
            }),
            "ns");
    const double expect = 100.0 + static_cast<double>(kReplays) * kBatches;
    led.op(true);
    if (xs[0] != expect || xs[kElems - 1] != expect) {
      led.mismatch(std::string("replay probe on ") + a.backend +
                   " produced a wrong result");
    }
  }

  op2::init(arm_config(arms()[0]));
  std::vector<double> capture_ns;
  for (int i = 0; i < 200; ++i) {
    op2::loop_handle fresh;
    const auto t0 = clock::now();
    op2::op_par_loop(fresh, bump, "probe_capture", set,
                     op_arg_dat<double>(x, -1, OP_ID, 1, OP_RW));
    capture_ns.push_back(seconds_since(t0) * 1e9);
  }
  out.set("op2.capture_ns", median(capture_ns), "ns");
}

void kernel_probes(const seeded_inputs& in, metric_sink& out, ledger& led,
                   std::uint64_t span) {
  trace::scope probe("probe.kernels", span);
  airfoil::mesh_params mp;
  mp.imax = 400;
  mp.jmax = 200;
  mp.bump_height = in.bump_height;
  airfoil::sim s = airfoil::make_sim(airfoil::generate_mesh(mp));

  const op2::plan_indirection conflicts[] = {{s.pecell, 0, s.p_res.id()},
                                             {s.pecell, 1, s.p_res.id()}};
  std::vector<double> plan_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = clock::now();
    const auto plan = op2::build_plan(s.edges, 128, conflicts);
    plan_ms.push_back(seconds_since(t0) * 1e3);
    if (plan.nblocks == 0) {
      led.mismatch("res_calc plan is empty");
    }
  }
  out.set("op2.plan_build_ms", median(plan_ms), "ms");

  op2::init(arm_config(arms()[0]));  // seq
  constexpr int kReps = 5;
  double rms = 0.0;
  op2::loop_handle h_save, h_adt, h_res, h_bres, h_update;
  // Bytes per element: data arguments only, read or write once each,
  // OP_INC and OP_RW twice; map indices are not counted.
  struct loop_probe {
    const char* name;
    double bytes;
    int elems;
    std::function<void()> run;
  };
  const std::vector<loop_probe> loops = {
      {"save_soln", 4 * 8 + 4 * 8, s.cells.size(),
       [&] {
         op2::op_par_loop(h_save, airfoil::save_soln, "save_soln", s.cells,
                          op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_READ),
                          op_arg_dat<double>(s.p_qold, -1, OP_ID, 4, OP_WRITE));
       }},
      {"adt_calc", 4 * 2 * 8 + 4 * 8 + 8, s.cells.size(),
       [&] {
         op2::op_par_loop(h_adt, airfoil::adt_calc, "adt_calc", s.cells,
                          op_arg_dat<double>(s.p_x, 0, s.pcell, 2, OP_READ),
                          op_arg_dat<double>(s.p_x, 1, s.pcell, 2, OP_READ),
                          op_arg_dat<double>(s.p_x, 2, s.pcell, 2, OP_READ),
                          op_arg_dat<double>(s.p_x, 3, s.pcell, 2, OP_READ),
                          op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_READ),
                          op_arg_dat<double>(s.p_adt, -1, OP_ID, 1, OP_WRITE));
       }},
      {"res_calc", 2 * 2 * 8 + 2 * 4 * 8 + 2 * 8 + 2 * 2 * 4 * 8,
       s.edges.size(),
       [&] {
         op2::op_par_loop(h_res, airfoil::res_calc, "res_calc", s.edges,
                          op_arg_dat<double>(s.p_x, 0, s.pedge, 2, OP_READ),
                          op_arg_dat<double>(s.p_x, 1, s.pedge, 2, OP_READ),
                          op_arg_dat<double>(s.p_q, 0, s.pecell, 4, OP_READ),
                          op_arg_dat<double>(s.p_q, 1, s.pecell, 4, OP_READ),
                          op_arg_dat<double>(s.p_adt, 0, s.pecell, 1, OP_READ),
                          op_arg_dat<double>(s.p_adt, 1, s.pecell, 1, OP_READ),
                          op_arg_dat<double>(s.p_res, 0, s.pecell, 4, OP_INC),
                          op_arg_dat<double>(s.p_res, 1, s.pecell, 4, OP_INC));
       }},
      {"bres_calc", 2 * 2 * 8 + 4 * 8 + 8 + 2 * 4 * 8 + 4, s.bedges.size(),
       [&] {
         op2::op_par_loop(h_bres, airfoil::bres_calc, "bres_calc", s.bedges,
                          op_arg_dat<double>(s.p_x, 0, s.pbedge, 2, OP_READ),
                          op_arg_dat<double>(s.p_x, 1, s.pbedge, 2, OP_READ),
                          op_arg_dat<double>(s.p_q, 0, s.pbecell, 4, OP_READ),
                          op_arg_dat<double>(s.p_adt, 0, s.pbecell, 1, OP_READ),
                          op_arg_dat<double>(s.p_res, 0, s.pbecell, 4, OP_INC),
                          op_arg_dat<int>(s.p_bound, -1, OP_ID, 1, OP_READ));
       }},
      {"update", 4 * 8 + 4 * 8 + 2 * 4 * 8 + 8, s.cells.size(),
       [&] {
         op2::op_par_loop(h_update, airfoil::update, "update", s.cells,
                          op_arg_dat<double>(s.p_qold, -1, OP_ID, 4, OP_READ),
                          op_arg_dat<double>(s.p_q, -1, OP_ID, 4, OP_WRITE),
                          op_arg_dat<double>(s.p_res, -1, OP_ID, 4, OP_RW),
                          op_arg_dat<double>(s.p_adt, -1, OP_ID, 1, OP_READ),
                          op_arg_gbl<double>(&rms, 1, OP_INC));
       }},
  };
  // One untimed pass in loop order captures every call site and gives
  // update a non-zero adt.
  for (const auto& lp : loops) {
    lp.run();
  }
  for (const auto& lp : loops) {
    trace::scope k("kernel", probe.id(), lp.name);
    const double ns = ns_per_op(kReps, [&] {
                        for (int i = 0; i < kReps; ++i) {
                          lp.run();
                        }
                      }) /
                      lp.elems;
    const std::string base = std::string("kernel.") + lp.name;
    out.set(base + ".ns_per_elem", ns, "ns");
    out.set(base + ".bytes_per_elem", lp.bytes, "B");
    out.set(base + ".gbps", lp.bytes / ns, "GB/s");
  }
  led.op(true);
  if (!std::isfinite(rms)) {
    led.mismatch("kernel probe produced a non-finite residual");
  }
}

void memory_probe(metric_sink& out, ledger& led, std::uint64_t span) {
  trace::scope probe("probe.mem_copy", span);
  const std::unique_ptr<char[]> src(new char[kCopyBytes]);
  const std::unique_ptr<char[]> dst(new char[kCopyBytes]);
  std::memset(src.get(), 1, kCopyBytes);
  std::memset(dst.get(), 0, kCopyBytes);
  std::vector<double> gbps;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = clock::now();
    std::memcpy(dst.get(), src.get(), kCopyBytes);
    // Read plus write, as STREAM counts a copy.
    gbps.push_back(2.0 * static_cast<double>(kCopyBytes) / seconds_since(t0) /
                   1e9);
  }
  out.set("mem.copy_gbps", median(gbps), "GB/s");
  led.op(true);
  if (dst[0] != 1 || dst[kCopyBytes - 1] != 1) {
    led.mismatch("memory copy probe produced a wrong result");
  }
}

}  // namespace

void run_probes(const seeded_inputs& in, metric_sink& out, ledger& led,
                std::uint64_t span) {
  trace::scope probes("probes", span);
  hpxlite_probes(out, led, probes.id());
  launch_probes(out, led, probes.id());
  kernel_probes(in, out, led, probes.id());
  memory_probe(out, led, probes.id());
}

}  // namespace perfbench
