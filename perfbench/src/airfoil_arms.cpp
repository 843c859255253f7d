// Airfoil backend arms: every backend runs the same trial in turn
// (op2::init, untimed iterations that capture the loops and let the
// grain tuner settle, then trial_iters timed iterations through
// airfoil::run_with_backend from the free stream), rotating the order
// each round so no arm always follows the same one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <numbers>
#include <set>
#include <string>
#include <tuple>

#include "airfoil/airfoil.hpp"
#include "airfoil/sharded.hpp"
#include "hpxlite/scheduler.hpp"
#include "op2/tuner.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Final q of every backend against the serial reference (relative to
// 1 + |q|), and the residual history likewise.  Backends reorder the
// residual accumulation by colour, so agreement is to rounding, not
// bitwise; seq and hpx_shard are compared bitwise with each other.
constexpr double kQTolerance = 1e-11;
constexpr double kRmsTolerance = 1e-8;

constexpr const char* kLoops[] = {"save_soln", "adt_calc", "res_calc",
                                  "bres_calc", "update", "update+save_soln"};

// "update@s0+save_soln@s0" -> "update+save_soln": shard loops carry a
// per-shard suffix; their times sum into the unsuffixed loop.
std::string loop_family(const std::string& name) {
  std::string out;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] == '@' && i + 1 < name.size() && name[i + 1] == 's') {
      i += 1;
      while (i + 1 < name.size() && name[i + 1] >= '0' && name[i + 1] <= '9') {
        ++i;
      }
      continue;
    }
    out.push_back(name[i]);
  }
  return out;
}

std::string metric_loop_name(const std::string& loop) {
  std::string out = loop;
  std::replace(out.begin(), out.end(), '+', '_');
  return out;
}

bool uses_pool(const arm& a) { return std::strncmp(a.backend, "hpx_", 4) == 0; }

hpxlite::scheduler_stats pool_stats(const arm& a) {
  if (uses_pool(a) && hpxlite::runtime::exists()) {
    return hpxlite::runtime::get().stats();
  }
  return {};
}

// Untimed iterations bound for settle_tuner: a controller converges
// within max_probe_feeds (32) feeds, and every loop is fed at least once
// per iteration.  After the capturing iteration the tuner settles in
// calls of kSettleStep iterations: on hpx_shard every
// run_with_backend call rebuilds the shard decomposition.
constexpr int kMaxSettleIters = 33;
constexpr int kSettleStep = 4;

struct controller_progress {
  std::uint64_t feeds = 0;
  bool probing = false;
  std::uint64_t probe_feeds = 0;        // since the controller last reset
  std::uint64_t total_probe_feeds = 0;
};

using controller_key = std::tuple<std::string, std::string, unsigned, unsigned>;

std::map<controller_key, controller_progress> controllers() {
  std::map<controller_key, controller_progress> out;
  for (const auto& e : op2::tuner::snapshot()) {
    out[{e.loop, e.backend, e.threads, e.bucket}] = {
        e.total_feeds, e.state == hpxlite::grain_controller::state::probing,
        e.probe_feeds, e.total_probe_feeds};
  }
  return out;
}

// Runs untimed iterations right after op2::init: the first captures the
// loops, the rest last until every grain controller fed on each
// iteration has ended the reprobe that init() started (init() finalizes
// the previous runtime, and finalize() sends every converged controller
// back to probing).  A long run pays that reprobe once, so a timed trial
// must not.  A controller has ended it once it is seen converged, or
// seen not to climb since the last look: one that re-seeds whenever its
// loop's iteration count jumps never converges, in a long run too.
// Later re-entries into probing on a slow run are the tuner's steady
// state and are not waited out.  Returns the number of iterations run.
int settle_tuner(airfoil::sim& s, const char* backend) {
  auto prev = controllers();
  std::set<controller_key> done;
  int iters = 0;
  while (true) {
    const int step = iters == 0 ? 1 : kSettleStep;
    airfoil::run_with_backend(s, step, backend);
    iters += step;
    const auto now = controllers();
    bool pending = false;
    for (const auto& [key, c] : now) {
      const auto p = prev.find(key);
      // Fed by every iteration of this call (save_soln, which runs once
      // per call before the fused update+save_soln takes over, is not).
      const bool fed =
          c.feeds >= (p == prev.end() ? 0 : p->second.feeds) + step;
      // It probed since the last look, and every probe feed counted
      // towards one climb: it neither converged nor re-seeded in between.
      // (A controller whose loop never asks it for a chunk takes feeds
      // but never probes.)
      const bool progressed =
          p == prev.end() ||
          (c.total_probe_feeds > p->second.total_probe_feeds &&
           c.probe_feeds - p->second.probe_feeds ==
               c.total_probe_feeds - p->second.total_probe_feeds);
      if (!c.probing || !progressed) {
        done.insert(key);
      }
      pending = pending || (fed && !done.contains(key));
    }
    if (!pending || iters >= kMaxSettleIters) {
      return iters;
    }
    prev = now;
  }
}

}  // namespace

const std::vector<arm>& arms() {
  static const std::vector<arm> all = {
      {"seq", "seq", 1},           {"forkjoin", "forkjoin", 4},
      {"foreach", "hpx_foreach", 4}, {"async", "hpx_async", 4},
      {"dataflow", "hpx_dataflow", 4}, {"shard", "hpx_shard", 4},
  };
  return all;
}

op2::config arm_config(const arm& a) {
  op2::config cfg = op2::make_config(a.backend, a.threads);
  if (std::strcmp(a.backend, "hpx_shard") == 0) {
    cfg.shards = 4;
  }
  return cfg;
}

double timed_setup_ms(const std::string& name, std::uint64_t parent,
                      const std::function<void()>& step) {
  trace::scope span(name, parent);
  const auto t0 = clock::now();
  step();
  return seconds_since(t0) * 1e3;
}

airfoil_arms::airfoil_arms(const workload& w, const seeded_inputs& in)
    : w_(w), in_(in), stats_(arms().size()) {}

void airfoil_arms::setup(std::uint64_t span) {
  airfoil::mesh_params mp;
  mp.imax = w_.imax;
  mp.jmax = w_.jmax;
  mp.bump_height = in_.bump_height;
  setup_ms_["mesh_gen"] = timed_setup_ms("airfoil::generate_mesh", span, [&] {
    mesh_ = airfoil::generate_mesh(mp);
  });
  setup_ms_["make_sim"] = timed_setup_ms("airfoil::make_sim", span, [&] {
    sim_ = std::make_unique<airfoil::sim>(airfoil::make_sim(mesh_));
  });
  std::vector<double> init_ms;
  for (const arm& a : arms()) {
    init_ms.push_back(timed_setup_ms("op2::init", span, [&] {
      op2::init(arm_config(a));
    }));
    timed_setup_ms("capture_iteration", span, [&] {
      airfoil::run_with_backend(*sim_, 1, a.backend);
    });
    airfoil::reset_solution(*sim_);
  }
  setup_ms_["op2_init"] = median(init_ms);
}

void airfoil_arms::compute_reference() {
  ref_ = reference_airfoil(mesh_, in_.alpha_deg * std::numbers::pi / 180.0,
                           w_.trial_iters);
}

void airfoil_arms::trial(std::size_t a, bool timed, bool profiled,
                         ledger& led, std::uint64_t span) {
  const arm& am = arms()[a];
  arm_stats& st = stats_[a];
  trace::scope arm_span("arm", span, am.backend);
  op2::profiling::enable(profiled);
  op2::init(arm_config(am));
  airfoil::sim& s = *sim_;
  airfoil::reset_solution(s);
  airfoil::run_result r;
  double wall = 0.0;
  double steal = 0.0;
  hpxlite::scheduler_stats before;
  bool ok = true;
  int settle_iters = 0;
  try {
    settle_iters = settle_tuner(s, am.backend);
    airfoil::reset_solution(s);
    if (profiled) {
      op2::profiling::reset();
    }
    before = pool_stats(am);
    trace::scope call("run_with_backend", arm_span.id(), am.backend);
    steal = steal_seconds();
    const auto t0 = clock::now();
    r = airfoil::run_with_backend(s, w_.trial_iters, am.backend);
    wall = seconds_since(t0);
    steal = steal_seconds() - steal;
  } catch (const std::exception& e) {
    ok = false;
    std::fprintf(stderr, "perfbench: %s trial threw: %s\n", am.backend,
                 e.what());
  }
  op2::profiling::enable(false);
  led.op(ok);
  if (!ok) {
    return;
  }
  check(a, r, led);
  if (!timed) {
    return;
  }

  const double ms = wall * 1e3 / w_.trial_iters;
  (profiled ? st.traced_ms_per_iter : st.ms_per_iter).add(ms, wall, steal);
  const auto after = pool_stats(am);
  st.settle_iters.push_back(settle_iters);
  st.sched_iters += w_.trial_iters;
  st.tasks += static_cast<double>(after.tasks_executed - before.tasks_executed);
  st.steals += static_cast<double>(after.tasks_stolen - before.tasks_stolen);
  st.helped += static_cast<double>(after.helped_while_waiting -
                                   before.helped_while_waiting);
  if (!profiled) {
    return;
  }
  st.profiled_iters += w_.trial_iters;
  st.profiled_wall_s += wall;
  int converged = 0;
  for (const auto& [name, p] : op2::profiling::snapshot()) {
    st.loop_s[loop_family(name)] += p.total_seconds;
    if (p.tuner_state == "converged") {
      ++converged;
    }
  }
  st.tuner_converged = converged;
  const auto shards = op2::profiling::shard_snapshot();
  if (!shards.empty()) {
    st.blocked_per_shard.resize(shards.size(), 0.0);
    double halo = 0.0;
    for (const auto& [id, sp] : shards) {
      st.exchange_s += sp.exchange_seconds;
      st.overlap_s += sp.overlap_seconds;
      st.blocked_s += sp.blocked_seconds;
      st.shard_rounds += static_cast<double>(sp.exchanges);
      if (static_cast<std::size_t>(id) < st.blocked_per_shard.size()) {
        st.blocked_per_shard[static_cast<std::size_t>(id)] += sp.blocked_seconds;
      }
      halo += static_cast<double>(sp.halo);
    }
    st.halo_cells = halo;
  }
}

void airfoil_arms::check(std::size_t a, const airfoil::run_result& r,
                         ledger& led) {
  const arm& am = arms()[a];
  const auto q = sim_->p_q.data<double>();
  const std::vector<double> qv(q.begin(), q.end());
  const std::string who = std::string(am.backend) + " on " + w_.name;
  if (r.rms_history.size() != static_cast<std::size_t>(w_.trial_iters)) {
    led.mismatch(who + ": wrong rms history length");
    return;
  }
  for (std::size_t i = 0; i < r.rms_history.size(); ++i) {
    const double v = r.rms_history[i];
    if (!std::isfinite(v) || v <= 0.0) {
      led.mismatch(who + ": rms not finite and positive");
      return;
    }
    if (std::fabs(v - ref_.rms[i]) > kRmsTolerance * ref_.rms[i]) {
      led.mismatch(who + ": rms differs from the serial reference");
      return;
    }
  }
  const double dq = max_rel_diff(qv, ref_.q);
  if (!(dq <= kQTolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  ": q differs from the serial reference by %.3g", dq);
    led.mismatch(who + buf);
  }
  const bool is_seq = std::strcmp(am.backend, "seq") == 0;
  const bool is_shard = std::strcmp(am.backend, "hpx_shard") == 0;
  if (is_seq || is_shard) {
    if (seq_q_.empty() && is_seq) {
      seq_q_ = qv;
    } else if (!seq_q_.empty() &&
               std::memcmp(seq_q_.data(), qv.data(),
                           qv.size() * sizeof(double)) != 0) {
      led.mismatch(who + ": q is not bit-identical to seq");
    }
  }
}

void airfoil_arms::warm(double seconds, ledger& led, std::uint64_t span) {
  trace::scope phase("warm", span);
  const auto t0 = clock::now();
  do {
    for (std::size_t i = 0; i < arms().size(); ++i) {
      trial((round_ + i) % arms().size(), false, false, led, phase.id());
    }
    ++round_;
  } while (seconds_since(t0) < seconds);
}

void airfoil_arms::measure(double seconds, bool traced, ledger& led,
                           std::uint64_t span) {
  trace::scope phase("arms", span, w_.name);
  const auto t0 = clock::now();
  std::size_t timed_rounds = 0;
  do {
    const bool profiled = traced && timed_rounds % 2 == 0;
    for (std::size_t i = 0; i < arms().size(); ++i) {
      trial((round_ + i) % arms().size(), true, profiled, led, phase.id());
    }
    ++round_;
    ++timed_rounds;
  } while (seconds_since(t0) < seconds || (traced && timed_rounds < 2));
  // An arm whose every trial threw has no time to report; a 0 in its
  // place would read as the fastest result.
  for (std::size_t a = 0; a < arms().size(); ++a) {
    if (stats_[a].ms_per_iter.count() == 0 ||
        (traced && stats_[a].traced_ms_per_iter.count() == 0)) {
      led.mismatch(std::string(arms()[a].backend) + " on " + w_.name +
                   ": no trial completed");
    }
  }
}

void airfoil_arms::free_stream_check(ledger& led, std::uint64_t span) {
  trace::scope phase("free_stream_check", span);
  const airfoil::flow_constants saved = airfoil::constants();
  airfoil::constants().alpha = 0.0;
  airfoil::constants().finalise();
  const auto qinf = airfoil::constants().qinf;

  airfoil::mesh_params mp;
  mp.imax = w_.imax;
  mp.jmax = w_.jmax;
  mp.bump_height = 0.0;
  airfoil::sim flat = airfoil::make_sim(airfoil::generate_mesh(mp));
  for (const arm& a : arms()) {
    op2::init(arm_config(a));
    airfoil::reset_solution(flat);
    bool ok = true;
    bool preserved = true;
    try {
      const auto r = airfoil::run_with_backend(flat, 3, a.backend);
      for (const double v : r.rms_history) {
        preserved = preserved && v == 0.0;
      }
      const auto q = flat.p_q.data<double>();
      for (std::size_t i = 0; i < q.size(); ++i) {
        preserved = preserved && q[i] == qinf[i % 4];
      }
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "perfbench: free-stream %s threw: %s\n", a.backend,
                   e.what());
    }
    led.op(ok);
    if (ok && !preserved) {
      led.mismatch(std::string(a.backend) + " on " + w_.name +
                   ": free stream not preserved on a flat wall");
    }
  }
  airfoil::constants() = saved;
  const auto& now = airfoil::constants();
  if (now.alpha != saved.alpha || now.qinf != saved.qinf) {
    led.mismatch("airfoil::constants() not restored");
  }
}

void airfoil_arms::exchange_probe(metric_sink& out, std::uint64_t span) {
  trace::scope phase("probe.exchange", span);
  op2::init(arm_config(arms().back()));
  std::unique_ptr<airfoil::shard_sim> d;
  out.set("airfoil.shard_build_ms",
          timed_setup_ms("airfoil::make_shard_sim", phase.id(), [&] {
            d = std::make_unique<airfoil::shard_sim>(
                airfoil::make_shard_sim(mesh_, 4));
          }),
          "ms");
  std::vector<double> us;
  for (int round = 0; round < 300; ++round) {
    const auto t0 = clock::now();
    d->xq->exchange();
    for (std::size_t s = 0; s < d->shards.size(); ++s) {
      d->xq->fence(static_cast<int>(s)).wait();
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  out.set("shard.exchange_round_us", median(us), "us");
}

void airfoil_arms::report_end_to_end(metric_sink& out) const {
  for (std::size_t a = 0; a < arms().size(); ++a) {
    const trial_times& t = stats_[a].ms_per_iter;
    // seq is reported with the layers: single-core speed on the
    // reference host drifts in states that outlast a run (README).
    if (a != 0) {
      out.set(std::string("iter_ms.") + arms()[a].label, t.median(), "ms");
    }
    if (t.count() != 0) {
      const auto& v = t.all();
      std::fprintf(stderr,
                   "perfbench: %-12s %3zu trials (%zu disturbed), ms/iter min "
                   "%.4f median %.4f max %.4f, settle iterations median %.0f "
                   "max %.0f\n",
                   arms()[a].backend, t.count(), t.disturbed(),
                   *std::min_element(v.begin(), v.end()), t.median(),
                   *std::max_element(v.begin(), v.end()),
                   median(stats_[a].settle_iters),
                   *std::max_element(stats_[a].settle_iters.begin(),
                                     stats_[a].settle_iters.end()));
    }
  }
}

void airfoil_arms::report_layers(metric_sink& out) const {
  out.set("airfoil.mesh_gen_ms", setup_ms_.at("mesh_gen"), "ms");
  out.set("airfoil.make_sim_ms", setup_ms_.at("make_sim"), "ms");
  out.set("op2.init_ms", setup_ms_.at("op2_init"), "ms");
  out.set("iter_ms.seq", stats_[0].ms_per_iter.median(), "ms");

  std::vector<double> overhead;
  double timed = 0.0;
  double disturbed = 0.0;
  for (std::size_t a = 0; a < arms().size(); ++a) {
    const arm& am = arms()[a];
    const arm_stats& st = stats_[a];
    const std::string b = am.label;
    if (uses_pool(am)) {
      const double n = std::max(1.0, st.sched_iters);
      out.set("hpxlite.tasks_per_iter." + b, st.tasks / n, "count");
      out.set("hpxlite.steals_per_iter." + b, st.steals / n, "count");
      out.set("hpxlite.helped_per_iter." + b, st.helped / n, "count");
    }
    double busy = 0.0;
    for (const char* loop : kLoops) {
      const auto it = st.loop_s.find(loop);
      const double s = it == st.loop_s.end() ? 0.0 : it->second;
      busy += s;
      out.set("op2.loop_ms_per_iter." + metric_loop_name(loop) + "." + b,
              s * 1e3 / std::max(1.0, st.profiled_iters), "ms");
    }
    out.set("op2.loop_busy_over_wall." + b,
            st.profiled_wall_s > 0.0 ? busy / st.profiled_wall_s : 0.0,
            "ratio");
    out.set("op2.tuner_converged_loops." + b, st.tuner_converged, "count");
    out.set("op2.tuner_settle_iters." + b, median(st.settle_iters), "count");
    if (st.ms_per_iter.count() != 0 && st.traced_ms_per_iter.count() != 0) {
      overhead.push_back(st.traced_ms_per_iter.median() /
                             st.ms_per_iter.median() -
                         1.0);
    }
    timed += static_cast<double>(st.ms_per_iter.count() +
                                 st.traced_ms_per_iter.count());
    disturbed += static_cast<double>(st.ms_per_iter.disturbed() +
                                     st.traced_ms_per_iter.disturbed());
  }
  out.set("trace.overhead_pct", median(overhead) * 100.0, "%");
  out.set("host.disturbed_trial_pct", 100.0 * disturbed / std::max(1.0, timed),
          "%");

  const arm_stats& sh = stats_.back();
  const double rounds_per_iter = 2.0;  // two halo exchanges per iteration
  const double per_shard_iters =
      std::max(1.0, sh.shard_rounds / rounds_per_iter);
  out.set("shard.exchange_ms_per_iter", sh.exchange_s * 1e3 / per_shard_iters,
          "ms");
  out.set("shard.overlap_ms_per_iter", sh.overlap_s * 1e3 / per_shard_iters,
          "ms");
  out.set("shard.blocked_ms_per_iter", sh.blocked_s * 1e3 / per_shard_iters,
          "ms");
  double lo = 0.0;
  double hi = 0.0;
  if (!sh.blocked_per_shard.empty()) {
    lo = *std::min_element(sh.blocked_per_shard.begin(),
                           sh.blocked_per_shard.end());
    hi = *std::max_element(sh.blocked_per_shard.begin(),
                           sh.blocked_per_shard.end());
  }
  out.set("shard.blocked_max_over_min", hi / std::max(lo, 1e-6), "ratio");
  out.set("shard.halo_cells", sh.halo_cells, "count");
}

}  // namespace perfbench
