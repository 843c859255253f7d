// Load on op2::service: small airfoil::run_job jobs from three tenants
// of unequal weight, submitted by one generator thread either open loop
// (Poisson arrivals at a fixed rate, each submitted at its due time
// whatever the backlog) or closed loop (one client, next job when the
// previous completes).  A job's latency runs from its due time to the
// end of its body on a runner thread.  The generator checks every
// finished job's q against the serial reference.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <mutex>
#include <numbers>
#include <random>
#include <thread>
#include <utility>

#include "airfoil/mesh.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

// Jobs per second.  This mix saturates at ~350 jobs/s on the 4-vCPU
// reference host (README); at 150 every queue stays short and nothing
// is shed.
constexpr double kRate = 150.0;
constexpr int kJobIters = 10;
constexpr unsigned kRunners = 4;
constexpr std::size_t kQuota = 2;
constexpr std::size_t kQueueDepth = 256;
// Jobs per tenant run before timing, after the pool is re-initialised,
// then untimed load of the measured kind.
constexpr int kWarmJobs = 2;
constexpr double kServiceWarmSeconds = 1.0;

struct tenant_spec {
  const char* name;
  double weight;
  int imax;
  int jmax;
};

constexpr std::array<tenant_spec, 3> kTenants = {{
    {"gold", 4.0, 30, 15},
    {"silver", 2.0, 24, 12},
    {"bronze", 1.0, 36, 18},
}};

constexpr double kQTolerance = 1e-11;

struct job_record {
  std::size_t tenant = 0;
  clock::time_point due{};
  clock::time_point submitted{};
  clock::time_point done{};
};

// With fewer undisturbed jobs than this the job metrics are taken over
// all jobs (p99 then keeps 10 samples beyond it).
constexpr std::size_t kMinCleanJobs = 1000;

/// Steal-time samples in time order: the steal that accrued between two
/// instants is read off the samples that bracket them.
class steal_log {
 public:
  void sample() { samples_.emplace_back(clock::now(), steal_seconds()); }

  double between(clock::time_point from, clock::time_point to) const {
    const auto by_time = [](const auto& s, clock::time_point t) {
      return s.first < t;
    };
    auto lo = std::lower_bound(samples_.begin(), samples_.end(), from, by_time);
    if (lo != samples_.begin() && (lo == samples_.end() || lo->first > from)) {
      --lo;
    }
    auto hi = std::lower_bound(samples_.begin(), samples_.end(), to, by_time);
    if (hi == samples_.end()) {
      --hi;
    }
    return hi->second - lo->second;
  }

 private:
  std::vector<std::pair<clock::time_point, double>> samples_;
};

}  // namespace

struct service_load::impl {
  explicit impl(const seeded_inputs& in) : inputs(in) {}

  seeded_inputs inputs;
  std::array<std::unique_ptr<airfoil::job_workspace>, kTenants.size()> spaces;
  std::array<reference_result, kTenants.size()> refs;
  std::unique_ptr<op2::service::job_service> svc;  // after spaces: joined first

  std::mutex finished_mutex;
  std::vector<std::pair<std::size_t, std::vector<double>>> finished;

  std::vector<double> latency_ms;
  std::vector<double> clean_latency_ms;  // without steal-disturbed jobs
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  std::vector<double> run_ms;
  std::vector<double> queue_wait_ms;
  double peak_running = 0.0;
  double peak_queued = 0.0;

  /// The latencies the job metrics summarise: those of the jobs no steal
  /// burst disturbed between due time and completion, when there are
  /// enough of them.
  const std::vector<double>& latencies() const {
    return clean_latency_ms.size() >= kMinCleanJobs ? clean_latency_ms
                                                    : latency_ms;
  }

  airfoil::job_params params(std::size_t t) const {
    airfoil::job_params p;
    p.imax = kTenants[t].imax;
    p.jmax = kTenants[t].jmax;
    p.niter = kJobIters;
    p.keep_solution = true;
    return p;
  }

  op2::service::job_handle submit(std::size_t t, job_record* rec) {
    return svc->submit(
        kTenants[t].name,
        [this, t, rec, p = params(t)](const op2::service::job_context& ctx) {
          auto out = airfoil::run_job(p, *spaces[t], ctx.stop);
          if (rec != nullptr) {
            rec->done = clock::now();
          }
          std::lock_guard<std::mutex> lock(finished_mutex);
          finished.emplace_back(t, std::move(out.solution));
        });
  }

  void check_finished(ledger& led) {
    std::vector<std::pair<std::size_t, std::vector<double>>> batch;
    {
      std::lock_guard<std::mutex> lock(finished_mutex);
      batch.swap(finished);
    }
    for (const auto& [t, q] : batch) {
      const double d = max_rel_diff(q, refs[t].q);
      if (!(d <= kQTolerance)) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "service job of tenant %s: q differs from the serial "
                      "reference by %.3g",
                      kTenants[t].name, d);
        led.mismatch(buf);
      }
    }
  }

  // Submits jobs for `seconds`.  Open loop: Poisson arrivals at kRate,
  // each submitted at its due time whatever the backlog.  Closed loop:
  // one client submits the next job when the previous one completes,
  // so a job is due when it is submitted.  Tenants are drawn uniformly.
  // With `record` the latencies and service figures are kept.
  void drive(double seconds, bool open_loop, bool record, std::mt19937_64& rng,
             ledger& led, std::uint64_t span) {
    std::exponential_distribution<double> gap(kRate);
    std::uniform_int_distribution<std::size_t> pick(0, kTenants.size() - 1);
    std::deque<job_record> recs;  // stable addresses for the job bodies
    std::vector<op2::service::job_handle> handles;
    const auto t0 = clock::now();
    const auto stop = t0 + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(seconds));
    steal_log steal;
    steal.sample();
    double at = 0.0;
    for (;;) {
      job_record r;
      r.tenant = pick(rng);
      if (open_loop) {
        at += gap(rng);
        r.due = t0 + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(at));
        if (r.due >= stop) {
          break;
        }
        check_finished(led);
        std::this_thread::sleep_until(r.due);
      } else {
        r.due = clock::now();
        if (r.due >= stop) {
          break;
        }
      }
      steal.sample();
      r.submitted = clock::now();
      recs.push_back(r);
      handles.push_back(submit(r.tenant, &recs.back()));
      if (record) {
        late_ms.push_back(std::chrono::duration<double, std::milli>(
                              r.submitted - r.due)
                              .count());
        submit_us.push_back(std::chrono::duration<double, std::micro>(
                                clock::now() - r.submitted)
                                .count());
      }
      if (!open_loop) {
        handles.back().get();
        check_finished(led);
      }
    }

    std::vector<op2::service::job_result> results;
    for (const auto& h : handles) {
      results.push_back(h.get());
    }
    steal.sample();
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& res = results[i];
      const bool ok = res.status == op2::service::job_status::completed;
      led.op(ok);
      if (!ok) {
        std::fprintf(stderr, "perfbench: job %zu %s: %s\n", i,
                     op2::service::to_string(res.status), res.error.c_str());
        continue;
      }
      if (!record) {
        continue;
      }
      const auto& r = recs[i];
      const double ms =
          std::chrono::duration<double, std::milli>(r.done - r.due).count();
      latency_ms.push_back(ms);
      const double wall_s = std::chrono::duration<double>(r.done - r.due).count();
      if (!trial_times::disturbed_by(steal.between(r.due, r.done), wall_s)) {
        clean_latency_ms.push_back(ms);
      }
      run_ms.push_back(res.run_seconds * 1e3);
      queue_wait_ms.push_back(res.queue_wait_seconds * 1e3);
      trace::record("job", span, r.submitted, r.done,
                    "job-" + std::to_string(i) + "/" + kTenants[r.tenant].name);
    }
    check_finished(led);
  }

  void run_warm_jobs(ledger& led) {
    std::vector<op2::service::job_handle> hs;
    for (int j = 0; j < kWarmJobs; ++j) {
      for (std::size_t t = 0; t < kTenants.size(); ++t) {
        hs.push_back(submit(t, nullptr));
      }
    }
    for (auto& h : hs) {
      led.op(h.get().status == op2::service::job_status::completed);
    }
    check_finished(led);
  }
};

service_load::service_load(const seeded_inputs& in)
    : impl_(std::make_unique<impl>(in)) {}

service_load::~service_load() = default;

void service_load::setup(std::uint64_t span) {
  impl& s = *impl_;
  timed_setup_ms("op2::init", span, [] {
    op2::init(arm_config(arms()[2]));  // hpx_foreach, 4 threads
  });
  timed_setup_ms("job_service", span, [&] {
    op2::service::service_config cfg;
    cfg.workers = kRunners;
    cfg.default_queue_depth = kQueueDepth;
    s.svc = std::make_unique<op2::service::job_service>(cfg);
  });
  for (std::size_t t = 0; t < kTenants.size(); ++t) {
    timed_setup_ms("register_tenant", span, [&] {
      op2::service::tenant_options opts;
      opts.name = kTenants[t].name;
      opts.weight = kTenants[t].weight;
      opts.quota = kQuota;
      s.svc->register_tenant(opts);
      s.spaces[t] = std::make_unique<airfoil::job_workspace>();
    });
    timed_setup_ms("first_job", span, [&] { s.submit(t, nullptr).get(); });
  }
  std::lock_guard<std::mutex> lock(s.finished_mutex);
  s.finished.clear();
}

void service_load::compute_reference() {
  impl& s = *impl_;
  for (std::size_t t = 0; t < kTenants.size(); ++t) {
    airfoil::mesh_params mp;  // run_job's mesh: default geometry
    mp.imax = kTenants[t].imax;
    mp.jmax = kTenants[t].jmax;
    s.refs[t] = reference_airfoil(airfoil::generate_mesh(mp),
                                  s.inputs.alpha_deg * std::numbers::pi / 180.0,
                                  kJobIters);
  }
}

void service_load::measure(double seconds, bool open_loop, bool traced,
                           ledger& led, std::uint64_t span) {
  impl& s = *impl_;
  trace::scope phase("service", span, open_loop ? "open" : "closed");
  op2::profiling::enable(traced);
  op2::init(arm_config(arms()[2]));
  s.run_warm_jobs(led);
  std::mt19937_64 rng(s.inputs.arrival_seed);
  s.drive(kServiceWarmSeconds, open_loop, false, rng, led, phase.id());
  s.drive(seconds, open_loop, true, rng, led, phase.id());
  op2::profiling::enable(false);
  if (s.latency_ms.empty()) {
    led.mismatch("service: no timed job completed");
  }

  const auto st = s.svc->stats();
  s.peak_running = static_cast<double>(st.peak_running);
  for (const auto& [name, t] : st.tenants) {
    s.peak_queued = std::max(s.peak_queued, static_cast<double>(t.peak_queued));
  }
}

void service_load::report_end_to_end(metric_sink& out) const {
  std::fprintf(stderr, "perfbench: %zu jobs completed, %zu undisturbed\n",
               impl_->latency_ms.size(), impl_->clean_latency_ms.size());
  out.set("job_p50_ms", percentile(impl_->latencies(), 0.50), "ms");
  out.set("job_p90_ms", percentile(impl_->latencies(), 0.90), "ms");
}

void service_load::report_layers(metric_sink& out) const {
  const impl& s = *impl_;
  out.set("job_p99_ms", percentile(s.latencies(), 0.99), "ms");
  out.set("service.submit_us", median(s.submit_us), "us");
  out.set("service.run_ms_p50", percentile(s.run_ms, 0.50), "ms");
  out.set("service.queue_wait_ms_p50", percentile(s.queue_wait_ms, 0.50), "ms");
  out.set("service.queue_wait_ms_p99", percentile(s.queue_wait_ms, 0.99), "ms");
  out.set("service.peak_running", s.peak_running, "count");
  out.set("service.peak_queued", s.peak_queued, "count");
  out.set("service.generator_late_ms_p99", percentile(s.late_ms, 0.99), "ms");
  out.set("service.jobs_completed", static_cast<double>(s.latency_ms.size()),
          "count");
}

}  // namespace perfbench
