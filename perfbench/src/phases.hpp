// The three phases of a perfbench run: interleaved Airfoil backend
// arms, the open-loop job service, and (traced runs only) the
// per-layer probes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "airfoil/job.hpp"
#include "airfoil/solver.hpp"
#include "bench.hpp"
#include "op2/op2.hpp"
#include "reference.hpp"

namespace perfbench {

/// One backend arm: metric label, registry name, worker threads.
struct arm {
  const char* label;
  const char* backend;
  unsigned threads;
};

/// seq at 1 thread; forkjoin, hpx_foreach, hpx_async, hpx_dataflow at 4
/// threads; hpx_shard at 4 threads and 4 shards.
const std::vector<arm>& arms();
op2::config arm_config(const arm& a);

/// Runs one set-up step inside a span (when tracing); returns its ms.
double timed_setup_ms(const std::string& name, std::uint64_t parent,
                      const std::function<void()>& step);

/// Interleaved warm trials of every backend over one Airfoil mesh.
class airfoil_arms {
 public:
  airfoil_arms(const workload& w, const seeded_inputs& in);

  /// Mesh, sim, and per backend op2::init plus the first (capturing)
  /// iteration.
  void setup(std::uint64_t span);
  /// The serial reference for trial_iters iterations.
  void compute_reference();
  /// Untimed rounds for `seconds` (at least one).
  void warm(double seconds, ledger& led, std::uint64_t span);
  /// Timed rounds for `seconds` (at least one, always whole rounds).
  /// When `traced`, every other round runs with op2 profiling on and
  /// feeds the per-layer loop, scheduler and shard figures.
  void measure(double seconds, bool traced, ledger& led, std::uint64_t span);
  /// Free-stream preservation on a flat wall at zero incidence.
  void free_stream_check(ledger& led, std::uint64_t span);
  /// One halo-exchange round timed alone, on this mesh at 4 shards.
  void exchange_probe(metric_sink& out, std::uint64_t span);

  void report_end_to_end(metric_sink& out) const;
  void report_layers(metric_sink& out) const;

 private:
  struct arm_stats {
    trial_times ms_per_iter;         // untraced trials
    trial_times traced_ms_per_iter;  // profiled trials
    double sched_iters = 0.0;
    double tasks = 0.0;
    double steals = 0.0;
    double helped = 0.0;
    double profiled_iters = 0.0;
    double profiled_wall_s = 0.0;
    std::map<std::string, double> loop_s;  // loop name -> seconds
    int tuner_converged = 0;
    std::vector<double> settle_iters;  // untimed iterations per trial
    // Shard exchange totals over every shard of every profiled trial.
    double exchange_s = 0.0;
    double overlap_s = 0.0;
    double blocked_s = 0.0;
    double shard_rounds = 0.0;
    std::vector<double> blocked_per_shard;
    double halo_cells = 0.0;
  };

  void trial(std::size_t a, bool timed, bool profiled, ledger& led,
             std::uint64_t span);
  void check(std::size_t a, const airfoil::run_result& r, ledger& led);

  workload w_;
  seeded_inputs in_;
  op2::mesh mesh_;
  std::unique_ptr<airfoil::sim> sim_;
  reference_result ref_;
  std::vector<double> seq_q_;
  std::vector<arm_stats> stats_;
  std::size_t round_ = 0;
  std::map<std::string, double> setup_ms_;
};

/// Small airfoil::run_job jobs from three tenants of unequal weight,
/// through one op2::service::job_service.
class service_load {
 public:
  explicit service_load(const seeded_inputs& in);
  ~service_load();
  service_load(const service_load&) = delete;
  service_load& operator=(const service_load&) = delete;

  /// Service and tenant construction, and each tenant's first job.
  void setup(std::uint64_t span);
  /// Per-tenant serial references.
  void compute_reference();
  /// Drives the service open or closed loop for `seconds` after an
  /// untimed warm-up; every job is one operation and each completed
  /// job's q is checked against its reference.
  void measure(double seconds, bool open_loop, bool traced, ledger& led,
               std::uint64_t span);

  void report_end_to_end(metric_sink& out) const;
  void report_layers(metric_sink& out) const;

 private:
  struct impl;
  std::unique_ptr<impl> impl_;
};

/// Stand-alone per-layer probes: hpxlite primitives, op2 launch path,
/// Airfoil kernels on the 400x200 mesh, memory copy bandwidth.
void run_probes(const seeded_inputs& in, metric_sink& out, ledger& led,
                std::uint64_t span);

}  // namespace perfbench
