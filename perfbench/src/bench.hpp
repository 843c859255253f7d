// Shared pieces of the perfbench driver: the clock, order statistics,
// the metric sink, the run's operation/failure ledger and the workload
// definitions.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using clock = std::chrono::steady_clock;

/// Set on entry to main(); setup_s is measured from here.
extern clock::time_point process_start;

inline double seconds_since(clock::time_point t0) {
  return std::chrono::duration<double>(clock::now() - t0).count();
}

/// Median of `v` (the mean of the two middle values for even sizes);
/// 0 for an empty vector.
double median(std::vector<double> v);

/// Nearest-rank percentile, p in [0, 1]; 0 for an empty vector.
double percentile(std::vector<double> v, double p);

/// CPU time the hypervisor has taken from this VM's vCPUs so far (the
/// steal column of /proc/stat), in seconds; 0 where it is unavailable.
double steal_seconds();

/// Timings of repeated trials.  A trial during which the hypervisor
/// took more than 1% of the VM's CPU time is kept apart as disturbed:
/// on a shared host such steal bursts stall every thread of the run and
/// are no property of the program.
class trial_times {
 public:
  /// Records one trial of `wall_s` seconds reporting `value`;
  /// `steal_s` is the steal time that accrued during it.
  void add(double value, double wall_s, double steal_s);
  /// Median of the undisturbed trials, or of all of them when fewer
  /// than 5 are undisturbed; 0 when there are none.
  double median() const;
  std::size_t count() const { return all_.size(); }
  std::size_t disturbed() const { return all_.size() - clean_.size(); }
  const std::vector<double>& all() const { return all_; }

  /// True when `steal_s` of steal during `wall_s` seconds exceeds 1% of
  /// the VM's CPU time over that interval.
  static bool disturbed_by(double steal_s, double wall_s);

 private:
  std::vector<double> all_;
  std::vector<double> clean_;
};

/// Metrics of one run, by name, each with its unit.
class metric_sink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// {"name": {"value": v, "unit": "u"}, ...}; non-finite values are
  /// written as -1 so the line stays valid JSON.
  std::string to_json() const;

 private:
  struct entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, entry> values_;
};

/// Operations attempted and failed, and every correctness violation.
struct ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;

  /// Records one operation; `ok` false counts it as failed.
  void op(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
    }
  }
  /// Records a wrong output: the run reports correct=false and exits
  /// non-zero.
  void mismatch(std::string what);
  bool correct() const { return mismatches.empty(); }
};

/// One benchmark workload.
struct workload {
  std::string name;
  /// Airfoil mesh of the backend arms.
  int imax = 0;
  int jmax = 0;
  /// Iterations per timed run_with_backend call.
  int trial_iters = 0;
  /// Share of --seconds given to the backend arms; the rest drives the
  /// job service, open loop or closed loop.
  double arms_share = 0.0;
  bool open_loop = false;
};

/// The workloads, in BENCHMARK.json order.
const std::vector<workload>& workloads();

/// Inputs derived from --seed: the wall bump and the angle of attack of
/// the Airfoil runs, and the seed of the job arrival process.
struct seeded_inputs {
  double bump_height = 0.08;
  double alpha_deg = 3.0;
  std::uint64_t arrival_seed = 0;
};
seeded_inputs make_inputs(std::uint64_t seed);

}  // namespace perfbench
