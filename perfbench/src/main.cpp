// perfbench — the Airfoil and job-service benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// One process: a single generator/driver thread plus the runtime's
// 4-worker pool (or 4-thread fork-join team) and the service's runner
// threads.  Each run sets up cold (timed from process start as
// setup_s), warms the host with untimed rounds, then measures the
// workload's Airfoil backend arms and its open-loop job service, and
// checks every output against an independent serial Airfoil and the
// free-stream property.  The last line of stdout is one JSON object:
// the end-to-end metrics (--trace 0) or the per-layer metrics and the
// span file (--trace 1).  Exit status 0 only when every output was
// correct.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <thread>

#include "airfoil/constants.hpp"
#include "bench.hpp"
#include "phases.hpp"
#include "trace.hpp"

namespace perfbench {

// Initialised before main() runs, as close to process start as the
// program can observe.
clock::time_point process_start = clock::now();

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double steal_seconds() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0.0;
  }
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return n == 8 ? static_cast<double>(v[7]) * tick_s : 0.0;
}

bool trial_times::disturbed_by(double steal_s, double wall_s) {
  return steal_s >
         0.01 * wall_s * std::max(1u, std::thread::hardware_concurrency());
}

void trial_times::add(double value, double wall_s, double steal_s) {
  all_.push_back(value);
  if (!disturbed_by(steal_s, wall_s)) {
    clean_.push_back(value);
  }
}

double trial_times::median() const {
  return perfbench::median(clean_.size() >= 5 ? clean_ : all_);
}

std::string metric_sink::to_json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, e] : values_) {
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(e.value) ? e.value : -1.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
    first = false;
  }
  return out + "}";
}

void ledger::mismatch(std::string what) {
  std::fprintf(stderr, "perfbench: MISMATCH %s\n", what.c_str());
  if (mismatches.size() < 32) {
    mismatches.push_back(std::move(what));
  }
}

const std::vector<workload>& workloads() {
  static const std::vector<workload> all = {
      {"airfoil-paper", 400, 200, 20, 0.7, false},
      {"airfoil-launch", 60, 30, 200, 0.7, false},
      {"service-open", 30, 15, 200, 0.2, true},
  };
  return all;
}

seeded_inputs make_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  seeded_inputs in;
  in.bump_height = 0.06 + 0.04 * unit(rng);
  in.alpha_deg = 2.5 + unit(rng);
  in.arrival_seed = rng();
  return in;
}

}  // namespace perfbench

namespace {

// Untimed rounds before measuring: the host runs the first seconds of
// work after an idle spell 2-3x slower.
constexpr double kWarmSeconds = 1.5;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;

  std::string workload_name;
  std::string trace_out;
  long long seed = -1;
  double seconds = 0.0;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      traced = std::atoi(value);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& all = workloads();
  const auto wl = std::find_if(all.begin(), all.end(), [&](const workload& w) {
    return w.name == workload_name;
  });
  if (wl == all.end()) {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }
  if (seed < 0 || seconds <= 0.0 || (traced != 0 && traced != 1)) {
    return usage("--seed, --seconds and --trace are required");
  }

  const seeded_inputs in = make_inputs(static_cast<std::uint64_t>(seed));
  airfoil::constants().alpha = in.alpha_deg * std::numbers::pi / 180.0;
  airfoil::constants().finalise();
  trace::enable(traced == 1);

  const double steal_at_start = steal_seconds();
  ledger led;
  metric_sink out;
  airfoil_arms arms_phase(*wl, in);
  service_load service_phase(in);
  {
    trace::scope root("workload", 0, wl->name);
    {
      trace::scope setup("setup", root.id());
      arms_phase.setup(setup.id());
      service_phase.setup(setup.id());
    }
    const double setup_s = seconds_since(process_start);

    arms_phase.compute_reference();
    service_phase.compute_reference();
    arms_phase.warm(kWarmSeconds, led, root.id());
    arms_phase.measure(seconds * wl->arms_share, traced == 1, led, root.id());
    service_phase.measure(seconds * (1.0 - wl->arms_share), wl->open_loop,
                          traced == 1, led, root.id());
    if (traced == 1) {
      arms_phase.exchange_probe(out, root.id());
      run_probes(in, out, led, root.id());
    }
    arms_phase.free_stream_check(led, root.id());
    op2::finalize();

    if (traced == 1) {
      arms_phase.report_layers(out);
      service_phase.report_layers(out);
    } else {
      arms_phase.report_end_to_end(out);
      service_phase.report_end_to_end(out);
      out.set("setup_s", setup_s, "s");
      out.set("peak_rss_mib", peak_rss_mib(), "MiB");
    }
  }
  const double steal_pct =
      100.0 * (steal_seconds() - steal_at_start) /
      (seconds_since(process_start) *
       std::max(1u, std::thread::hardware_concurrency()));
  std::fprintf(stderr, "perfbench: hypervisor steal %.2f%% of the run's CPU time\n",
               steal_pct);
  if (traced == 1) {
    out.set("host.steal_pct", steal_pct, "%");
    out.set("trace.spans", static_cast<double>(trace::span_count()), "count");
    if (!trace_out.empty() && !trace::write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              led.correct() ? "true" : "false",
              static_cast<unsigned long long>(led.attempted),
              static_cast<unsigned long long>(led.failed),
              out.to_json().c_str());
  std::fflush(stdout);
  return led.correct() ? 0 : 1;
}
