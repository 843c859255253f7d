#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench::trace {

namespace {

struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::string key;
  clock::time_point start{};
  clock::time_point stop{};
  std::size_t tid = 0;
};

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
std::vector<span> g_spans;  // guarded by g_mutex; index = id - 1

std::size_t thread_tag() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
}

double us_since_start(clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - process_start).count();
}

void write_escaped(std::FILE* f, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      std::fputc('\\', f);
    }
    std::fputc(ch, f);
  }
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t begin(const std::string& name, std::uint64_t parent,
                    const std::string& key) {
  if (!enabled()) {
    return 0;
  }
  const auto now = clock::now();
  std::lock_guard<std::mutex> lock(g_mutex);
  span s;
  s.id = g_spans.size() + 1;
  s.parent = parent;
  s.name = name;
  s.key = key;
  s.start = now;
  s.stop = now;
  s.tid = thread_tag();
  g_spans.push_back(std::move(s));
  return g_spans.back().id;
}

void end(std::uint64_t id) {
  if (id == 0) {
    return;
  }
  const auto now = clock::now();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[id - 1].stop = now;
}

std::uint64_t record(const std::string& name, std::uint64_t parent,
                     clock::time_point start, clock::time_point stop,
                     const std::string& key) {
  if (!enabled()) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  span s;
  s.id = g_spans.size() + 1;
  s.parent = parent;
  s.name = name;
  s.key = key;
  s.start = start;
  s.stop = stop;
  s.tid = thread_tag();
  g_spans.push_back(std::move(s));
  return g_spans.back().id;
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans.size();
}

bool write(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mutex);

  // Self time: the span's interval minus the union of its children's
  // intervals (clipped to the span).
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const auto& s : g_spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(us_since_start(s.start),
                                      us_since_start(s.stop));
    }
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const auto& s = g_spans[i];
    const double t0 = us_since_start(s.start);
    const double t1 = us_since_start(s.stop);
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, t0);
        hi = std::min(hi, t1);
        if (hi <= lo) {
          continue;
        }
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) {
            covered += cur_hi - cur_lo;
          }
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) {
        covered += cur_hi - cur_lo;
      }
    }
    std::fputs("{\"name\": \"", f);
    write_escaped(f, s.name);
    std::fprintf(f,
                 "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, "
                 "\"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"self_us\": %.3f, \"key\": \"",
                 s.tid, t0, t1 - t0, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 (t1 - t0) - covered);
    write_escaped(f, s.key);
    std::fputs(i + 1 < g_spans.size() ? "\"}},\n" : "\"}}\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
