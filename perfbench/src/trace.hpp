// In-memory span recorder for the traced run.  Spans are recorded from
// the benchmark's own code around its calls into each layer (nothing is
// traced inside the program) and written out at the end as Chrome
// trace-event JSON, each span carrying its id, parent, key and self
// time (duration minus the part covered by its child spans).
//
// Off by default: begin() then returns 0 and end()/record() ignore it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench::trace {

void enable(bool on);
bool enabled();

/// Opens a span now; returns its id (0 when tracing is off).
std::uint64_t begin(const std::string& name, std::uint64_t parent,
                    const std::string& key = {});
/// Closes span `id` now.
void end(std::uint64_t id);
/// Records a finished span with explicit bounds (a service job, from
/// its submission on the generator thread to its completion on a
/// runner thread).
std::uint64_t record(const std::string& name, std::uint64_t parent,
                     clock::time_point start, clock::time_point stop,
                     const std::string& key = {});

std::size_t span_count();

/// Writes every recorded span as trace-event JSON; returns false when
/// the file cannot be written.
bool write(const std::string& path);

/// RAII span.
class scope {
 public:
  scope(const std::string& name, std::uint64_t parent,
        const std::string& key = {})
      : id_(begin(name, parent, key)) {}
  ~scope() { end(id_); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

}  // namespace perfbench::trace
