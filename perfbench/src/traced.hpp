// The traced run: one worker calls each layer's public functions in turn,
// on the same inputs as the batch, with a span around every call.
//
// Spans are the benchmark's own (kept in memory, written out at exit);
// the library's counters come from an obs::TraceSession report installed
// for the whole pass.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int job = 0;      ///< manifest index; every span of a job shares it
  int parent = -1;  ///< index of the enclosing span, -1 for a job span
  double start = 0.0, end = 0.0;  ///< seconds since the pass started
};

struct TracedPass {
  std::vector<SpanRecord> spans;
  /// Library counters of the pass (espresso.*, embed.*, constraints.*, ...).
  std::map<std::string, long> counters;
  /// Duration of every Journal::append, seconds.
  std::vector<double> journal_appends;
  std::vector<long> areas;  ///< per job, manifest order
  int verify_failures = 0;
  double seconds = 0.0;     ///< wall time of the pass

  /// Self time (duration minus child spans) summed per span name.
  std::map<std::string, double> self_seconds() const;
  /// Writes spans (with self times) and counters as JSON.
  void write_json(const std::string& path, const std::string& workload,
                  uint64_t seed) const;
};

/// Runs every job of `w` through the layers on the calling thread,
/// appending its journal records to `journal_path`.
TracedPass run_traced_pass(const Workload& w, const std::string& journal_path);

}  // namespace perfbench
