// Seeded input generation for the three benchmark workloads.
//
// Every workload is written to disk as KISS2 files plus a serve manifest;
// the program under test only ever sees those files. The benchmark keeps
// its own copy of each table (Machine) so the output check never has to
// trust the program's parser or encoder.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fsm/fsm.hpp"
#include "serve/serve.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own generator, so its inputs do not change
/// when the library's RNG does.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : s_(seed) {}
  uint64_t next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int below(int n) {
    return static_cast<int>(next() % static_cast<uint64_t>(n));
  }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) { return lo + below(hi - lo + 1); }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(static_cast<int>(i))]);
  }

 private:
  uint64_t s_;
};

/// A KISS2 state table as the benchmark writes it. Row state indices refer
/// to `states`; -1 is KISS2 '*'.
struct Machine {
  struct Row {
    std::string in;
    int ps = -1;
    int ns = -1;
    std::string out;
  };
  int inputs = 0;
  int outputs = 0;
  int reset = 0;
  std::vector<std::string> states;
  std::vector<Row> rows;
};

Machine machine_from_fsm(const nova::fsm::Fsm& f);
/// KISS2 text with .i/.o/.p/.s/.r headers, one row per line.
std::string kiss_text(const Machine& m);
/// The same table under fresh random state names. Row order is kept, so
/// the program numbers the states exactly as before.
Machine rename_states(const Machine& m, SplitMix& rng);
/// Renamed states and shuffled rows: an isomorphic copy that a cache has
/// to canonicalize, because no byte of the file matches the original.
Machine disguise(const Machine& m, SplitMix& rng);

struct Workload {
  std::string name;
  std::string dir;
  std::string manifest_path;
  std::vector<nova::serve::JobSpec> jobs;
  /// The table behind every job, keyed by the job's spec (its file path).
  std::map<std::string, Machine> machines;
  int unique_jobs = 0;
  int repeat_jobs = 0;
  /// Leading jobs rerun on one worker to prove thread-count independence.
  int prefix_jobs = 0;
  /// Traced run: the untraced comparison batch takes every k-th job.
  int sample_stride = 1;
};

/// paper_suite, mid_sweep, small_dup.
const std::vector<std::string>& workload_names();

/// Writes `name`'s KISS2 files and manifest for `seed` under `dir`,
/// overwriting earlier copies, and parses the manifest back with the serve
/// layer. Throws std::runtime_error on an unknown name or an I/O error.
Workload setup_workload(const std::string& name, uint64_t seed,
                        const std::string& dir);

}  // namespace perfbench
