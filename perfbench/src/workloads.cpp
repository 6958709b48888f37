#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "bench_data/benchmarks.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using nova::bench_data::BenchmarkInfo;

// small_dup: jobs per batch and how many of them repeat an earlier job.
// The share is fixed so every seed carries the same amount of duplicate
// work.
constexpr int kSmallDupJobs = 3000;
constexpr int kSmallDupRepeats = kSmallDupJobs / 2;

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::vector<BenchmarkInfo> paper_machines() {
  std::vector<BenchmarkInfo> all = nova::bench_data::table1_benchmarks();
  for (const BenchmarkInfo& b : nova::bench_data::table5_extras())
    all.push_back(b);
  return all;
}

int min_bits(int states) {
  int k = 1;
  while ((1 << k) < states) ++k;
  return k;
}

std::string fresh_name(SplitMix& rng, std::set<std::string>& used) {
  static const char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (;;) {
    std::string name = "q";
    for (int i = 0; i < 6; ++i) name += kAlphabet[rng.below(36)];
    if (used.insert(name).second) return name;
  }
}

/// Accumulates KISS2 files and manifest lines for one workload.
class Writer {
 public:
  explicit Writer(Workload& w) : w_(w) {
    fs::create_directories(w_.dir + "/kiss");
  }
  /// Writes `m` as <dir>/kiss/<stem>.kiss and returns the path.
  std::string add_machine(const std::string& stem, Machine m) {
    std::string path = w_.dir + "/kiss/" + stem + ".kiss";
    write_text(path, kiss_text(m));
    w_.machines[path] = std::move(m);
    return path;
  }
  void add_job(const std::string& path, const char* alg, int nbits) {
    manifest_ += path;
    manifest_ += " alg=";
    manifest_ += alg;
    if (nbits > 0) manifest_ += " nbits=" + std::to_string(nbits);
    manifest_ += '\n';
  }
  void finish() {
    w_.manifest_path = w_.dir + "/manifest.txt";
    write_text(w_.manifest_path, manifest_);
    w_.jobs = nova::serve::parse_manifest_file(w_.manifest_path,
                                               nova::driver::Algorithm::kIHybrid);
  }

 private:
  Workload& w_;
  std::string manifest_;
};

void paper_suite(Workload& w, SplitMix& rng) {
  Writer out(w);
  for (const BenchmarkInfo& b : paper_machines()) {
    Machine m = machine_from_fsm(nova::bench_data::load_benchmark(b.name));
    out.add_job(out.add_machine(b.name, rename_states(m, rng)), "ihybrid", 0);
  }
  out.finish();
  w.unique_jobs = static_cast<int>(w.jobs.size());
  w.prefix_jobs = 8;
}

void mid_sweep(Workload& w, SplitMix& rng) {
  Writer out(w);
  for (const BenchmarkInfo& b : nova::bench_data::table1_benchmarks()) {
    if (b.states < 15 || b.states > 48) continue;
    Machine m = machine_from_fsm(nova::bench_data::load_benchmark(b.name));
    std::string path = out.add_machine(b.name, rename_states(m, rng));
    const int lo = min_bits(b.states);
    for (const char* alg : {"ihybrid", "igreedy", "iohybrid"}) {
      for (int nbits = lo; nbits <= lo + 2; ++nbits)
        out.add_job(path, alg, nbits);
    }
  }
  out.finish();
  w.unique_jobs = static_cast<int>(w.jobs.size());
  w.prefix_jobs = 9;
  w.sample_stride = 3;
}

void small_dup(Workload& w, SplitMix& rng) {
  Writer out(w);
  // Unique machines: the paper machines stated verbatim (all small), the
  // rest structured machines of 4-16 states skewed towards the small end.
  // The shapes come from a fixed stream, so every seed has the same mix of
  // sizes; the seed picks the machines' structure, names and order.
  struct Shape {
    std::string paper;  ///< paper machine name, or empty
    int states = 0, inputs = 0, outputs = 0, terms = 0;
  };
  std::vector<Shape> shapes;
  for (const BenchmarkInfo& b : paper_machines()) {
    if (!b.synthetic) shapes.push_back({b.name});
  }
  SplitMix fixed(0x5eed);
  const int uniques = kSmallDupJobs - kSmallDupRepeats;
  while (static_cast<int>(shapes.size()) < uniques) {
    const int states = std::min(fixed.range(4, 16), fixed.range(4, 16));
    shapes.push_back({"", states, fixed.range(1, 2), fixed.range(1, 4),
                      states * fixed.range(1, 3)});
  }
  rng.shuffle(shapes);

  // Exactly kSmallDupRepeats repeat slots, placed so that every repeat has
  // an earlier unique job not yet repeated: each unique runs twice.
  std::vector<char> repeat(kSmallDupJobs, 0);
  for (int i = 0; i < kSmallDupRepeats; ++i) repeat[i] = 1;
  rng.shuffle(repeat);
  for (int i = 0, unrepeated = 0; i < kSmallDupJobs; ++i) {
    if (repeat[i] && unrepeated == 0) {
      int j = i + 1;
      while (repeat[j]) ++j;  // a later unique slot exists: counts match
      std::swap(repeat[i], repeat[j]);
    }
    unrepeated += repeat[i] ? -1 : 1;
  }

  std::vector<const Machine*> pending;  // unique jobs not yet repeated
  int next_unique = 0;
  for (int i = 0; i < kSmallDupJobs; ++i) {
    Machine m;
    if (repeat[i]) {
      const int k = rng.below(static_cast<int>(pending.size()));
      m = disguise(*pending[k], rng);
      pending.erase(pending.begin() + k);
    } else {
      const Shape& s = shapes[next_unique];
      const nova::fsm::Fsm f =
          s.paper.empty()
              ? nova::bench_data::generate_structured_fsm(
                    "g" + std::to_string(next_unique), s.inputs, s.outputs,
                    s.states, s.terms, rng.next())
              : nova::bench_data::load_benchmark(s.paper);
      m = rename_states(machine_from_fsm(f), rng);
      ++next_unique;
    }
    char stem[32];
    std::snprintf(stem, sizeof(stem), "m%04d", i);
    std::string path = out.add_machine(stem, std::move(m));
    if (!repeat[i]) pending.push_back(&w.machines.at(path));
    out.add_job(path, "ihybrid", 0);
  }
  out.finish();
  w.unique_jobs = uniques;
  w.repeat_jobs = kSmallDupRepeats;
  w.prefix_jobs = 200;
}

}  // namespace

Machine machine_from_fsm(const nova::fsm::Fsm& f) {
  Machine m;
  m.inputs = f.num_inputs();
  m.outputs = f.num_outputs();
  m.reset = f.reset_state();
  m.states = f.state_names();
  for (const nova::fsm::Transition& t : f.transitions())
    m.rows.push_back({t.input, t.present, t.next, t.output});
  return m;
}

std::string kiss_text(const Machine& m) {
  auto state = [&](int s) { return s < 0 ? std::string("*") : m.states[s]; };
  std::string text = ".i " + std::to_string(m.inputs) + "\n.o " +
                     std::to_string(m.outputs) + "\n.p " +
                     std::to_string(m.rows.size()) + "\n.s " +
                     std::to_string(m.states.size()) + "\n";
  if (!m.states.empty()) text += ".r " + m.states[m.reset] + "\n";
  for (const Machine::Row& r : m.rows)
    text += r.in + ' ' + state(r.ps) + ' ' + state(r.ns) + ' ' + r.out + '\n';
  text += ".e\n";
  return text;
}

Machine rename_states(const Machine& m, SplitMix& rng) {
  Machine out = m;
  std::set<std::string> used;
  for (std::string& s : out.states) s = fresh_name(rng, used);
  return out;
}

Machine disguise(const Machine& m, SplitMix& rng) {
  Machine out = rename_states(m, rng);
  rng.shuffle(out.rows);
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper_suite", "mid_sweep",
                                                 "small_dup"};
  return names;
}

Workload setup_workload(const std::string& name, uint64_t seed,
                        const std::string& dir) {
  Workload w;
  w.name = name;
  w.dir = dir;
  // Each workload draws from its own stream of the seed.
  uint64_t tag = 0;
  for (char c : name) tag = tag * 131 + static_cast<unsigned char>(c);
  SplitMix rng(seed ^ tag);
  if (name == "paper_suite") {
    paper_suite(w, rng);
  } else if (name == "mid_sweep") {
    mid_sweep(w, rng);
  } else if (name == "small_dup") {
    small_dup(w, rng);
  } else {
    throw std::runtime_error("unknown workload " + name);
  }
  return w;
}

}  // namespace perfbench
