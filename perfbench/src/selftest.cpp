// Self-tests of the benchmark's own machinery: the output checker, the
// tail-percentile helper and the seeded generator.
//
//   perfbench_selftest [WORK_DIR]
//
// Exits 0 when every check passes.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bench_data/benchmarks.hpp"
#include "check.hpp"
#include "fsm/kiss_io.hpp"
#include "serve/serve.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_tail_percentile() {
  struct Case {
    int n, basis_points, rank, beyond;
  };
  for (const Case& c : {Case{35, 7100, 25, 10}, Case{126, 9200, 116, 10},
                        Case{3000, 9900, 2970, 30}, Case{5000, 9900, 4950, 50},
                        Case{10000, 9990, 9990, 10},
                        Case{100000, 9999, 99990, 10}, Case{5, 5000, 3, 2}}) {
    const TailPercentile tp = tail_percentile(c.n);
    expect(tp.basis_points == c.basis_points && tp.rank == c.rank &&
               tp.beyond == c.beyond,
           "tail percentile for n=" + std::to_string(c.n) + " is " +
               tp.label() + " (rank " + std::to_string(tp.rank) + ", " +
               std::to_string(tp.beyond) + " beyond)");
  }
  std::vector<double> v;
  for (int i = 35; i >= 1; --i) v.push_back(i);
  expect(percentile_value(v, tail_percentile(35)) == 25.0,
         "p71 of 1..35 is 25");
  expect(median({3, 1, 2, 10}) == 2.5, "median of an even sample");
}

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const auto at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

void test_checker(const std::string& dir) {
  SplitMix rng(11);
  const Machine m =
      rename_states(machine_from_fsm(nova::bench_data::load_benchmark("lion9")),
                    rng);
  fs::create_directories(dir);
  const std::string kiss = dir + "/lion9.kiss";
  std::ofstream(kiss) << kiss_text(m);
  std::string err;
  const auto jobs = nova::serve::parse_manifest(
      kiss + "\n", nova::driver::Algorithm::kIHybrid, &err);
  nova::serve::BatchOptions opts;
  const nova::serve::BatchResult res = nova::serve::run_batch(jobs, opts);
  const std::string good = res.jobs.at(0).output;
  expect(check_job_output(m, good).empty(), "a served output passes");

  CodeOutput o;
  expect(parse_code_output(good, &o, &err) && o.codes.size() == m.states.size(),
         "the output parses to one code per state");

  // Give the second state the first state's code.
  const std::string dup = replace_once(
      good, ".code " + o.codes[1].first + " " + o.codes[1].second,
      ".code " + o.codes[1].first + " " + o.codes[0].second);
  expect(!check_job_output(m, dup).empty(), "a duplicated code is caught");

  const std::string area = "area=" + std::to_string(o.area);
  const std::string bad_area =
      replace_once(good, area, "area=" + std::to_string(o.area + 1));
  expect(!check_job_output(m, bad_area).empty(), "a wrong area is caught");

  const std::string missing = replace_once(
      good, ".code " + o.codes[2].first + " " + o.codes[2].second + "\n", "");
  expect(!check_job_output(m, missing).empty(), "a missing code is caught");

  // A cover evaluated for one encoding must fail rows under another.
  std::vector<uint64_t> codes;
  for (const auto& [name, bits] : o.codes)
    codes.push_back(std::stoull(bits, nullptr, 2));
  const nova::fsm::Fsm f = nova::fsm::parse_kiss_string(kiss_text(m));
  nova::driver::Encoding enc;
  enc.nbits = o.nbits;
  enc.codes = codes;  // .code lines follow the parser's state numbering
  const auto ev = nova::driver::evaluate_encoding(f, enc);
  const auto cover = binary_cover(ev, m.inputs, o.nbits, m.outputs);
  std::vector<uint64_t> by_state(m.states.size());
  for (size_t s = 0; s < m.states.size(); ++s) {
    for (size_t k = 0; k < o.codes.size(); ++k) {
      if (o.codes[k].first == m.states[s]) by_state[s] = codes[k];
    }
  }
  expect(check_cover(m, by_state, o.nbits, cover).empty(),
         "the cover implements every row");
  std::swap(by_state[0], by_state[1]);
  expect(!check_cover(m, by_state, o.nbits, cover).empty(),
         "a cover for other codes is caught");
  std::swap(by_state[0], by_state[1]);
  std::vector<BinaryCube> dropped(cover.begin() + 1, cover.end());
  expect(!check_cover(m, by_state, o.nbits, dropped).empty(),
         "a cover missing a cube is caught");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void test_generator(const std::string& dir) {
  const Workload a = setup_workload("small_dup", 5, dir + "/a");
  const Workload b = setup_workload("small_dup", 5, dir + "/b");
  expect(a.jobs.size() == 3000 && a.repeat_jobs == 1500 &&
             a.unique_jobs == 1500,
         "small_dup has 3000 jobs, half of them repeats");
  bool same = slurp(a.manifest_path).size() == slurp(b.manifest_path).size();
  for (size_t i = 0; i < a.jobs.size() && same; ++i)
    same = slurp(a.jobs[i].spec) == slurp(b.jobs[i].spec);
  expect(same, "the same seed writes the same files");
  const Workload c = setup_workload("small_dup", 6, dir + "/c");
  expect(slurp(a.jobs[0].spec) != slurp(c.jobs[0].spec),
         "another seed writes other files");

  SplitMix rng(3);
  const Machine m = machine_from_fsm(nova::bench_data::load_benchmark("bbara"));
  const Machine d = disguise(m, rng);
  std::multiset<std::string> rows_m, rows_d;
  for (const auto& r : m.rows)
    rows_m.insert(r.in + m.states[r.ps] + m.states[r.ns] + r.out);
  for (const auto& r : d.rows)
    rows_d.insert(r.in + m.states[r.ps] + m.states[r.ns] + r.out);
  expect(rows_m == rows_d && d.states != m.states,
         "a repeat renames states and keeps the same rows");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1] : ".bench_build/perfbench-selftest";
  fs::remove_all(dir);
  test_tail_percentile();
  test_checker(dir + "/checker");
  test_generator(dir + "/generator");
  fs::remove_all(dir);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
