// perfbench: end-to-end benchmark of the encoding service.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR] [--trace-dir DIR]
//
// Generates the workload's KISS2 files and manifest from the seed, then
// drives serve::run_batch (encode_fsm_robust per job, journal on) from one
// process as a closed loop of min(nproc, 4) batch workers: each worker
// takes its next job only when its previous job has finished.
//
// --trace 0 repeats the batch for --seconds and reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics of a traced pass. Every
// run checks every output (see check.hpp) and proves the outputs are
// byte-identical across repetitions and between 1 and N workers. The last
// line of stdout is one JSON object; the exit code is 1 when any output is
// wrong, 2 on a usage error.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check.hpp"
#include "serve/serve.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

// A timed run repeats the set-up (setup_s is the median) at least
// kMinSetups times and until kSetupSeconds have gone into it, at most
// kMaxSetups times; then it makes at least kMinBatches batches.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 50;
constexpr double kSetupSeconds = 0.5;
constexpr int kMinBatches = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string trace_dir = ".bench_build/perfbench-trace";
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  ///< "higher", "lower", or "must be 0"
  std::string note;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s %16.6f %-11s %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                m.better == "must be 0" ? "must be 0"
                                        : (m.better + " is better").c_str(),
                m.note.c_str());
  }
}

/// The result line. Only `reported` metrics go into it.
void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& ms,
                  const std::set<std::string>& reported) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : ms) {
    if (!reported.count(m.name)) continue;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += sep;
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
    sep = ", ";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

struct Batch {
  double wall = 0.0;
  nova::serve::BatchResult res;
};

/// One run_batch call on a fresh journal, timed from outside.
Batch run_batch(const std::vector<nova::serve::JobSpec>& jobs, int threads,
                const std::string& journal) {
  fs::remove(journal);
  nova::serve::BatchOptions opts;
  opts.journal_path = journal;
  opts.threads = threads;
  Batch b;
  const Clock::time_point t0 = Clock::now();
  b.res = nova::serve::run_batch(jobs, opts);
  b.wall = since(t0);
  return b;
}

/// Sets the workload up repeatedly (see kSetupSeconds) and reports the
/// median set-up time. Every set-up writes the same files into the same
/// directory: the first creates them, the others overwrite them. File
/// creation on a virtual disk can swing twentyfold from minute to minute,
/// so the median deliberately rests on the overwrites.
Workload setup(const Args& a, const std::string& work, double* setup_s) {
  std::vector<double> times;
  double spent = 0.0;
  Workload w;
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && spent >= kSetupSeconds) break;
    const Clock::time_point t0 = Clock::now();
    w = setup_workload(a.workload, a.seed, work + "/inputs");
    times.push_back(since(t0));
    spent += times.back();
  }
  *setup_s = median(times);
  return w;
}

void describe(const Workload& w, const Args& a, int threads) {
  std::printf("perfbench workload=%s seed=%llu jobs=%zu unique=%d "
              "threads=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              w.jobs.size(), w.unique_jobs, threads);
  if (w.repeat_jobs > 0)
    std::printf("  repeats=%d repeat_share=%.3f (renamed states, shuffled "
                "rows)\n",
                w.repeat_jobs,
                static_cast<double>(w.repeat_jobs) / w.jobs.size());
  std::printf("  load: closed loop, %d batch workers in one process; each "
              "takes its next job when its previous job finishes\n",
              threads);
}

/// Checks outputs[i], the output of w.jobs[i], against the workload's
/// tables on `threads` threads; returns the indices of the wrong ones.
/// Jobs without an output failed and are counted as failed instead.
std::set<int> check_outputs(const Workload& w,
                            const std::vector<std::string>& outputs,
                            int threads) {
  std::vector<std::string> why(outputs.size());
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i; (i = next++) < outputs.size();) {
      if (outputs[i].empty()) continue;
      try {
        why[i] = check_job_output(w.machines.at(w.jobs[i].spec), outputs[i]);
      } catch (const std::exception& e) {
        why[i] = e.what();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  std::set<int> wrong;
  for (size_t i = 0; i < why.size(); ++i) {
    if (why[i].empty()) continue;
    if (wrong.size() < 5)
      std::fprintf(stderr, "wrong output %s: %s\n", w.jobs[i].id.c_str(),
                   why[i].c_str());
    wrong.insert(static_cast<int>(i));
  }
  return wrong;
}

std::vector<std::string> outputs_of(const nova::serve::BatchResult& res) {
  std::vector<std::string> out;
  for (const nova::serve::JobResult& j : res.jobs) out.push_back(j.output);
  return out;
}

/// Adds to `wrong` every job whose output differs from `reference`.
void compare_outputs(const nova::serve::BatchResult& res,
                     const std::vector<std::string>& reference,
                     const char* what, std::set<int>* wrong) {
  for (size_t i = 0; i < res.jobs.size(); ++i) {
    if (res.jobs[i].output == reference[i]) continue;
    if (wrong->size() < 5)
      std::fprintf(stderr, "nondeterministic output %s (%s)\n",
                   res.jobs[i].spec.id.c_str(), what);
    wrong->insert(static_cast<int>(i));
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports kilobytes
}

int timed_run(const Args& a, const std::string& work, int threads) {
  double setup_s = 0.0;
  const Workload w = setup(a, work, &setup_s);
  describe(w, a, threads);
  const int n = static_cast<int>(w.jobs.size());
  const TailPercentile tail = tail_percentile(n);

  // Warm-up that doubles as the thread-count determinism probe.
  const std::vector<nova::serve::JobSpec> prefix(
      w.jobs.begin(), w.jobs.begin() + std::min(w.prefix_jobs, n));
  const Batch one = run_batch(prefix, 1, work + "/journal-1w.jsonl");

  std::vector<double> jobs_per_s, p50_ms, tail_ms;
  std::vector<std::string> reference;  // first batch's outputs
  std::set<int> wrong;
  long done = 0, failed = 0, degraded = 0, attempted = 0;
  long total_area = 0;
  const Clock::time_point t0 = Clock::now();
  for (int r = 0;; ++r) {
    const Batch b = run_batch(w.jobs, threads, work + "/journal.jsonl");
    std::vector<double> secs;
    for (const nova::serve::JobResult& j : b.res.jobs)
      secs.push_back(j.seconds * 1e3);
    jobs_per_s.push_back(n / b.wall);
    p50_ms.push_back(median(secs));
    tail_ms.push_back(percentile_value(secs, tail));
    done += b.res.done;
    failed += b.res.failed;
    degraded += b.res.degraded;
    attempted += n;
    if (r == 0) {
      reference = outputs_of(b.res);
      for (const nova::serve::JobResult& j : b.res.jobs) total_area += j.area;
      compare_outputs(one.res, reference, "1 worker vs N", &wrong);
    } else {
      compare_outputs(b.res, reference, "repetition", &wrong);
    }
    if (r + 1 >= kMinBatches && since(t0) + b.wall > a.seconds) break;
  }
  const double rss = peak_rss_mb();

  // Outside the timed window: check the first repetition's outputs (the
  // others were proven byte-identical to it).
  for (int i : check_outputs(w, reference, threads)) wrong.insert(i);

  const double att = static_cast<double>(attempted);
  std::vector<Metric> ms = {
      {"jobs_per_s", median(jobs_per_s), "jobs/s", "higher",
       "median of " + std::to_string(jobs_per_s.size()) + " batches"},
      {"job_p50_ms", median(p50_ms), "ms", "lower", "JobResult::seconds"},
      {"job_tail_ms", median(tail_ms), "ms", "lower",
       tail.label() + ", n=" + std::to_string(n) + ", " +
           std::to_string(tail.beyond) + " beyond"},
      {"total_area", static_cast<double>(total_area), "area", "lower",
       "sum of (2(ni+nb)+nb+no)*cubes"},
      {"done_ratio", done / att, "share", "higher", "done jobs / attempted"},
      {"failed_ratio", failed / att, "share", "lower", ""},
      {"degraded_ratio", degraded / att, "share", "lower", ""},
      {"setup_s", setup_s, "s", "lower", "median of repeated set-ups"},
      {"peak_rss_mb", rss, "MB", "lower", ""},
      {"wrong_outputs", static_cast<double>(wrong.size()), "count",
       "must be 0", "output check + determinism"},
  };
  std::string all_outputs;
  for (const std::string& o : reference) all_outputs += o;
  std::printf("  outputs digest=%s, identical across %zu batches and on 1 "
              "worker for the first %zu jobs: %s\n",
              nova::serve::fnv1a_hex(all_outputs).c_str(),
              jobs_per_s.size(), prefix.size(),
              wrong.empty() ? "yes" : "see wrong_outputs");
  std::printf("  per batch: jobs/s");
  for (double v : jobs_per_s) std::printf(" %.4g", v);
  std::printf(" | p50 ms");
  for (double v : p50_ms) std::printf(" %.4g", v);
  std::printf("\n");
  print_metrics(ms);
  // failed_ratio, degraded_ratio and wrong_outputs are 0 on a healthy run;
  // they reach the result line through `failed` and `correct` instead.
  print_result(wrong.empty(), attempted,
               failed + degraded + static_cast<long>(wrong.size()), ms,
               {"jobs_per_s", "job_p50_ms", "job_tail_ms", "total_area",
                "done_ratio", "setup_s", "peak_rss_mb"});
  return wrong.empty() ? 0 : 1;
}

long counter(const nova::serve::BatchResult& res, const char* name) {
  return res.report ? res.report->counter(name) : 0;
}

long counter(const TracedPass& p, const char* name) {
  auto it = p.counters.find(name);
  return it == p.counters.end() ? 0 : it->second;
}

int traced_run(const Args& a, const std::string& work, int threads) {
  const Workload w = setup_workload(a.workload, a.seed, work + "/inputs");
  describe(w, a, threads);
  const int n = static_cast<int>(w.jobs.size());

  // (1) The untraced batch on N workers: serve-layer figures + outputs.
  const Batch batch = run_batch(w.jobs, threads, work + "/journal.jsonl");
  std::set<int> wrong = check_outputs(w, outputs_of(batch.res), threads);
  double busy = 0.0;
  for (const nova::serve::JobResult& j : batch.res.jobs) busy += j.seconds;

  // (2) The traced pass on this thread.
  const TracedPass pass =
      run_traced_pass(w, work + "/journal-traced.jsonl");
  int area_mismatches = 0;
  for (int i = 0; i < n; ++i)
    area_mismatches += pass.areas[i] != batch.res.jobs[i].area;

  // (3) Untraced on one worker, over every k-th job, for overhead and
  // coverage.
  std::vector<nova::serve::JobSpec> sample;
  for (int i = 0; i < n; i += w.sample_stride) sample.push_back(w.jobs[i]);
  const Batch one = run_batch(sample, 1, work + "/journal-1w.jsonl");
  // Job spans give the traced time; their children, the layer time.
  double traced_s = 0.0, layer_s = 0.0;
  for (const SpanRecord& s : pass.spans) {
    if (s.job % w.sample_stride == 0)
      (s.parent < 0 ? traced_s : layer_s) += s.end - s.start;
  }

  fs::create_directories(a.trace_dir);
  const std::string trace_path = a.trace_dir + "/" + a.workload + "-seed" +
                                 std::to_string(a.seed) + ".json";
  pass.write_json(trace_path, a.workload, a.seed);

  const std::map<std::string, double> self = pass.self_seconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const long embed_calls = counter(pass, "embed.calls");
  std::vector<Metric> ms = {
      {"fsm.parse_ms", self_of("fsm::parse_kiss_string") / n * 1e3, "ms",
       "lower", "mean per job"},
      {"constraints.extract_s",
       self_of("constraints::extract_input_constraints") +
           self_of("constraints::symbolic_minimize"),
       "s", "lower", "total"},
      {"constraints.generated",
       static_cast<double>(counter(pass, "constraints.generated")), "count",
       "lower", ""},
      {"constraints.mv_cubes",
       static_cast<double>(counter(pass, "constraints.mv_minimized_cubes") +
                           counter(pass, "constraints.symbolic_final_cubes")),
       "count", "lower", "minimized MV cover cubes"},
      {"encoding.embed_s",
       self_of("encoding::ihybrid_code") + self_of("encoding::igreedy_code") +
           self_of("encoding::iohybrid_code"),
       "s", "lower", "total"},
      {"encoding.work", static_cast<double>(counter(pass, "embed.work")),
       "count", "lower", ""},
      {"encoding.backtracks",
       static_cast<double>(counter(pass, "embed.backtracks")), "count",
       "lower", ""},
      {"encoding.success_ratio",
       embed_calls > 0
           ? static_cast<double>(counter(pass, "embed.successes")) /
                 embed_calls
           : 0.0,
       "share", "higher",
       "embed successes / " + std::to_string(embed_calls) + " calls"},
      {"logic.espresso_calls",
       static_cast<double>(counter(pass, "espresso.calls")), "count", "lower",
       ""},
      {"logic.tautology_calls",
       static_cast<double>(counter(pass, "logic.tautology_calls")), "count",
       "lower", ""},
      {"logic.complement_calls",
       static_cast<double>(counter(pass, "logic.complement_calls")), "count",
       "lower", ""},
      {"logic.expand_cubes_in",
       static_cast<double>(counter(pass, "espresso.expand_cubes_in")),
       "count", "lower", ""},
      {"logic.offset_cubes_peak",
       static_cast<double>(counter(pass, "espresso.offset_cubes_peak")),
       "count", "lower", "high-water mark"},
      {"nova.evaluate_s", self_of("driver::evaluate_encoding"), "s", "lower",
       "total"},
      {"nova.verify_s", self_of("driver::verify_encoding"), "s", "lower",
       "total, includes its re-evaluation"},
      {"nova.rungs_per_job",
       static_cast<double>(counter(batch.res, "robust.rungs_tried")) / n,
       "rungs/job", "lower", "N-worker batch"},
      {"serve.journal_append_us", median(pass.journal_appends) * 1e6, "us",
       "lower", "p50 per record"},
      {"serve.journal_records_per_job",
       static_cast<double>(counter(batch.res, "serve.journal_records")) / n,
       "records/job", "lower", "N-worker batch"},
      {"serve.worker_busy_ratio", busy / (threads * batch.wall), "share",
       "higher", "sum of job seconds / (threads * wall)"},
      {"serve.retries", static_cast<double>(batch.res.retries), "count",
       "lower", "N-worker batch"},
      {"trace.coverage", layer_s / one.wall, "share", "higher",
       "layer self time / untraced 1-worker time, " +
           std::to_string(sample.size()) + " jobs"},
      {"trace.traced_jobs_per_s", sample.size() / traced_s, "jobs/s",
       "higher", "traced pass, same jobs"},
      {"trace.untraced_jobs_per_s", sample.size() / one.wall, "jobs/s",
       "higher", "run_batch on 1 worker"},
  };

  std::printf("  traced pass: %.3f s, spans and counters in %s\n",
              pass.seconds, trace_path.c_str());
  std::printf("  self time by span:\n");
  for (const auto& [name, s] : self)
    std::printf("    %-44s %10.4f s %6.1f%%\n", name.c_str(), s,
                100.0 * s / pass.seconds);
  if (area_mismatches > 0)
    std::fprintf(stderr,
                 "warning: the traced pass gave a different area than the "
                 "batch on %d jobs\n",
                 area_mismatches);
  print_metrics(ms);
  std::set<std::string> reported;
  for (const Metric& m : ms) reported.insert(m.name);
  const bool correct = wrong.empty() && pass.verify_failures == 0;
  const long failed = batch.res.failed + batch.res.degraded + one.res.failed +
                      one.res.degraded + pass.verify_failures +
                      static_cast<long>(wrong.size());
  print_result(correct, 2L * n + static_cast<long>(sample.size()), failed,
               ms, reported);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload paper_suite|mid_sweep|small_dup "
               "[--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] "
               "[--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v);
    else if (flag == "--work-dir") a.work_dir = v;
    else if (flag == "--trace-dir") a.trace_dir = v;
    else return usage();
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end() ||
      (a.trace != 0 && a.trace != 1) || a.seconds <= 0)
    return usage();
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);

  const std::string work = a.work_dir + "/" + a.workload + "-" +
                           std::to_string(static_cast<long>(::getpid()));
  int rc = 1;
  try {
    fs::remove_all(work);
    fs::create_directories(work);
    rc = a.trace ? traced_run(a, work, threads) : timed_run(a, work, threads);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(work, ec);
  return rc;
}
