// Batch-serving throughput: runs the Table I + Table V workload through the
// serve subsystem at 1..N worker threads and writes the throughput
// trajectory (jobs completed over time, per thread count) to
// BENCH_serve.json (path override: NOVA_SERVE_JSON). The journal and the
// outputs stay in a scratch directory under the build tree.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_data/benchmarks.hpp"
#include "obs/json.hpp"
#include "serve/serve.hpp"
#include "util/fileio.hpp"

int main() {
  using namespace nova;

  std::vector<serve::JobSpec> jobs;
  {
    std::string manifest;
    for (const auto& b : bench_data::table1_benchmarks())
      manifest += b.name + "\n";
    for (const auto& b : bench_data::table5_extras())
      manifest += b.name + "\n";
    std::string err;
    jobs = serve::parse_manifest(manifest, driver::Algorithm::kIHybrid, &err);
    if (jobs.empty()) {
      std::fprintf(stderr, "manifest error: %s\n", err.c_str());
      return 1;
    }
  }

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> thread_counts{1};
  if (hw >= 2) thread_counts.push_back(2);
  if (hw >= 4) thread_counts.push_back(4);

  obs::Json runs = obs::Json::array();
  std::printf("serve throughput, %zu jobs\n", jobs.size());
  std::printf("%8s %10s %10s %10s\n", "THREADS", "SECONDS", "JOBS/S",
              "RETRIES");
  for (int threads : thread_counts) {
    serve::BatchOptions opts;
    opts.threads = threads;
    opts.journal_path = "serve_scratch/bench_serve.jsonl";
    ::remove(opts.journal_path.c_str());
    util::ensure_dir("serve_scratch");
    serve::BatchResult res = serve::run_batch(jobs, opts);
    if (!res.complete() || res.failed != 0) {
      std::fprintf(stderr, "serve bench: batch incomplete (%d failed, %d "
                           "pending)\n",
                   res.failed, res.pending);
      return 1;
    }
    double rate = res.seconds > 0 ? res.jobs.size() / res.seconds : 0.0;
    std::printf("%8d %10.3f %10.1f %10d\n", threads, res.seconds, rate,
                res.retries);
    bench::perf_record("serve_" + std::to_string(threads) + "t",
                       res.seconds);

    obs::Json run = obs::Json::object();
    run.set("threads", threads);
    run.set("seconds", res.seconds);
    run.set("jobs", static_cast<int>(res.jobs.size()));
    run.set("jobs_per_second", rate);
    obs::Json traj = obs::Json::array();
    for (const auto& [secs, done] : res.trajectory) {
      obs::Json p = obs::Json::object();
      p.set("seconds", secs);
      p.set("done", done);
      traj.push_back(std::move(p));
    }
    run.set("trajectory", std::move(traj));
    runs.push_back(std::move(run));
  }

  obs::Json doc = obs::Json::object();
  doc.set("version", 1);
  doc.set("runs", std::move(runs));
  const char* env = std::getenv("NOVA_SERVE_JSON");
  std::string path = env && env[0] ? env : "BENCH_serve.json";
  std::string text = doc.dump(2);
  text += '\n';
  if (!util::write_file_atomic(path, text)) {
    std::fprintf(stderr, "serve bench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "serve bench: wrote %s\n", path.c_str());
  return 0;
}
