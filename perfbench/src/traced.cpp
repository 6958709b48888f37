#include "traced.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "constraints/input_constraints.hpp"
#include "constraints/symbolic_min.hpp"
#include "fsm/kiss_io.hpp"
#include "nova/verify.hpp"
#include "obs/obs.hpp"
#include "serve/journal.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using nova::driver::Algorithm;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Records spans relative to the start of the pass.
class SpanLog {
 public:
  explicit SpanLog(std::vector<SpanRecord>& out) : out_(out) {}
  int open(const char* name, int job, int parent) {
    out_.push_back({name, job, parent, now(), 0.0});
    return static_cast<int>(out_.size()) - 1;
  }
  double close(int span) {
    out_[span].end = now();
    return out_[span].end - out_[span].start;
  }
  /// Runs f() inside a span named `name`, returning its result.
  template <typename F>
  auto timed(const char* name, int job, int parent, F&& f) {
    const int span = open(name, job, parent);
    auto result = f();
    close(span);
    return result;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  std::vector<SpanRecord>& out_;
  Clock::time_point t0_ = Clock::now();
};

nova::obs::Json record(const char* type, const std::string& job) {
  nova::obs::Json r = nova::obs::Json::object();
  r.set("type", type);
  r.set("job", job);
  return r;
}

/// Each span's duration minus the durations of its child spans.
std::vector<double> span_self(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  }
  return self;
}

}  // namespace

std::map<std::string, double> TracedPass::self_seconds() const {
  const std::vector<double> self = span_self(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

void TracedPass::write_json(const std::string& path,
                            const std::string& workload, uint64_t seed) const {
  const std::vector<double> self = span_self(spans);
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
      << ", \"seconds\": " << seconds << ",\n \"counters\": {";
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    out << sep << "\"" << name << "\": " << value;
    sep = ", ";
  }
  out << "},\n \"spans\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %d, \"job\": %d, \"name\": "
                  "\"%s\", \"start_us\": %.1f, \"end_us\": %.1f, "
                  "\"self_us\": %.1f}%s\n",
                  i, s.parent, s.job, s.name.c_str(), s.start * 1e6,
                  s.end * 1e6, self[i] * 1e6,
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << " ]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

TracedPass run_traced_pass(const Workload& w,
                           const std::string& journal_path) {
  namespace fsm = nova::fsm;
  namespace constraints = nova::constraints;
  namespace encoding = nova::encoding;
  namespace driver = nova::driver;

  TracedPass pass;
  SpanLog log(pass.spans);
  nova::obs::Report report;
  nova::serve::Journal journal;
  journal.open(journal_path);
  const auto append = [&](int job, int parent, const nova::obs::Json& r) {
    const int span = log.open("serve::Journal::append", job, parent);
    journal.append(r);
    pass.journal_appends.push_back(log.close(span));
  };
  const Clock::time_point t0 = Clock::now();
  {
    nova::obs::TraceSession session(report);
    for (const nova::serve::JobSpec& job : w.jobs) {
      const int j = job.index;
      const int root = log.open("job", j, -1);
      nova::obs::Json queued = record("queued", job.id);
      queued.set("class", job.cls);
      append(j, root, queued);
      nova::obs::Json running = record("running", job.id);
      running.set("attempt", 1);
      append(j, root, running);

      const std::string text = read_file(job.spec);
      const fsm::Fsm f = log.timed("fsm::parse_kiss_string", j, root, [&] {
        return fsm::parse_kiss_string(text, job.id);
      });
      const int n = f.num_states();

      // The options below are the ones driver::encode_fsm passes.
      std::optional<constraints::SymbolicMinResult> sm;
      std::vector<encoding::InputConstraint> ics;
      if (job.algorithm == Algorithm::kIoHybrid) {
        sm = log.timed("constraints::symbolic_minimize", j, root,
                       [&] { return constraints::symbolic_minimize(f); });
        ics = sm->ic;
      } else {
        ics = log.timed("constraints::extract_input_constraints", j, root, [&] {
                   return constraints::extract_input_constraints(f);
                 }).constraints;
      }

      encoding::HybridOptions ho;
      ho.nbits = job.nbits;
      ho.seed = job.seed;
      encoding::Encoding enc;
      switch (job.algorithm) {
        case Algorithm::kIHybrid:
          enc = log.timed("encoding::ihybrid_code", j, root, [&] {
                     return encoding::ihybrid_code(ics, n, ho);
                   }).enc;
          break;
        case Algorithm::kIGreedy: {
          encoding::GreedyOptions go;
          go.nbits = job.nbits;
          go.seed = job.seed;
          enc = log.timed("encoding::igreedy_code", j, root, [&] {
                     return encoding::igreedy_code(ics, n, go);
                   }).enc;
          break;
        }
        case Algorithm::kIoHybrid: {
          encoding::HybridOptions io;
          io.nbits = job.nbits;
          enc = log.timed("encoding::iohybrid_code", j, root, [&] {
                     return encoding::iohybrid_code(sm->ic, sm->clusters, n,
                                                    io);
                   }).enc;
          break;
        }
        default:
          throw std::runtime_error("traced run: unsupported algorithm in " +
                                   job.id);
      }

      const driver::EvalResult ev = log.timed(
          "driver::evaluate_encoding", j, root,
          [&] { return driver::evaluate_encoding(f, enc); });
      // encode_fsm_robust verifies with the overload that re-evaluates.
      const driver::VerifyResult vr =
          log.timed("driver::verify_encoding", j, root,
                    [&] { return driver::verify_encoding(f, enc); });
      if (!vr.equivalent) ++pass.verify_failures;

      nova::obs::Json done = record("done", job.id);
      done.set("attempts", 1);
      done.set("area", ev.metrics.area);
      append(j, root, done);
      pass.areas.push_back(ev.metrics.area);
      log.close(root);
    }
  }
  pass.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  journal.close();
  for (const auto& [name, value] : report.counters())
    pass.counters[name] = value;
  return pass;
}

}  // namespace perfbench
