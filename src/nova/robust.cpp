#include "nova/robust.hpp"

#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "check/faultinject.hpp"
#include "encoding/encoding.hpp"
#include "obs/obs.hpp"

namespace nova::driver {

namespace {

const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kIExact:
      return "iexact";
    case Algorithm::kIHybrid:
      return "ihybrid";
    case Algorithm::kIGreedy:
      return "igreedy";
    case Algorithm::kIoHybrid:
      return "iohybrid";
    case Algorithm::kIoVariant:
      return "iovariant";
    case Algorithm::kKiss:
      return "kiss";
    case Algorithm::kMustangFanout:
      return "mustang-fanout";
    case Algorithm::kMustangFanin:
      return "mustang-fanin";
    case Algorithm::kRandom:
      return "random";
  }
  return "unknown";
}

/// The bottom rung: states coded 0..n-1 at the minimum length. Always
/// injective, always verifiable; the evaluation itself is anytime (an
/// exhausted budget only degrades minimization quality).
NovaResult sequential_result(const fsm::Fsm& fsm, const NovaOptions& opts) {
  NovaResult res;
  const int n = fsm.num_states();
  int nbits = encoding::min_code_length(n);
  if (opts.nbits > nbits) nbits = opts.nbits;
  res.enc.nbits = nbits;
  res.enc.codes.resize(n);
  for (int i = 0; i < n; ++i) res.enc.codes[i] = static_cast<uint64_t>(i);
  logic::EspressoOptions eopts = opts.espresso;
  eopts.budget = opts.budget;
  res.eval = evaluate_encoding(fsm, res.enc, eopts);
  res.metrics = res.eval.metrics;
  if (opts.budget != nullptr && opts.budget->exhausted())
    res.budget_exhausted = true;
  return res;
}

}  // namespace

util::Outcome<RobustResult> encode_fsm_robust(const fsm::Fsm& fsm,
                                              const NovaOptions& opts,
                                              const RobustOptions& ropts) {
  NovaOptions base = opts;
  // Honor the environment budget knobs when the caller didn't bring a
  // budget of their own. The Budget lives on this frame; every rung below
  // shares it, so a deadline spans the whole ladder.
  util::Budget env_budget;
  if (base.budget == nullptr && ropts.budget_from_env) {
    env_budget = util::Budget::from_env();
    if (env_budget.limited()) base.budget = &env_budget;
  }

  // With tracing on, collect the whole ladder (all rungs plus the robust.*
  // counters) into one report instead of one report per encode_fsm call.
  std::shared_ptr<obs::Report> report;
  std::optional<obs::TraceSession> session;
  if (base.trace) {
    report = std::make_shared<obs::Report>();
    session.emplace(*report);
    base.trace = false;  // rungs join this session's ambient report
  }

  RobustResult rr;
  const auto fail_rung = [&rr](Algorithm a, const std::string& why) {
    obs::counter_add("robust.downgrades");
    rr.notes.push_back(std::string(algorithm_name(a)) + ": " + why);
    ++rr.downgrades;
  };
  const auto accept = [&](NovaResult nr, Algorithm a) {
    rr.nova = std::move(nr);
    rr.used = a;
    rr.verified = true;
    if (report) rr.nova.report = report;
    util::Outcome<RobustResult> out;
    if (rr.nova.budget_exhausted ||
        (base.budget != nullptr && base.budget->exhausted())) {
      out.status = util::Status::kBudgetExhausted;
      if (base.budget != nullptr) out.stop = base.budget->stop_reason();
      obs::counter_add("robust.budget_exhausted");
    }
    if (rr.downgrades > 0) out.status = util::Status::kDegraded;
    for (size_t i = 0; i < rr.notes.size(); ++i) {
      if (i > 0) out.detail += "; ";
      out.detail += rr.notes[i];
    }
    out.value = std::move(rr);
    return out;
  };

  std::vector<Algorithm> ladder{base.algorithm};
  if (ropts.allow_downgrade) {
    for (Algorithm a : {Algorithm::kIHybrid, Algorithm::kIGreedy}) {
      if (a != base.algorithm) ladder.push_back(a);
    }
  }

  for (Algorithm algo : ladder) {
    obs::counter_add("robust.rungs_tried");
    try {
      obs::Span span("robust.rung");
      NovaOptions ro = base;
      ro.algorithm = algo;
      NovaResult nr = encode_fsm(fsm, ro);
      if (!nr.success || nr.enc.num_states() != fsm.num_states() ||
          !nr.enc.injective()) {
        fail_rung(algo, "no usable encoding (budget or work cap exhausted)");
        continue;
      }
      check::fault::point("driver.verify", base.budget);
      VerifyResult vr = verify_encoding(fsm, nr.enc, nr.eval, ropts.verify);
      if (!vr.equivalent) {
        obs::counter_add("robust.verify_failures");
        fail_rung(algo, "verification failed: " + vr.detail);
        continue;
      }
      return accept(std::move(nr), algo);
    } catch (const check::fault::FaultInjected& e) {
      obs::counter_add("robust.faults_caught");
      fail_rung(algo, std::string("injected fault: ") + e.what());
    } catch (const std::bad_alloc&) {
      obs::counter_add("robust.faults_caught");
      fail_rung(algo, "allocation failure");
    } catch (const std::exception& e) {
      obs::counter_add("robust.faults_caught");
      fail_rung(algo, std::string("error: ") + e.what());
    }
  }

  if (!ropts.allow_downgrade) {
    util::Outcome<RobustResult> out = util::Outcome<RobustResult>::failure(
        rr.notes.empty() ? "encoding failed" : rr.notes.front());
    if (base.budget != nullptr) out.stop = base.budget->stop_reason();
    return out;
  }

  // Bottom rung. Two attempts: an injected fault fires exactly once, so a
  // fault consumed by the first attempt cannot fail the retry.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      obs::Span span("robust.rung");
      obs::counter_add("robust.sequential_fallback");
      NovaResult nr = sequential_result(fsm, base);
      check::fault::point("driver.verify", base.budget);
      VerifyResult vr = verify_encoding(fsm, nr.enc, nr.eval, ropts.verify);
      if (!vr.equivalent) {
        obs::counter_add("robust.verify_failures");
        fail_rung(Algorithm::kRandom, "sequential verification failed: " +
                                          vr.detail);
        continue;
      }
      ++rr.downgrades;  // reaching the bottom rung is itself a downgrade
      obs::counter_add("robust.downgrades");
      rr.used_sequential = true;
      util::Outcome<RobustResult> out = accept(std::move(nr),
                                               base.algorithm);
      out.status = util::Status::kDegraded;
      return out;
    } catch (const std::exception& e) {
      obs::counter_add("robust.faults_caught");
      fail_rung(Algorithm::kRandom, std::string("sequential rung: ") +
                                        e.what());
    }
  }

  util::Outcome<RobustResult> out = util::Outcome<RobustResult>::failure(
      "all rungs failed including the sequential fallback");
  for (const std::string& n : rr.notes) out.detail += "; " + n;
  if (base.budget != nullptr) out.stop = base.budget->stop_reason();
  return out;
}

}  // namespace nova::driver
