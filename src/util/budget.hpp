// Cooperative anytime budgets for the NOVA pipeline.
//
// A Budget bounds a run three ways at once: a wall-clock deadline, a
// deterministic work-unit limit, and an arena-style allocation cap. The
// potentially exponential passes (espresso complement/tautology, the
// iexact branch-and-bound, embedding search) probe it cooperatively via
// charge()/checkpoint() at their inner-loop boundaries and unwind with
// their best-so-far result when it reports exhaustion -- no thread is ever
// killed and no exception is thrown by the budget itself.
//
// Determinism contract: with only a work-unit limit set, exhaustion points
// are a pure function of the charge sequence, so results are reproducible
// across machines and thread counts (the batch server gives every job
// attempt its own fork_attempt() child so no cross-thread counter races
// exist).
// Deadline- and cancellation-driven exhaustion is inherently timing
// dependent; the *validity* of the result is guaranteed either way, only
// its quality varies. See docs/ROBUSTNESS.md.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdlib>

namespace nova::util {

/// Why a budget stopped the run (kNone = still within budget).
enum class BudgetStop {
  kNone,
  kDeadline,   ///< wall-clock deadline passed
  kWork,       ///< work-unit limit consumed
  kAlloc,      ///< allocation cap consumed
  kCancelled,  ///< cancel() called (possibly from another thread)
};

inline const char* budget_stop_name(BudgetStop s) {
  switch (s) {
    case BudgetStop::kNone:
      return "none";
    case BudgetStop::kDeadline:
      return "deadline";
    case BudgetStop::kWork:
      return "work";
    case BudgetStop::kAlloc:
      return "alloc";
    case BudgetStop::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default construction = unlimited (every probe is a cheap no-op).
  Budget() = default;

  /// Budgets are charged single-threaded within one attempt; copying one
  /// copies limits and counters (used by fork_attempt()).
  Budget(const Budget& o) { copy_from(o); }
  Budget& operator=(const Budget& o) {
    if (this != &o) copy_from(o);
    return *this;
  }

  /// Budget requested by the environment: NOVA_DEADLINE_MS (wall-clock
  /// milliseconds from now) and NOVA_WORK_BUDGET (work units). Unset or
  /// non-positive values leave that dimension unlimited.
  static Budget from_env() {
    Budget b;
    if (const char* v = std::getenv("NOVA_DEADLINE_MS")) {
      long ms = std::atol(v);
      if (ms > 0) b.set_deadline_ms(ms);
    }
    if (const char* v = std::getenv("NOVA_WORK_BUDGET")) {
      long units = std::atol(v);
      if (units > 0) b.set_work_limit(units);
    }
    return b;
  }

  void set_deadline(Clock::time_point t) {
    deadline_ = t;
    has_deadline_ = true;
  }
  void set_deadline_ms(long ms) {
    set_deadline(Clock::now() + std::chrono::milliseconds(ms));
  }
  void set_work_limit(long units) { work_limit_ = units; }
  void set_alloc_limit(long bytes) { alloc_limit_ = bytes; }

  /// True when any dimension is bounded: an unlimited budget behaves
  /// exactly like passing no budget at all.
  bool limited() const {
    return has_deadline_ || work_limit_ >= 0 || alloc_limit_ >= 0;
  }

  /// Charges `units` of work. Returns true while the run may continue;
  /// false once the budget is exhausted (sticky). The wall clock is probed
  /// only every kDeadlineStride charges so the per-unit cost stays a few
  /// arithmetic ops.
  bool charge(long units = 1) {
    if (stop_.load(std::memory_order_relaxed) != BudgetStop::kNone)
      return false;
    work_used_ += units;
    if (work_limit_ >= 0 && work_used_ > work_limit_) {
      trip(BudgetStop::kWork);
      return false;
    }
    if (has_deadline_ && (work_used_ - last_clock_probe_) >= kDeadlineStride)
      return probe_deadline();
    return true;
  }

  /// Charges `bytes` against the allocation cap; same contract as charge().
  bool charge_alloc(long bytes) {
    if (stop_.load(std::memory_order_relaxed) != BudgetStop::kNone)
      return false;
    alloc_used_ += bytes;
    if (alloc_limit_ >= 0 && alloc_used_ > alloc_limit_) {
      trip(BudgetStop::kAlloc);
      return false;
    }
    return true;
  }

  /// Work-free probe: checks the deadline and the sticky exhausted flag.
  /// True while the run may continue. Use at phase boundaries where no
  /// natural work unit applies.
  bool checkpoint() {
    if (stop_.load(std::memory_order_relaxed) != BudgetStop::kNone)
      return false;
    if (has_deadline_) return probe_deadline(/*force=*/true);
    return true;
  }

  /// Cooperative cancellation: trips the budget from any thread; every
  /// subsequent charge()/checkpoint() in the owning run returns false.
  void cancel() { trip(BudgetStop::kCancelled); }

  /// Fault-injection / external trip with an explicit reason.
  void force_exhaust(BudgetStop why) { trip(why); }

  bool exhausted() const {
    return stop_.load(std::memory_order_relaxed) != BudgetStop::kNone;
  }
  BudgetStop stop_reason() const {
    return stop_.load(std::memory_order_relaxed);
  }

  long work_used() const { return work_used_; }
  long work_limit() const { return work_limit_; }
  long alloc_used() const { return alloc_used_; }

  /// Child budget for one attempt of a deterministic fan-out (one batch
  /// job attempt): same deadline and the full work/alloc limits, fresh
  /// counters. Each attempt charging its own child keeps work exhaustion a
  /// pure function of the attempt -- byte-identical results at any thread
  /// count.
  Budget fork_attempt() const {
    Budget b;
    b.has_deadline_ = has_deadline_;
    b.deadline_ = deadline_;
    b.work_limit_ = work_limit_;
    b.alloc_limit_ = alloc_limit_;
    if (exhausted()) b.trip(stop_reason());
    return b;
  }

 private:
  // One clock read per this many charged units keeps deadline probing off
  // the critical path without letting overshoot grow past ~microseconds of
  // inner-loop work.
  static constexpr long kDeadlineStride = 256;

  bool probe_deadline(bool force = false) {
    (void)force;
    last_clock_probe_ = work_used_;
    if (Clock::now() >= deadline_) {
      trip(BudgetStop::kDeadline);
      return false;
    }
    return true;
  }

  void trip(BudgetStop why) {
    BudgetStop expect = BudgetStop::kNone;
    stop_.compare_exchange_strong(expect, why, std::memory_order_relaxed);
  }

  void copy_from(const Budget& o) {
    has_deadline_ = o.has_deadline_;
    deadline_ = o.deadline_;
    work_limit_ = o.work_limit_;
    alloc_limit_ = o.alloc_limit_;
    work_used_ = o.work_used_;
    alloc_used_ = o.alloc_used_;
    last_clock_probe_ = o.last_clock_probe_;
    stop_.store(o.stop_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  }

  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  long work_limit_ = -1;   ///< < 0 = unlimited
  long alloc_limit_ = -1;  ///< < 0 = unlimited
  long work_used_ = 0;
  long alloc_used_ = 0;
  long last_clock_probe_ = 0;
  // The only cross-thread slot: cancel()/force_exhaust() may trip from
  // another thread while the owner charges.
  std::atomic<BudgetStop> stop_{BudgetStop::kNone};
};

/// Convenience for optional-budget call sites: probes stay one branch when
/// no budget was supplied.
inline bool budget_charge(Budget* b, long units = 1) {
  return b == nullptr || b->charge(units);
}
inline bool budget_ok(Budget* b) {
  return b == nullptr || !b->exhausted();
}

}  // namespace nova::util
