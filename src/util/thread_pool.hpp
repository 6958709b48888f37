// Minimal deterministic fork-join helper for fanning independent, indexed
// tasks (the batch server's worker loops) across cores.
//
// Determinism contract: run_indexed(count, fn) calls fn(0), ..., fn(count-1)
// exactly once each; which OS thread runs which index is scheduling-
// dependent, so callers MUST make fn(i) depend only on i (per-index RNG
// streams, no shared mutable state) and merge results by index afterwards.
// Under that discipline any thread count -- including 1 -- produces
// identical results.
//
// Workers are spawned per call rather than kept in a persistent pool: the
// intended granularity is one long-running task per worker (serve's
// run_batch), where thread creation cost is noise and a condition-variable
// dispatch loop would only add failure modes.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace nova::util {

class ThreadPool {
 public:
  /// threads < 1 is clamped to 1 (everything runs on the calling thread).
  explicit ThreadPool(int threads) : threads_(std::max(1, threads)) {}

  int threads() const { return threads_; }

  /// Runs fn(0..count-1) across up to threads() OS threads; the calling
  /// thread participates. Blocks until every call has finished. The first
  /// exception thrown by any task is rethrown on the calling thread after
  /// the join (remaining tasks still run).
  void run_indexed(int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    const int workers = std::min(threads_, count);
    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto drain = [&] {
      for (int i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    if (workers > 1) {
      std::vector<std::thread> extra;
      extra.reserve(workers - 1);
      // Thread creation can itself throw (resource exhaustion); keep going
      // with however many workers were spawned rather than terminating with
      // joinable threads in flight.
      try {
        for (int t = 1; t < workers; ++t) extra.emplace_back(drain);
      } catch (const std::system_error&) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      drain();
      for (auto& th : extra) th.join();
    } else {
      drain();
    }
    if (first_error) std::rethrow_exception(first_error);
  }

 private:
  int threads_;
};

}  // namespace nova::util
