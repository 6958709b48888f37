// The fork-join pool behind the batch server: every index runs exactly
// once on any thread count, and task exceptions surface on the caller
// after the join.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

using nova::util::ThreadPool;

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    pool.run_indexed(100, [&](int i) { hits[i].fetch_add(1); });
    for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, HandlesMoreThreadsThanTasks) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  pool.run_indexed(3, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
  pool.run_indexed(0, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_indexed(50,
                                [&](int i) {
                                  if (i == 37) throw std::runtime_error("37");
                                }),
               std::runtime_error);
}

TEST(ThreadPool, RemainingTasksRunAfterAThrow) {
  // The contract: the first exception is rethrown after the join, and every
  // other index still runs -- on any thread count, including 1.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(40);
    for (auto& h : hits) h.store(0);
    EXPECT_THROW(pool.run_indexed(40,
                                  [&](int i) {
                                    hits[i].fetch_add(1);
                                    if (i == 3) throw std::runtime_error("3");
                                  }),
                 std::runtime_error) << "threads=" << threads;
    for (int i = 0; i < 40; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ThreadPool, FirstThrownExceptionWinsOnSingleThread) {
  // Single-thread execution is in index order, so "first" is index 5.
  ThreadPool pool(1);
  try {
    pool.run_indexed(20, [&](int i) {
      if (i == 5) throw std::runtime_error("five");
      if (i == 11) throw std::logic_error("eleven");
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "five");
  }
}
