// Unit tests for the exec/ subsystem: thread-pool lifecycle, exception
// propagation through parallel regions, edge-case ranges, and the
// region/chunk bookkeeping of parallel_for.
#include <atomic>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bgr/exec/exec_context.hpp"
#include "bgr/exec/parallel.hpp"
#include "bgr/exec/thread_pool.hpp"

namespace bgr {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.worker_count(), 3);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ShutdownWithoutTasks) {
  ThreadPool pool(4);  // destructor must not hang on an empty queue
}

TEST(ThreadPool, ZeroWorkersConstructsAndDestroys) {
  // ExecContext never builds a 0-worker pool (threads >= 2 when a pool
  // exists), but the degenerate size must not hang or crash.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
}

TEST(ExecContext, SerialFallbackRunsInline) {
  ExecContext exec(1);
  EXPECT_TRUE(exec.serial());
  std::vector<int> hits(10, 0);
  parallel_for(exec, 10, [&](std::int64_t i) { ++hits[i]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(exec.stats().regions, 1);
  EXPECT_EQ(exec.stats().items, 10);
}

TEST(ExecContext, EmptyRangeDoesNothing) {
  ExecContext exec(4);
  bool touched = false;
  parallel_for(exec, 0, [&](std::int64_t) { touched = true; });
  EXPECT_FALSE(touched);
  EXPECT_EQ(exec.stats().regions, 0);
}

TEST(ExecContext, OneElementRange) {
  ExecContext exec(4);
  int value = 0;
  parallel_for(exec, 1, [&](std::int64_t i) { value = static_cast<int>(i) + 41; });
  EXPECT_EQ(value, 41);
}

TEST(ExecContext, ParallelForCoversEveryIndexOnce) {
  ExecContext exec(4);
  constexpr std::int64_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(exec, kN, [&](std::int64_t i) { hits[i].fetch_add(1); },
               /*grain=*/7);
  for (std::int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecContext, ExceptionPropagatesToCaller) {
  ExecContext exec(4);
  EXPECT_THROW(
      parallel_for(exec, 1000,
                   [](std::int64_t i) {
                     if (i == 613) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a throwing region and stays usable.
  std::atomic<int> count{0};
  parallel_for(exec, 100, [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ExecContext, ExceptionPropagatesFromSerialFallback) {
  ExecContext exec(1);
  EXPECT_THROW(parallel_for(exec, 10,
                            [](std::int64_t i) {
                              if (i == 3) throw std::logic_error("serial");
                            }),
               std::logic_error);
}

TEST(ExecContext, StatsCountRegionsAndChunks) {
  ExecContext exec(4);
  parallel_for(exec, 1000, [](std::int64_t) {}, /*grain=*/100);
  EXPECT_EQ(exec.stats().regions, 1);
  EXPECT_EQ(exec.stats().chunks, 10);
  EXPECT_EQ(exec.stats().items, 1000);
}

TEST(ExecContext, ZeroThreadsClampsToOne) {
  ExecContext exec(0);
  EXPECT_EQ(exec.thread_count(), 1);
  EXPECT_TRUE(exec.serial());
  EXPECT_GE(ExecContext::hardware_threads(), 1);
}

}  // namespace
}  // namespace bgr
