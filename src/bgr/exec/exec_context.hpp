#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "bgr/exec/thread_pool.hpp"

namespace bgr {

/// Counters accumulated by ExecContext across parallel regions. They are
/// bookkeeping only (never consulted by any algorithm), so they cannot
/// perturb results; the router snapshots them per phase for the CPU-time
/// report.
struct ExecStats {
  std::int64_t regions = 0;  // parallel regions entered
  std::int64_t chunks = 0;   // chunks dispatched across all regions
  std::int64_t items = 0;    // loop iterations covered
};

/// Execution context for the deterministic parallel primitives: a thread
/// count, a lazily created pool of `threads - 1` workers (the calling
/// thread always participates), and per-region stats. `threads <= 1` is
/// the strict serial fallback — no pool is ever created and every region
/// runs inline, in chunk order.
///
/// Determinism contract: chunk *partitioning* is a function of the problem
/// size only (never of the thread count), and every chunk writes only its
/// own slots. Any algorithm built on these primitives therefore produces
/// bit-identical results for 1 and N threads.
class ExecContext {
 public:
  explicit ExecContext(std::int32_t threads = 1);

  /// Borrowing context over a pool owned by someone else (the serve
  /// scheduler shares one pool across all concurrent jobs). Parallel
  /// regions dispatch to `shared_pool`'s workers plus the calling thread,
  /// so thread_count() is worker_count() + 1; the context never owns or
  /// destroys the pool. Determinism is unaffected by sharing: chunk
  /// partitioning stays size-driven and chunks write disjoint slots, so
  /// which pool the chunks land on — and which other contexts' chunks
  /// interleave with them — cannot change any result (see DESIGN.md §12).
  explicit ExecContext(ThreadPool* shared_pool);

  ~ExecContext();

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  [[nodiscard]] std::int32_t thread_count() const { return threads_; }
  [[nodiscard]] bool serial() const { return threads_ <= 1; }
  [[nodiscard]] const ExecStats& stats() const { return stats_; }

  /// Clamped std::thread::hardware_concurrency() (>= 1).
  [[nodiscard]] static std::int32_t hardware_threads();

  /// Stable scratch slot of the calling thread inside this context's
  /// parallel regions: 0 on the thread that runs the region (and anywhere
  /// outside a region), 1..thread_count()-1 on this context's own pool
  /// workers. Two threads participating in one region never share a slot,
  /// so per-thread arenas sized to thread_count() and indexed with this
  /// are race-free — see PathSearchEngine's search scratch.
  [[nodiscard]] std::int32_t current_slot() const;

  /// Runs chunk_fn(c) for every c in [0, chunk_count), on the pool plus
  /// the calling thread. Blocks until every chunk finished; the first
  /// exception thrown by any chunk is rethrown here (remaining chunks
  /// still run — a deleted chunk could otherwise change sibling results).
  /// Serial contexts run the chunks inline, in order.
  void run_chunks(std::int64_t chunk_count,
                  const std::function<void(std::int64_t)>& chunk_fn);

  /// Stats bookkeeping used by parallel_for; also feeds
  /// the process-wide `exec.items` metric.
  void note_items(std::int64_t n);

 private:
  void ensure_pool();
  [[nodiscard]] ThreadPool* active_pool() const {
    return borrowed_ != nullptr ? borrowed_ : pool_.get();
  }

  std::int32_t threads_;
  std::unique_ptr<ThreadPool> pool_;  // owned pool (lazily created)
  ThreadPool* borrowed_ = nullptr;    // shared pool (never owned)
  ExecStats stats_;
};

}  // namespace bgr
