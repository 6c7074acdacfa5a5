#ifndef DCS_COMMON_THREAD_POOL_H_
#define DCS_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dcs {

/// Contiguous slice [begin, end) of an index space, with its position in the
/// partition. The analysis engines compute per-shard partial results indexed
/// by `index` and merge them in ascending shard order, which is what makes
/// the parallel pipelines deterministic at any thread count.
struct ShardRange {
  std::size_t index = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Partitions [0, count) into at most `max_shards` (clamped to >= 1)
/// non-empty contiguous ranges of near-equal size (the first `count %
/// shards` ranges are one element longer). Deterministic in (count,
/// max_shards) only — never in the number of threads that will run the
/// shards.
std::vector<ShardRange> MakeShards(std::size_t count, std::size_t max_shards);

class ThreadPool;

/// Runs fn(shard) for every shard and blocks until all have completed —
/// the pool's one way of running work. `shards` must be a partition as
/// MakeShards builds it (index == position, contiguous ranges). The shards
/// run inline on the caller, in shard order, when `pool` is null, when
/// there is a single shard, or when the caller is one of `pool`'s own
/// workers (a nested call, which would otherwise wait on itself).
/// Otherwise they are spread over the pool's workers. Shard contents and
/// merge order never depend on which path ran, so results are identical;
/// only the schedule changes.
void RunShards(ThreadPool* pool, const std::vector<ShardRange>& shards,
               const std::function<void(const ShardRange&)>& fn);

/// \brief Fixed-size worker pool.
///
/// The paper notes (Section IV-D) that the analysis center's work is
/// embarrassingly parallel and suggests spreading it over many CPUs. Every
/// parallel stage runs through RunShards: the aligned pipeline (weight
/// screen, hopefuls iterations, core scan), the unaligned one (row
/// weights, lambda calibration, pair scan, min-degree peeling, survivor
/// expansion) and the ingest plane (connection drain, frame decode). See
/// docs/PARALLELISM.md for the sharding and merge architecture.
///
/// A RunShards call queues one (batch, shard index) item per shard; the
/// batch — the caller's shards, its function and a count of unfinished
/// shards — lives on the caller's stack. Workers decrement that count and
/// signal its completion only under the pool's own `mu_`, and the caller
/// reads it under the same mutex, so once the caller sees zero no worker
/// touches the batch again and the caller may return.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Refuses new batches, waits out every RunShards call already in
  /// progress on this pool, and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t num_threads() const { return threads_.size(); }

 private:
  friend void RunShards(ThreadPool* pool,
                        const std::vector<ShardRange>& shards,
                        const std::function<void(const ShardRange&)>& fn);

  /// One RunShards call spread over the workers.
  struct Batch {
    const std::vector<ShardRange>* shards;
    const std::function<void(const ShardRange&)>* fn;
    /// Shards not yet finished. Read and written only under the owning
    /// pool's `mu_` (which TSA cannot name from here).
    std::size_t remaining;
  };
  struct Item {
    Batch* batch = nullptr;
    std::size_t shard = 0;
  };

  /// Queues every shard of `batch` and blocks until its count drops to 0.
  void RunBatch(Batch* batch);
  void WorkerLoop();

  Mutex mu_{"ThreadPool.mu"};
  CondVar work_available_;
  /// Signalled whenever some batch's count drops to 0 (every waiting
  /// caller re-tests its own batch) and when the last caller leaves a pool
  /// being destroyed.
  CondVar batch_done_;
  std::queue<Item> queue_ DCS_GUARDED_BY(mu_);
  /// Callers inside RunBatch; the destructor waits for it to reach 0.
  std::size_t callers_ DCS_GUARDED_BY(mu_) = 0;
  bool shutting_down_ DCS_GUARDED_BY(mu_) = false;
  /// Written only by the constructor, joined only by the destructor; size()
  /// is read concurrently but the vector is immutable between the two, so
  /// no lock applies (deliberately unguarded).
  std::vector<std::thread> threads_;
};

/// The partition the parallel stages run: MakeShards(count, 4 *
/// pool->num_threads()) on a pool, the one-shard plan MakeShards(count, 1)
/// without one. Oversharding by 4x lets the queue load-balance uneven
/// shards (e.g. the triangular pair pass).
std::vector<ShardRange> ShardsFor(const ThreadPool* pool, std::size_t count);

}  // namespace dcs

#endif  // DCS_COMMON_THREAD_POOL_H_
