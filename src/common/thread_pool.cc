#include "common/thread_pool.h"

#include <algorithm>

#include "common/logging.h"

namespace dcs {
namespace {

// Which pool (if any) owns the calling thread. Lets RunShards degrade to
// inline execution when invoked from one of its own workers, where waiting
// would deadlock (the caller's own shard could never be waited out).
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

std::vector<ShardRange> MakeShards(std::size_t count, std::size_t max_shards) {
  std::vector<ShardRange> shards;
  if (count == 0) return shards;
  const std::size_t n = std::min(count, std::max<std::size_t>(max_shards, 1));
  const std::size_t base = count / n;
  const std::size_t extra = count % n;  // First `extra` shards get +1.
  shards.reserve(n);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    shards.push_back(ShardRange{s, begin, begin + len});
    begin += len;
  }
  DCS_CHECK(begin == count);
  return shards;
}

std::vector<ShardRange> ShardsFor(const ThreadPool* pool, std::size_t count) {
  return MakeShards(count, pool != nullptr ? 4 * pool->num_threads() : 1);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  DCS_CHECK(num_threads >= 1);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
    // The workers keep running the queue meanwhile, so every batch in
    // progress completes and its caller leaves.
    while (callers_ != 0) batch_done_.Wait(&lock);
  }
  work_available_.SignalAll();
  for (std::thread& t : threads_) t.join();
}

void RunShards(ThreadPool* pool, const std::vector<ShardRange>& shards,
               const std::function<void(const ShardRange&)>& fn) {
  // The deterministic-merge contract: shard indices are their positions and
  // ranges tile [begin, end) without gaps, so per-shard partials can be
  // merged in ascending index order regardless of execution schedule.
  for (std::size_t s = 0; s < shards.size(); ++s) {
    DCS_DCHECK(shards[s].index == s)
        << "shard " << s << " carries index " << shards[s].index;
    DCS_DCHECK(shards[s].begin <= shards[s].end)
        << "shard " << s << " has inverted range";
    DCS_DCHECK(s == 0 || shards[s].begin == shards[s - 1].end)
        << "shard " << s << " is not contiguous with its predecessor";
  }
  if (pool == nullptr || shards.size() <= 1 || current_worker_pool == pool) {
    for (const ShardRange& shard : shards) fn(shard);
    return;
  }
  ThreadPool::Batch batch{&shards, &fn, shards.size()};
  pool->RunBatch(&batch);
}

void ThreadPool::RunBatch(Batch* batch) {
  MutexLock lock(&mu_);
  DCS_CHECK(!shutting_down_) << "RunShards on a pool being destroyed";
  ++callers_;
  for (std::size_t s = 0; s < batch->shards->size(); ++s) {
    queue_.push(Item{batch, s});
  }
  work_available_.SignalAll();
  while (batch->remaining != 0) batch_done_.Wait(&lock);
  if (--callers_ == 0 && shutting_down_) batch_done_.SignalAll();
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  // The batch of the shard this worker just ran; its count is settled at
  // the top of the next iteration, under the same lock that takes the next
  // item, so each shard costs one lock round trip.
  Batch* finished = nullptr;
  while (true) {
    Item item;
    {
      MutexLock lock(&mu_);
      if (finished != nullptr && --finished->remaining == 0) {
        batch_done_.SignalAll();
      }
      while (!shutting_down_ && queue_.empty()) work_available_.Wait(&lock);
      if (queue_.empty()) return;  // shutting_down_ and drained.
      item = queue_.front();
      queue_.pop();
    }
    (*item.batch->fn)((*item.batch->shards)[item.shard]);
    finished = item.batch;
  }
}

}  // namespace dcs
