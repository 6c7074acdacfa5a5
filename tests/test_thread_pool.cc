#include "common/thread_pool.h"

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dcs {
namespace {

// Adds one to hits[i] for every index i a shard covers.
std::function<void(const ShardRange&)> CountHits(
    std::vector<std::atomic<int>>* hits) {
  return [hits](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      (*hits)[i].fetch_add(1);
    }
  };
}

TEST(ThreadPoolTest, RunsEveryShardOfABatch) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  RunShards(&pool, MakeShards(100, 100),
            [&counter](const ShardRange&) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, CoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  RunShards(&pool, ShardsFor(&pool, hits.size()), CountHits(&hits));
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroCountIsNoop) {
  ThreadPool pool(2);
  RunShards(&pool, ShardsFor(&pool, 0), [](const ShardRange&) { FAIL(); });
  RunShards(nullptr, ShardsFor(nullptr, 0), [](const ShardRange&) { FAIL(); });
}

TEST(ThreadPoolTest, CountSmallerThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> sum{0};
  RunShards(&pool, ShardsFor(&pool, 3), [&sum](const ShardRange& shard) {
    for (std::size_t i = shard.begin; i < shard.end; ++i) {
      sum.fetch_add(static_cast<int>(i));
    }
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2);
}

TEST(ThreadPoolTest, DestructorJoinsCleanlyAfterABatch) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    RunShards(&pool, MakeShards(50, 50),
              [&counter](const ShardRange&) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(5);
  RunShards(&pool, MakeShards(hits.size(), hits.size()), CountHits(&hits));
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(MakeShardsTest, CoversRangeExactlyOnce) {
  for (const std::size_t count : {1u, 2u, 7u, 64u, 1000u}) {
    for (const std::size_t max_shards : {1u, 3u, 8u, 2000u}) {
      const auto shards = MakeShards(count, max_shards);
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(shards.size(), std::min(count, max_shards));
      std::size_t next = 0;
      for (std::size_t s = 0; s < shards.size(); ++s) {
        EXPECT_EQ(shards[s].index, s);
        EXPECT_EQ(shards[s].begin, next);
        EXPECT_LT(shards[s].begin, shards[s].end) << "empty shard";
        next = shards[s].end;
      }
      EXPECT_EQ(next, count);
    }
  }
}

TEST(MakeShardsTest, ZeroCountAndZeroShards) {
  EXPECT_TRUE(MakeShards(0, 4).empty());
  // max_shards clamps to 1 rather than silently dropping the range.
  const auto shards = MakeShards(5, 0);
  ASSERT_EQ(shards.size(), 1u);
  EXPECT_EQ(shards[0].begin, 0u);
  EXPECT_EQ(shards[0].end, 5u);
}

TEST(MakeShardsTest, NearEqualSizes) {
  const auto shards = MakeShards(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  // 10 = 4 + 3 + 3.
  EXPECT_EQ(shards[0].end - shards[0].begin, 4u);
  EXPECT_EQ(shards[1].end - shards[1].begin, 3u);
  EXPECT_EQ(shards[2].end - shards[2].begin, 3u);
}

TEST(ShardsForTest, FourShardsPerThreadOnAPoolOneWithout) {
  ThreadPool pool(3);
  EXPECT_EQ(ShardsFor(&pool, 1000).size(), 12u);
  EXPECT_EQ(ShardsFor(&pool, 5).size(), 5u);
  const auto serial = ShardsFor(nullptr, 1000);
  ASSERT_EQ(serial.size(), 1u);
  EXPECT_EQ(serial[0].begin, 0u);
  EXPECT_EQ(serial[0].end, 1000u);
}

TEST(ThreadPoolTest, NullPoolRunsInlineInShardOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  RunShards(nullptr, MakeShards(6, 6), [&](const ShardRange& shard) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(shard.index);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPoolTest, OneShardPerItemCoversEveryItem) {
  // The ingest drain's shape: one shard per connection.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(37);
  RunShards(&pool, MakeShards(hits.size(), hits.size()), CountHits(&hits));
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "item " << i;
  }
}

TEST(ThreadPoolTest, SingleShardRunsOnTheCaller) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> counter{0};
  RunShards(&pool, MakeShards(1, 1), [&](const ShardRange&) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    counter.fetch_add(1);
  });
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, NestedRunShardsRunsInlineInShardOrder) {
  // RunShards from a worker thread must not deadlock waiting on itself; it
  // degrades to inline execution on that worker, in shard order. (A
  // two-shard batch, because a single shard runs on the caller and would
  // not reach a worker thread at all.)
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  std::atomic<int> other{0};
  RunShards(&pool, MakeShards(2, 2), [&](const ShardRange& outer) {
    if (outer.index == 1) {
      other.fetch_add(1);
      return;
    }
    const std::thread::id worker = std::this_thread::get_id();
    EXPECT_NE(worker, caller);
    RunShards(&pool, MakeShards(5, 5), [&](const ShardRange& inner) {
      EXPECT_EQ(std::this_thread::get_id(), worker);
      order.push_back(inner.index);
    });
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(other.load(), 1);
}

TEST(ThreadPoolTest, NestedRunShardsRunsInline) {
  // Every outer shard fans out again from its worker; all of it completes.
  ThreadPool pool(3);
  std::atomic<int> inner_total{0};
  std::atomic<int> outer_calls{0};
  RunShards(&pool, MakeShards(6, 6), [&](const ShardRange&) {
    outer_calls.fetch_add(1);
    RunShards(&pool, ShardsFor(&pool, 50), [&](const ShardRange& shard) {
      inner_total.fetch_add(static_cast<int>(shard.end - shard.begin));
    });
  });
  EXPECT_EQ(outer_calls.load(), 6);
  EXPECT_EQ(inner_total.load(), 6 * 50);
}

TEST(ThreadPoolTest, BackToBackRuns) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    RunShards(&pool, ShardsFor(&pool, 101), [&sum](const ShardRange& shard) {
      for (std::size_t i = shard.begin; i < shard.end; ++i) sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), 101u * 100u / 2u) << "round " << round;
  }
}

TEST(ThreadPoolTest, ConcurrentRunShardsCallersAreIndependent) {
  // Two external threads drive the same pool at once; each caller's
  // RunShards must return only after its own shards completed.
  ThreadPool pool(4);
  std::atomic<int> a_done{0};
  std::atomic<int> b_done{0};
  std::thread ta([&] {
    RunShards(&pool, ShardsFor(&pool, 64), [&a_done](const ShardRange& shard) {
      a_done.fetch_add(static_cast<int>(shard.end - shard.begin));
    });
    EXPECT_EQ(a_done.load(), 64);
  });
  std::thread tb([&] {
    RunShards(&pool, ShardsFor(&pool, 32), [&b_done](const ShardRange& shard) {
      b_done.fetch_add(static_cast<int>(shard.end - shard.begin));
    });
    EXPECT_EQ(b_done.load(), 32);
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a_done.load(), 64);
  EXPECT_EQ(b_done.load(), 32);
}

TEST(ThreadPoolTest, BackToBackTwoShardRunsFromManyCallersSeeTheirOwnShards) {
  // The completion-latch regression: four non-worker threads each issue
  // 10k back-to-back two-shard runs of trivial work on a two-thread pool.
  // Each call's flags live in that call's stack frame and are plain ints:
  // a caller that returned before its last shard finished (or a worker
  // still touching a returned caller's frame) shows up here as a missing
  // flag, as a TSan race, or as an ASan stack-use-after-return.
  ThreadPool pool(2);
  const std::vector<ShardRange> shards = MakeShards(2, 2);
  std::atomic<int> incomplete{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int call = 0; call < 10000; ++call) {
        std::array<int, 2> done{};
        RunShards(&pool, shards,
                  [&done](const ShardRange& shard) { done[shard.index] = 1; });
        if (done[0] != 1 || done[1] != 1) incomplete.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(incomplete.load(), 0);
}

TEST(ThreadPoolTest, ManyMoreShardsThanThreads) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10000);
  RunShards(&pool, MakeShards(hits.size(), hits.size()), CountHits(&hits));
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Teardown edges. These are the races TSan is pointed at explicitly in CI
// (ctest -R "test_sync|test_thread_pool" in the sanitizer job): destruction
// overlapping a batch in progress, nested shard runs during shutdown, and
// caller release ordering against the final drain.
// ---------------------------------------------------------------------------

// Blocks until `flag` is set; the tests below use it to start destroying a
// pool only once a batch is known to be running on it.
void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load()) std::this_thread::yield();
}

TEST(ThreadPoolTeardownTest, DestructorWaitsOutABatchStillQueued) {
  // Destroying the pool while another thread's batch is still queued
  // behind a slow head shard: the destructor lets the batch finish, and
  // its caller sees every shard done.
  std::atomic<int> counter{0};
  std::atomic<bool> started{false};
  std::thread caller;
  {
    ThreadPool pool(1);
    caller = std::thread([&] {
      RunShards(&pool, MakeShards(101, 101), [&](const ShardRange& shard) {
        if (shard.index == 0) {
          started.store(true);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return;
        }
        counter.fetch_add(1);
      });
      EXPECT_EQ(counter.load(), 100);
    });
    AwaitFlag(started);
  }
  caller.join();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTeardownTest, NestedRunShardsDuringShutdownRunsInline) {
  // A shard that fans out with RunShards while the destructor has already
  // flagged shutdown must complete inline: the nested call may not queue
  // (new batches are refused during teardown) and may not deadlock
  // waiting for workers that are busy winding down.
  std::atomic<int> inner{0};
  std::atomic<bool> started{false};
  std::thread caller;
  {
    ThreadPool pool(2);
    caller = std::thread([&] {
      RunShards(&pool, MakeShards(2, 2), [&](const ShardRange& shard) {
        if (shard.index != 0) return;
        started.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        RunShards(&pool, ShardsFor(&pool, 64), [&](const ShardRange& s) {
          inner.fetch_add(static_cast<int>(s.end - s.begin));
        });
      });
    });
    // Leave scope as soon as the shard runs: the destructor starts while it
    // sleeps, so the nested RunShards sees shutting_down_ already set.
    AwaitFlag(started);
  }
  caller.join();
  EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPoolTeardownTest, CallersAreReleasedBeforeTeardown) {
  // Callers blocked in RunShards while the final shards drain must all be
  // released by the workers' broadcasts, immediately ahead of the
  // destructor's own shutdown handshake on the same mutex.
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c) {
      callers.emplace_back([&] {
        std::atomic<int> mine{0};
        RunShards(&pool, MakeShards(8, 8), [&](const ShardRange&) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          mine.fetch_add(1);
          counter.fetch_add(1);
        });
        EXPECT_EQ(mine.load(), 8);  // Returned after its own drain.
      });
    }
    for (std::thread& t : callers) t.join();
  }
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace dcs
