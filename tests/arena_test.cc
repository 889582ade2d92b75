// Arena + SolveScratch regression battery: the bump allocator's
// contract (alignment, reset-coalesce, stats), and the PR's headline
// guarantee — repeated solves and stream replays stop allocating
// after warm-up (zero steady-state arena growth), observable through
// Arena::Stats.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/coverage.h"
#include "core/greedy_sc.h"
#include "core/proportional.h"
#include "core/solve_scratch.h"
#include "gen/instance_gen.h"
#include "parallel/batch_solver.h"
#include "stream/replay.h"
#include "stream/stream_greedy.h"
#include "util/arena.h"

namespace mqd {
namespace {

TEST(Arena, AllocAlignsAndCounts) {
  Arena arena(/*initial_block_bytes=*/256);
  void* a = arena.Alloc(1, 1);
  void* b = arena.Alloc(8, 8);
  void* c = arena.Alloc(32, 32);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 32, 0u);
  EXPECT_GE(arena.stats().bytes_live, 1 + 8 + 32u);
  EXPECT_GE(arena.stats().bytes_peak, arena.stats().bytes_live);
  EXPECT_GE(arena.stats().block_allocs, 1u);
}

TEST(Arena, GrowsPastInitialBlockAndSpansStayValid) {
  Arena arena(/*initial_block_bytes=*/64);
  std::vector<std::span<int64_t>> spans;
  for (int i = 0; i < 32; ++i) {
    std::span<int64_t> s = arena.AllocSpan<int64_t>(16);
    for (size_t j = 0; j < s.size(); ++j) s[j] = i * 100 + int64_t(j);
    spans.push_back(s);
  }
  for (int i = 0; i < 32; ++i) {
    for (size_t j = 0; j < spans[i].size(); ++j) {
      ASSERT_EQ(spans[i][j], i * 100 + int64_t(j));
    }
  }
  EXPECT_GT(arena.stats().block_allocs, 1u);
}

TEST(Arena, ResetCoalescesToSingleBlockThenStopsAllocating) {
  Arena arena(/*initial_block_bytes=*/64);
  auto cycle = [&] {
    arena.Reset();
    for (int i = 0; i < 10; ++i) arena.AllocSpan<double>(100);
  };
  cycle();  // grows through several doubling blocks
  cycle();  // first post-coalesce cycle may still consolidate
  const uint64_t settled = arena.stats().block_allocs;
  const size_t held = arena.stats().bytes_held;
  for (int i = 0; i < 50; ++i) cycle();
  EXPECT_EQ(arena.stats().block_allocs, settled)
      << "steady-state cycles must not touch malloc";
  EXPECT_EQ(arena.stats().bytes_held, held);
  EXPECT_EQ(arena.stats().resets, 52u);
}

TEST(Arena, ZeroedSpanIsZero) {
  Arena arena;
  std::span<int32_t> s = arena.AllocZeroedSpan<int32_t>(1000);
  for (int32_t x : s) ASSERT_EQ(x, 0);
}

Instance MakeTestInstance(uint64_t seed) {
  InstanceGenConfig cfg;
  cfg.num_labels = 6;
  cfg.duration = 1200.0;
  cfg.posts_per_minute = 30.0;
  cfg.overlap_rate = 1.3;
  cfg.seed = seed;
  auto inst = GenerateInstance(cfg);
  MQD_CHECK(inst.ok());
  return std::move(inst).value();
}

/// The headline regression: >= 100 repeated greedy solves through the
/// thread-local SolveScratch reach a fixed point — no new blocks, no
/// held-bytes growth, one Reset per solve.
TEST(SolveScratch, RepeatedSolvesStopAllocatingAfterWarmup) {
  const Instance inst = MakeTestInstance(3);
  const UniformLambda model(40.0);
  const GreedySCSolver solver;

  auto solve_once = [&] {
    auto z = solver.Solve(inst, model);
    ASSERT_TRUE(z.ok());
    ASSERT_FALSE(z->empty());
  };
  for (int i = 0; i < 3; ++i) solve_once();  // warm-up

  const Arena::Stats& stats = SolveScratch::ThreadLocal().stats();
  const uint64_t blocks = stats.block_allocs;
  const size_t held = stats.bytes_held;
  const size_t peak = stats.bytes_peak;
  const uint64_t resets_before = stats.resets;
  for (int i = 0; i < 100; ++i) solve_once();
  EXPECT_EQ(stats.block_allocs, blocks)
      << "steady-state solves must perform zero arena growth";
  EXPECT_EQ(stats.bytes_held, held);
  EXPECT_EQ(stats.bytes_peak, peak);
  EXPECT_EQ(stats.resets, resets_before + 100);
}

/// Same fixed point for the variable-lambda exact path (its reach
/// rows ride the scratch arena too).
TEST(SolveScratch, VariableLambdaReachesSteadyStateToo) {
  const Instance inst = MakeTestInstance(5);
  ProportionalConfig config;
  config.lambda0 = 40.0;
  auto model = ComputeProportionalLambdas(inst, config);
  ASSERT_TRUE(model.ok());
  const GreedySCSolver solver;
  for (int i = 0; i < 3; ++i) {
    auto z = solver.Solve(inst, **model);
    ASSERT_TRUE(z.ok());
  }
  const Arena::Stats& stats = SolveScratch::ThreadLocal().stats();
  const uint64_t blocks = stats.block_allocs;
  for (int i = 0; i < 100; ++i) {
    auto z = solver.Solve(inst, **model);
    ASSERT_TRUE(z.ok());
  }
  EXPECT_EQ(stats.block_allocs, blocks);
}

/// Stream replays sharing one external arena: after warm-up, replay
/// cycles reuse the coalesced block and never grow it.
TEST(StreamArena, RepeatedReplaysStopAllocatingAfterWarmup) {
  const Instance inst = MakeTestInstance(7);
  const UniformLambda model(40.0);
  Arena arena;

  std::vector<Emission> golden;
  auto replay_once = [&](bool record) {
    arena.Reset();
    StreamGreedyProcessor proc(inst, model, /*tau=*/15.0,
                               /*stop_at_anchor=*/false, &arena);
    auto stats = RunStream(inst, &proc);
    ASSERT_TRUE(stats.ok());
    if (record) {
      golden = proc.emissions();
    } else {
      ASSERT_EQ(proc.emissions(), golden);
    }
  };
  replay_once(true);
  for (int i = 0; i < 2; ++i) replay_once(false);  // warm-up

  const uint64_t blocks = arena.stats().block_allocs;
  const size_t held = arena.stats().bytes_held;
  for (int i = 0; i < 100; ++i) replay_once(false);
  EXPECT_EQ(arena.stats().block_allocs, blocks)
      << "steady-state replays must perform zero arena growth";
  EXPECT_EQ(arena.stats().bytes_held, held);
}

/// An owned-arena processor behaves identically to a shared-arena one
/// (allocation backing is invisible to the algorithm).
TEST(StreamArena, OwnedAndSharedArenaEmitIdentically) {
  const Instance inst = MakeTestInstance(11);
  const UniformLambda model(40.0);
  StreamGreedyProcessor owned(inst, model, 15.0, true);
  auto s1 = RunStream(inst, &owned);
  ASSERT_TRUE(s1.ok());

  Arena arena;
  StreamGreedyProcessor shared(inst, model, 15.0, true, &arena);
  auto s2 = RunStream(inst, &shared);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(owned.emissions(), shared.emissions());
}

/// A serial BatchSolver runs every job on the calling thread's
/// SolveScratch: 100+ jobs keep its block count flat after warm-up
/// while its resets keep climbing.
TEST(SolveScratch, BatchSolverSteadyStateStopsAllocating) {
  const Instance inst = MakeTestInstance(13);
  const BatchSolver batch(1);  // serial: deterministic single scratch
  std::vector<BatchJob> jobs(4);
  for (BatchJob& job : jobs) {
    job.instance = &inst;
    job.kind = SolverKind::kGreedySC;
    job.lambda = 40.0;
  }

  auto run_batch = [&] {
    auto results = batch.SolveAll(jobs);
    for (const BatchJobResult& r : results) ASSERT_TRUE(r.status.ok());
  };
  for (int i = 0; i < 3; ++i) run_batch();  // warm-up

  const Arena::Stats& stats = SolveScratch::ThreadLocal().stats();
  const uint64_t blocks = stats.block_allocs;
  const uint64_t resets = stats.resets;
  for (int i = 0; i < 30; ++i) run_batch();  // 120 further solves
  EXPECT_EQ(stats.block_allocs, blocks)
      << "steady-state batches must not grow the arena";
  EXPECT_GE(stats.resets, resets + 120);
  EXPECT_GT(stats.bytes_peak, 0u);
}

}  // namespace
}  // namespace mqd
