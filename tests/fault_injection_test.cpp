// Failure semantics of the execution engine, driven by the deterministic
// fault-injecting tool registry: every failure mode crossed with throwing,
// hanging (timed-out) and corrupt-output faults, retry/backoff behaviour on
// the virtual clock, fan-out survival under best-effort, failure records in
// the history database, and the interplay with memoization and versioning.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "fault_test_util.hpp"
#include "support/error.hpp"

namespace herc::faulttest {
namespace {

using data::InstanceId;
using exec::ExecOptions;
using exec::ExecResult;
using exec::Executor;
using exec::FailureMode;
using exec::TaskStatus;
using history::InstanceStatus;
using support::ExecError;
using tools::FaultInjectingRegistry;
using tools::FaultKind;

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// The Fig. 6 shape reduced to its essence: two disjoint branches
/// (LSrc -> LD1 -> LD2 and RSrc -> RD1 -> RD2), four task groups.
struct TwoBranch {
  World w;
  graph::TaskGraph flow;
  graph::NodeId ld1, ld2, rd1, rd2;

  TwoBranch() : flow(w.schema, "two-branch") {
    add_chain(w, "L", 2);
    add_chain(w, "R", 2);
    flow.add_node("LD2");
    flow.add_node("RD2");
    expand_all(flow);
    bind_leaves(w, flow);
    ld1 = node_of(flow, "LD1");
    ld2 = node_of(flow, "LD2");
    rd1 = node_of(flow, "RD1");
    rd2 = node_of(flow, "RD2");
  }
};

TEST(FaultInjectionTest, NoFaultsArmedRunsCleanly) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools, 7);
  Executor ex(tb.w.db, faulty);
  const ExecResult r = ex.run(tb.flow);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.tasks_run, 4u);
  EXPECT_EQ(faulty.faults_fired(), 0u);
  EXPECT_EQ(faulty.invocations("LT1.enc"), 1u);
  EXPECT_EQ(tb.w.db.payload(r.single(tb.ld2)), "seed:LSrc>LT1>LT2");
  EXPECT_TRUE(tb.w.db.failures().empty());
}

TEST(FaultInjectionTest, FailFastThrowAbortsAndRecordsTheFailure) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  faulty.inject({"LT1.enc", 0, FaultKind::kThrow, {}});
  Executor ex(tb.w.db, faulty);
  try {
    ex.run(tb.flow);
    FAIL() << "expected ExecError";
  } catch (const ExecError& e) {
    EXPECT_TRUE(contains(e.what(), "injected fault")) << e.what();
  }
  // The failure is in the history even though the run aborted.
  const auto failures = tb.w.db.failures();
  ASSERT_EQ(failures.size(), 1u);
  const history::Instance& rec = tb.w.db.instance(failures[0]);
  EXPECT_EQ(rec.status, InstanceStatus::kFailed);
  EXPECT_EQ(tb.w.schema.entity_name(rec.type), "LD1");
  // Failed outputs do not exist as design data...
  EXPECT_TRUE(tb.w.db.instances_of(rec.type).empty());
  // ...but are queryable on request.
  EXPECT_EQ(tb.w.db.instances_of(rec.type, true, true).size(), 1u);
}

// Acceptance: a continue_branches run of a two-branch flow with one branch
// faulted records the surviving branch's instances plus queryable failure
// records carrying the attempt's derivation.  Serial and parallel agree.
TEST(FaultInjectionTest, ContinueBranchesPreservesTheDisjointBranch) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    TwoBranch tb;
    FaultInjectingRegistry faulty(tb.w.tools);
    faulty.inject({"LT1.enc", 0, FaultKind::kThrow, {}});
    Executor ex(tb.w.db, faulty);
    ExecOptions opt;
    opt.parallel = parallel;
    opt.fault.mode = FailureMode::kContinueBranches;
    const ExecResult r = ex.run(tb.flow, opt);

    EXPECT_EQ(r.tasks_run, 2u);  // the whole right branch
    EXPECT_EQ(r.tasks_failed, 1u);
    EXPECT_EQ(r.tasks_skipped, 1u);
    EXPECT_FALSE(r.complete());
    EXPECT_EQ(tb.w.db.payload(r.single(tb.rd1)), "seed:RSrc>RT1");
    EXPECT_EQ(tb.w.db.payload(r.single(tb.rd2)), "seed:RSrc>RT1>RT2");
    EXPECT_TRUE(r.of(tb.ld1).empty());
    EXPECT_TRUE(r.of(tb.ld2).empty());

    ASSERT_NE(r.outcome(tb.ld1), nullptr);
    EXPECT_EQ(r.outcome(tb.ld1)->status, TaskStatus::kFailed);
    ASSERT_NE(r.outcome(tb.ld2), nullptr);
    EXPECT_EQ(r.outcome(tb.ld2)->status, TaskStatus::kSkipped);
    ASSERT_NE(r.outcome(tb.rd2), nullptr);
    EXPECT_EQ(r.outcome(tb.rd2)->status, TaskStatus::kOk);

    // Two failure records: the failed LD1 attempt (with the derivation it
    // was attempted with) and the skipped LD2 task.
    const auto failures = tb.w.db.failures();
    ASSERT_EQ(failures.size(), 2u);
    const history::Instance& failed = tb.w.db.instance(failures[0]);
    EXPECT_EQ(failed.status, InstanceStatus::kFailed);
    EXPECT_EQ(tb.w.schema.entity_name(failed.type), "LD1");
    EXPECT_EQ(failed.derivation.task, "LT1.enc");
    EXPECT_TRUE(contains(failed.comment, "injected fault")) << failed.comment;
    ASSERT_EQ(failed.derivation.inputs.size(), 1u);
    EXPECT_EQ(tb.w.db.payload(failed.derivation.inputs[0]), "seed:LSrc");
    const history::Instance& skipped = tb.w.db.instance(failures[1]);
    EXPECT_EQ(skipped.status, InstanceStatus::kSkipped);
    EXPECT_EQ(tb.w.schema.entity_name(skipped.type), "LD2");
    EXPECT_TRUE(contains(skipped.comment, "task producing 'LD1' failed"))
        << skipped.comment;
  }
}

// Every failure mode crossed with every fault kind on the same two-branch
// flow: fail_fast throws; the continue modes always finish the right branch
// and fail/skip the left one.
TEST(FaultInjectionTest, EveryModeHandlesEveryFaultKind) {
  for (const FailureMode mode :
       {FailureMode::kFailFast, FailureMode::kContinueBranches,
        FailureMode::kBestEffort}) {
    for (const FaultKind kind :
         {FaultKind::kThrow, FaultKind::kHang, FaultKind::kCorrupt}) {
      SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)) +
                   " kind=" + std::to_string(static_cast<int>(kind)));
      TwoBranch tb;
      FaultInjectingRegistry faulty(tb.w.tools);
      faulty.inject({"LT1.enc", 0, kind, std::chrono::milliseconds{60}});
      Executor ex(tb.w.db, faulty);
      ExecOptions opt;
      opt.fault.mode = mode;
      if (kind == FaultKind::kHang) {
        opt.fault.timeout = std::chrono::milliseconds{15};
      }
      if (mode == FailureMode::kFailFast) {
        EXPECT_THROW(ex.run(tb.flow, opt), ExecError);
        continue;
      }
      const ExecResult r = ex.run(tb.flow, opt);
      EXPECT_EQ(r.tasks_failed, 1u);
      EXPECT_EQ(r.tasks_skipped, 1u);
      EXPECT_EQ(tb.w.db.payload(r.single(tb.rd2)), "seed:RSrc>RT1>RT2");
      ASSERT_NE(r.outcome(tb.ld1), nullptr);
      EXPECT_EQ(r.outcome(tb.ld1)->status, TaskStatus::kFailed);
      ASSERT_EQ(r.outcome(tb.ld1)->errors.size(), 1u);
      const std::string& error = r.outcome(tb.ld1)->errors[0];
      switch (kind) {
        case FaultKind::kThrow:
          EXPECT_TRUE(contains(error, "injected fault")) << error;
          break;
        case FaultKind::kHang:
          EXPECT_TRUE(contains(error, "timed out after 15ms")) << error;
          break;
        case FaultKind::kCorrupt:
          EXPECT_TRUE(contains(error, "did not produce a 'LD1'")) << error;
          break;
      }
    }
  }
}

TEST(FaultInjectionTest, HangWithoutTimeoutMerelyDelays) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  faulty.inject({"LT1.enc", 0, FaultKind::kHang, std::chrono::milliseconds{20}});
  Executor ex(tb.w.db, faulty);
  const ExecResult r = ex.run(tb.flow);  // no timeout configured
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.tasks_run, 4u);
  EXPECT_EQ(faulty.faults_fired(), 1u);
  EXPECT_EQ(tb.w.db.payload(r.single(tb.ld2)), "seed:LSrc>LT1>LT2");
}

TEST(FaultInjectionTest, RetryRecoversFromATransientFault) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  faulty.inject({"LT1.enc", 0, FaultKind::kThrow, {}});  // first call only
  Executor ex(tb.w.db, faulty);
  ExecOptions opt;
  opt.fault.max_retries = 1;
  const ExecResult r = ex.run(tb.flow, opt);  // fail_fast, but retry saves it
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.tasks_run, 4u);
  ASSERT_NE(r.outcome(tb.ld1), nullptr);
  EXPECT_EQ(r.outcome(tb.ld1)->attempts, 2u);
  EXPECT_EQ(faulty.invocations("LT1.enc"), 2u);
  EXPECT_EQ(faulty.faults_fired(), 1u);
  // A recovered task leaves no failure record behind.
  EXPECT_TRUE(tb.w.db.failures().empty());
}

TEST(FaultInjectionTest, BackoffIsExponentialOnTheVirtualClock) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  for (std::size_t inv = 0; inv < 3; ++inv) {
    faulty.inject({"LT1.enc", inv, FaultKind::kThrow, {}});
  }
  support::ManualClock sleeper(0, 0);  // advanced only by sleep_for
  Executor ex(tb.w.db, faulty);
  ExecOptions opt;
  opt.fault.mode = FailureMode::kContinueBranches;
  opt.fault.max_retries = 2;
  opt.fault.backoff = std::chrono::milliseconds{10};
  opt.fault.backoff_multiplier = 2.0;
  opt.fault.clock = &sleeper;
  const ExecResult r = ex.run(tb.flow, opt);
  ASSERT_NE(r.outcome(tb.ld1), nullptr);
  EXPECT_EQ(r.outcome(tb.ld1)->status, TaskStatus::kFailed);
  EXPECT_EQ(r.outcome(tb.ld1)->attempts, 3u);
  // Waits between the three attempts: 10ms, then 10ms * 2 = 20ms — all
  // virtual, observed as exactly 30ms on the clock.
  EXPECT_EQ(sleeper.current_micros(), 30000);
}

// The satellite bugfix: a parallel fail-fast run aggregates *every* failure
// observed before the abort instead of keeping just the first exception.
// Both branch roots start immediately and both time out, so both failures
// must surface in the thrown error.
TEST(FaultInjectionTest, ParallelFailFastAggregatesAllObservedFailures) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  faulty.inject({"LT1.enc", 0, FaultKind::kHang, std::chrono::milliseconds{150}});
  faulty.inject({"RT1.enc", 0, FaultKind::kHang, std::chrono::milliseconds{150}});
  Executor ex(tb.w.db, faulty);
  ExecOptions opt;
  opt.parallel = true;
  opt.max_threads = 4;
  opt.fault.timeout = std::chrono::milliseconds{20};
  try {
    ex.run(tb.flow, opt);
    FAIL() << "expected ExecError";
  } catch (const ExecError& e) {
    const std::string message = e.what();
    EXPECT_TRUE(contains(message, "2 tasks failed")) << message;
    EXPECT_TRUE(contains(message, "'LT1.enc' timed out")) << message;
    EXPECT_TRUE(contains(message, "'RT1.enc' timed out")) << message;
  }
  EXPECT_EQ(tb.w.db.failures().size(), 2u);
}

// Fan-out: the same task bound to a three-seed instance set, with the
// second combination faulted.
TEST(FaultInjectionTest, BestEffortKeepsSurvivingFanOutCombinations) {
  World w;
  graph::TaskGraph flow(w.schema, "fan-out");
  add_chain(w, "L", 2);
  flow.add_node("LD2");
  expand_all(flow);
  bind_leaves(w, flow);
  const graph::NodeId src = node_of(flow, "LSrc");
  const graph::NodeId ld1 = node_of(flow, "LD1");
  const graph::NodeId ld2 = node_of(flow, "LD2");
  const schema::EntityTypeId src_type = flow.node(src).type;
  std::vector<InstanceId> seeds;
  for (int i = 0; i < 3; ++i) {
    seeds.push_back(w.db.import_instance(src_type,
                                         "seed" + std::to_string(i),
                                         "s" + std::to_string(i), "tester"));
  }
  flow.bind_set(src, seeds);

  FaultInjectingRegistry faulty(w.tools);
  faulty.inject({"LT1.enc", 1, FaultKind::kThrow, {}});  // second combination
  Executor ex(w.db, faulty);
  ExecOptions opt;
  opt.fault.mode = FailureMode::kBestEffort;
  const ExecResult r = ex.run(flow, opt);

  ASSERT_NE(r.outcome(ld1), nullptr);
  EXPECT_EQ(r.outcome(ld1)->status, TaskStatus::kPartial);
  EXPECT_EQ(r.outcome(ld1)->combinations_ok, 2u);
  EXPECT_EQ(r.outcome(ld1)->combinations_failed, 1u);
  EXPECT_EQ(r.of(ld1).size(), 2u);
  // The dependent task runs over the two survivors.
  ASSERT_NE(r.outcome(ld2), nullptr);
  EXPECT_EQ(r.outcome(ld2)->status, TaskStatus::kOk);
  EXPECT_EQ(r.of(ld2).size(), 2u);
  EXPECT_EQ(r.tasks_failed, 1u);
  EXPECT_EQ(r.tasks_skipped, 0u);
  ASSERT_EQ(w.db.failures().size(), 1u);
  EXPECT_EQ(w.db.payload(
                w.db.instance(w.db.failures()[0]).derivation.inputs[0]),
            "s1");
}

TEST(FaultInjectionTest, ContinueBranchesAbandonsAFanOutTaskOnFirstFailure) {
  World w;
  graph::TaskGraph flow(w.schema, "fan-out");
  add_chain(w, "L", 2);
  flow.add_node("LD2");
  expand_all(flow);
  bind_leaves(w, flow);
  const graph::NodeId src = node_of(flow, "LSrc");
  const graph::NodeId ld1 = node_of(flow, "LD1");
  const graph::NodeId ld2 = node_of(flow, "LD2");
  const schema::EntityTypeId src_type = flow.node(src).type;
  std::vector<InstanceId> seeds;
  for (int i = 0; i < 3; ++i) {
    seeds.push_back(w.db.import_instance(src_type,
                                         "seed" + std::to_string(i),
                                         "s" + std::to_string(i), "tester"));
  }
  flow.bind_set(src, seeds);

  FaultInjectingRegistry faulty(w.tools);
  faulty.inject({"LT1.enc", 1, FaultKind::kThrow, {}});
  Executor ex(w.db, faulty);
  ExecOptions opt;
  opt.fault.mode = FailureMode::kContinueBranches;
  const ExecResult r = ex.run(flow, opt);

  // The first combination's product stays recorded, but the task counts as
  // failed and its dependent is skipped (no partial propagation).
  ASSERT_NE(r.outcome(ld1), nullptr);
  EXPECT_EQ(r.outcome(ld1)->status, TaskStatus::kFailed);
  EXPECT_EQ(r.outcome(ld1)->combinations_ok, 1u);
  EXPECT_EQ(r.of(ld1).size(), 1u);
  ASSERT_NE(r.outcome(ld2), nullptr);
  EXPECT_EQ(r.outcome(ld2)->status, TaskStatus::kSkipped);
  EXPECT_TRUE(r.of(ld2).empty());
  EXPECT_EQ(r.tasks_skipped, 1u);
}

// Failure records must be invisible to memoization and versioning: a rerun
// with reuse enabled reuses the surviving branch and re-runs the failed one.
TEST(FaultInjectionTest, FailureRecordsAreInvisibleToReuseAndVersions) {
  TwoBranch tb;
  FaultInjectingRegistry faulty(tb.w.tools);
  faulty.inject({"LT1.enc", 0, FaultKind::kThrow, {}});
  Executor ex(tb.w.db, faulty);
  ExecOptions opt;
  opt.fault.mode = FailureMode::kContinueBranches;
  const ExecResult first = ex.run(tb.flow, opt);
  EXPECT_FALSE(first.complete());
  ASSERT_EQ(tb.w.db.failures().size(), 2u);
  const InstanceId failed_ld1 = tb.w.db.failures()[0];
  EXPECT_FALSE(tb.w.db.edit_parent(failed_ld1).has_value());
  EXPECT_FALSE(tb.w.db.superseded(failed_ld1));

  // Second run: the fault was armed for invocation 0 only, so LT1 now
  // succeeds; the right branch is satisfied from history.
  opt.reuse_existing = true;
  const ExecResult second = ex.run(tb.flow, opt);
  EXPECT_TRUE(second.complete());
  EXPECT_EQ(second.tasks_reused, 2u);  // RD1 and RD2
  EXPECT_EQ(second.tasks_run, 2u);     // LD1 and LD2, for real this time
  const auto ld1_instances =
      tb.w.db.instances_of(tb.flow.node(tb.ld1).type);
  ASSERT_EQ(ld1_instances.size(), 1u);
  // The fresh instance starts its own lineage at version 1; the failure
  // record never entered the version tree.
  EXPECT_EQ(tb.w.db.instance(ld1_instances[0]).version, 1u);
  // The old failure records are still there for §4.2-style queries.
  EXPECT_EQ(tb.w.db.failures().size(), 2u);
}

TEST(FaultInjectionTest, RandomPlanIsDeterministicPerSeed) {
  const auto run_once = [](std::uint64_t seed) {
    TwoBranch tb;
    FaultInjectingRegistry faulty(tb.w.tools, seed);
    faulty.inject_random(0.5, FaultKind::kThrow);
    Executor ex(tb.w.db, faulty);
    ExecOptions opt;
    opt.fault.mode = FailureMode::kContinueBranches;
    const ExecResult r = ex.run(tb.flow, opt);
    return std::make_tuple(faulty.faults_fired(), r.tasks_failed,
                           r.tasks_skipped, history_signature(tb.w.db));
  };
  std::size_t total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto a = run_once(seed);
    const auto b = run_once(seed);
    EXPECT_EQ(a, b) << "seed " << seed;
    total_faults += std::get<0>(a);
  }
  // The plan is random but must not be vacuous across five seeds.
  EXPECT_GT(total_faults, 0u);
}

}  // namespace
}  // namespace herc::faulttest
