// Scheduler stress: a 200-way fan-out/fan-in flow (200 independent tasks
// off one root, joined into one composite) with deterministic pseudo-random
// per-task latencies, run at several thread-pool widths.  Checks that the
// parallel scheduler neither deadlocks nor loses products, that the run
// accounting stays exact at scale, and that large faulted runs remain
// deterministic across thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault_test_util.hpp"
#include "support/text.hpp"

namespace herc::faulttest {
namespace {

using exec::ExecOptions;
using exec::ExecResult;
using exec::Executor;
using exec::FailureMode;
using exec::TaskStatus;

constexpr std::size_t kFanOut = 200;  // 201 task groups, 402 flow nodes

TEST(SchedulerStressTest, FanOutFanInCompletesAtEveryPoolWidth) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("max_threads=" + std::to_string(threads));
    World w;
    const graph::TaskGraph flow = make_fan(w, kFanOut);
    Executor ex(w.db, w.tools);
    ExecOptions opt;
    opt.parallel = true;
    opt.max_threads = threads;
    const ExecResult r = ex.run(flow, opt);

    EXPECT_TRUE(r.complete());
    EXPECT_EQ(r.tasks_run, kFanOut + 1);
    EXPECT_EQ(r.tasks_reused, 0u);
    EXPECT_EQ(r.tasks_failed, 0u);
    EXPECT_EQ(r.tasks_skipped, 0u);

    // No lost products: every fan task produced exactly one instance and
    // the join consumed every one of them.
    for (std::size_t i = 0; i < kFanOut; ++i) {
      const graph::NodeId n = node_of(flow, support::numbered("F", i));
      ASSERT_EQ(r.of(n).size(), 1u) << "F" << i;
    }
    const graph::NodeId join = node_of(flow, "Join");
    const std::string joined = w.db.payload(r.single(join));
    for (std::size_t i = 0; i < kFanOut; ++i) {
      EXPECT_NE(joined.find(">FT" + std::to_string(i)), std::string::npos)
          << "join lost the product of FT" << i;
    }
    const history::Instance& join_inst = w.db.instance(r.single(join));
    EXPECT_EQ(join_inst.derivation.inputs.size(), kFanOut);
  }
}

TEST(SchedulerStressTest, FaultedStressRunKeepsExactAccounting) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("max_threads=" + std::to_string(threads));
    World w;
    const graph::TaskGraph flow = make_fan(w, kFanOut);
    tools::FaultInjectingRegistry faulty(w.tools, 99);
    faulty.inject_random(0.1, tools::FaultKind::kThrow);
    Executor ex(w.db, faulty);
    ExecOptions opt;
    opt.parallel = true;
    opt.max_threads = threads;
    opt.fault.mode = FailureMode::kContinueBranches;
    opt.fault.max_retries = 1;
    const ExecResult r = ex.run(flow, opt);

    // Every group is accounted for exactly once: the fan tasks either ran
    // or failed, the join either ran or was skipped.
    EXPECT_EQ(r.tasks_run + r.tasks_failed + r.tasks_skipped, kFanOut + 1);
    const graph::NodeId join = node_of(flow, "Join");
    std::size_t produced = 0;
    for (std::size_t i = 0; i < kFanOut; ++i) {
      const graph::NodeId n = node_of(flow, support::numbered("F", i));
      const exec::TaskOutcome* outcome = r.outcome(n);
      ASSERT_NE(outcome, nullptr) << "F" << i << " has no outcome";
      if (outcome->status == TaskStatus::kOk) {
        EXPECT_EQ(r.of(n).size(), 1u);
        ++produced;
      } else {
        EXPECT_EQ(outcome->status, TaskStatus::kFailed);
        EXPECT_TRUE(r.of(n).empty());
      }
    }
    EXPECT_EQ(produced + r.tasks_failed, kFanOut);
    // The join depends on every fan task, so it runs iff all succeeded.
    if (r.tasks_failed == 0) {
      EXPECT_EQ(r.of(join).size(), 1u);
    } else {
      ASSERT_NE(r.outcome(join), nullptr);
      EXPECT_EQ(r.outcome(join)->status, TaskStatus::kSkipped);
      EXPECT_EQ(r.tasks_skipped, 1u);
    }
    // Failure records match the failed-task count exactly.
    std::size_t failed_records = 0;
    for (const data::InstanceId id : w.db.failures()) {
      if (w.db.instance(id).status == history::InstanceStatus::kFailed) {
        ++failed_records;
      }
    }
    EXPECT_EQ(failed_records, r.tasks_failed);
  }
}

// The same faulted stress flow must resolve identically at every pool
// width: fault decisions are a pure function of (seed, tool, invocation).
TEST(SchedulerStressTest, FaultedRunsAgreeAcrossThreadCounts) {
  const auto run_once = [](std::size_t threads) {
    World w;
    const graph::TaskGraph flow = make_fan(w, kFanOut);
    tools::FaultInjectingRegistry faulty(w.tools, 1234);
    faulty.inject_random(0.05, tools::FaultKind::kThrow);
    Executor ex(w.db, faulty);
    ExecOptions opt;
    opt.parallel = true;
    opt.max_threads = threads;
    opt.fault.mode = FailureMode::kBestEffort;
    const ExecResult r = ex.run(flow, opt);
    return std::make_pair(
        std::make_tuple(r.tasks_run, r.tasks_failed, r.tasks_skipped),
        history_signature(w.db));
  };
  const auto narrow = run_once(1);
  const auto medium = run_once(2);
  const auto wide = run_once(8);
  EXPECT_EQ(narrow.first, medium.first);
  EXPECT_EQ(narrow.first, wide.first);
  EXPECT_EQ(narrow.second, medium.second);
  EXPECT_EQ(narrow.second, wide.second);
}

}  // namespace
}  // namespace herc::faulttest
