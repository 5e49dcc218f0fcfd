// TaskGraph construction and validation: id assignment, edge
// bounds/self-edge rejection, Kahn validation (DAG vs cycle), barrier
// nodes, and the deterministic inline execution path that nullptr
// executors flow through.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/task_graph.h"
#include "base/task_runner.h"

namespace sitm {
namespace {

TEST(TaskGraphTest, AddTaskAssignsSequentialIds) {
  TaskGraph graph;
  EXPECT_EQ(graph.size(), 0u);
  EXPECT_EQ(graph.AddTask("a", [] {}), 0u);
  EXPECT_EQ(graph.AddTask("b", [] {}), 1u);
  EXPECT_EQ(graph.AddTask("c", [] {}), 2u);
  EXPECT_EQ(graph.size(), 3u);
}

TEST(TaskGraphTest, AddEdgeRejectsOutOfBoundsAndSelfEdges) {
  TaskGraph graph;
  const TaskId a = graph.AddTask("a", [] {});
  const TaskId b = graph.AddTask("b", [] {});
  EXPECT_TRUE(graph.AddEdge(a, b).ok());
  EXPECT_FALSE(graph.AddEdge(a, a).ok());
  EXPECT_FALSE(graph.AddEdge(a, 99).ok());
  EXPECT_FALSE(graph.AddEdge(99, b).ok());
}

TEST(TaskGraphTest, ValidateAcceptsEmptyAndDagGraphs) {
  TaskGraph empty;
  EXPECT_TRUE(empty.Validate().ok());

  TaskGraph diamond;
  const TaskId a = diamond.AddTask("a", [] {});
  const TaskId b = diamond.AddTask("b", [] {});
  const TaskId c = diamond.AddTask("c", [] {});
  const TaskId d = diamond.AddTask("d", [] {});
  ASSERT_TRUE(diamond.AddEdge(a, b).ok());
  ASSERT_TRUE(diamond.AddEdge(a, c).ok());
  ASSERT_TRUE(diamond.AddEdge(b, d).ok());
  ASSERT_TRUE(diamond.AddEdge(c, d).ok());
  EXPECT_TRUE(diamond.Validate().ok());
}

TEST(TaskGraphTest, ValidateRejectsCycles) {
  TaskGraph graph;
  const TaskId a = graph.AddTask("a", [] {});
  const TaskId b = graph.AddTask("b", [] {});
  const TaskId c = graph.AddTask("c", [] {});
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(graph.AddEdge(b, c).ok());
  ASSERT_TRUE(graph.AddEdge(c, a).ok());
  const Status status = graph.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("cycle"), std::string::npos)
      << status.message();
}

TEST(TaskGraphTest, DuplicateEdgesAreHarmless) {
  TaskGraph graph;
  int order = 0;
  int at_a = -1;
  int at_b = -1;
  const TaskId a = graph.AddTask("a", [&] { at_a = order++; });
  const TaskId b = graph.AddTask("b", [&] { at_b = order++; });
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  EXPECT_TRUE(graph.Validate().ok());
  ASSERT_TRUE(RunGraphInline(std::move(graph)).ok());
  EXPECT_EQ(at_a, 0);
  EXPECT_EQ(at_b, 1);
}

TEST(TaskGraphTest, BarrierNodesCarryNoBodyButStillOrder) {
  // A null fn is a pure synchronization point: a join that orders
  // every predecessor before every successor.
  TaskGraph graph;
  std::vector<std::string> sequence;
  const TaskId before = graph.AddTask("before", [&] {
    sequence.push_back("before");
  });
  const TaskId barrier = graph.AddTask("barrier", nullptr);
  const TaskId after = graph.AddTask("after", [&] {
    sequence.push_back("after");
  });
  ASSERT_TRUE(graph.AddEdge(before, barrier).ok());
  ASSERT_TRUE(graph.AddEdge(barrier, after).ok());
  ASSERT_TRUE(RunGraphInline(std::move(graph)).ok());
  EXPECT_EQ(sequence, (std::vector<std::string>{"before", "after"}));
}

TEST(TaskGraphTest, RunGraphInlineExecutesInMinIdTopologicalOrder) {
  // Among simultaneously-ready tasks the inline path picks the lowest
  // id — the deterministic order sequential callers observe.
  TaskGraph graph;
  std::vector<TaskId> order;
  const TaskId a = graph.AddTask("a", [&] { order.push_back(0); });
  const TaskId b = graph.AddTask("b", [&] { order.push_back(1); });
  const TaskId c = graph.AddTask("c", [&] { order.push_back(2); });
  const TaskId d = graph.AddTask("d", [&] { order.push_back(3); });
  // d gates on b only; a, b, c start ready.
  ASSERT_TRUE(graph.AddEdge(b, d).ok());
  (void)a;
  (void)c;
  ASSERT_TRUE(RunGraphInline(std::move(graph)).ok());
  EXPECT_EQ(order, (std::vector<TaskId>{0, 1, 2, 3}));
}

TEST(TaskGraphTest, RunGraphInlineRejectsCyclesBeforeRunningAnything) {
  TaskGraph graph;
  int ran = 0;
  const TaskId a = graph.AddTask("a", [&] { ++ran; });
  const TaskId b = graph.AddTask("b", [&] { ++ran; });
  ASSERT_TRUE(graph.AddEdge(a, b).ok());
  ASSERT_TRUE(graph.AddEdge(b, a).ok());
  EXPECT_FALSE(RunGraphInline(std::move(graph)).ok());
  EXPECT_EQ(ran, 0);
}

TEST(TaskGraphTest, RunGraphInlineReportsLowestIdFailureAndFinishesRest) {
  TaskGraph graph;
  int ran = 0;
  graph.AddTask("fine", [&] { ++ran; });
  graph.AddTask("first-boom", [] { throw std::runtime_error("one"); });
  graph.AddTask("second-boom", [] { throw std::runtime_error("two"); });
  graph.AddTask("also-fine", [&] { ++ran; });
  const Status status = RunGraphInline(std::move(graph));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("first-boom"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("one"), std::string::npos)
      << status.message();
  EXPECT_EQ(ran, 2);
}

}  // namespace
}  // namespace sitm
