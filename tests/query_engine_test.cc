#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "sched/executor.h"
#include "core/pipeline.h"
#include "core/projection.h"
#include "louvre/museum.h"
#include "louvre/simulator.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/result_cache.h"
#include "storage/event_store.h"

namespace sitm::query {
namespace {

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

const louvre::LouvreMap& Map() {
  static const louvre::LouvreMap* map =
      new louvre::LouvreMap(louvre::LouvreMap::Build().value());
  return *map;
}

const indoor::LayerHierarchy& Hierarchy() {
  static const indoor::LayerHierarchy* hierarchy =
      new indoor::LayerHierarchy(Map().BuildHierarchy().value());
  return *hierarchy;
}

const core::CellLocator& ZoneLocator() {
  static const core::CellLocator* locator = new core::CellLocator(
      core::CellLocator::Build(
          *Map().graph().FindLayer(Map().zone_layer()).value())
          .value());
  return *locator;
}

QueryContext LouvreContext() {
  QueryContext context;
  context.hierarchy = &Hierarchy();
  context.graph = &Map().graph();
  context.locator = &ZoneLocator();
  return context;
}

core::SemanticTrajectory MakeTrajectory(
    std::int64_t id, std::int64_t object,
    const std::vector<std::array<std::int64_t, 3>>& cell_start_end,
    core::AnnotationSet annotations = {{core::AnnotationKind::kActivity,
                                        "visit"}}) {
  std::vector<core::PresenceInterval> intervals;
  for (const auto& [cell, start, end] : cell_start_end) {
    intervals.emplace_back(
        BoundaryId::Invalid(), CellId(cell),
        qsr::TimeInterval::Make(Timestamp(start), Timestamp(end)).value());
  }
  return core::SemanticTrajectory(TrajectoryId(id), ObjectId(object),
                                  core::Trace(std::move(intervals)),
                                  std::move(annotations));
}

std::vector<core::SemanticTrajectory> SimulatedTrajectories(
    std::uint64_t seed, int visitors = 150) {
  louvre::SimulatorOptions options;
  options.seed = seed;
  options.num_visitors = visitors;
  options.num_returning = visitors * 2 / 5;
  options.num_third_visits = visitors / 6;
  options.num_detections =
      (visitors + options.num_returning + options.num_third_visits) * 4;
  louvre::VisitSimulator simulator(&Map(), options);
  auto dataset = simulator.Generate();
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  core::PipelineOptions pipeline_options;
  pipeline_options.builder.graph =
      &Map().graph().FindLayer(Map().zone_layer()).value()->graph();
  core::BatchPipeline pipeline(pipeline_options);
  auto trajectories = pipeline.Run(dataset->ToRawDetections());
  EXPECT_TRUE(trajectories.ok()) << trajectories.status();
  return std::move(trajectories).value();
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Predicate algebra.
// ---------------------------------------------------------------------------

TEST(PredicateTest, ObjectTimeAndComposition) {
  const auto t = MakeTrajectory(1, 7, {{10, 100, 200}, {11, 250, 300}});
  EXPECT_TRUE(ObjectIs(ObjectId(7)).MatchesTrajectory(t));
  EXPECT_FALSE(ObjectIs(ObjectId(8)).MatchesTrajectory(t));
  EXPECT_TRUE(ObjectIn({ObjectId(3), ObjectId(7)}).MatchesTrajectory(t));
  EXPECT_FALSE(ObjectIn({}).MatchesTrajectory(t));

  EXPECT_TRUE(TimeWindow(Timestamp(150), Timestamp(160)).MatchesTrajectory(t));
  EXPECT_TRUE(TimeWindow(Timestamp(300), std::nullopt).MatchesTrajectory(t));
  EXPECT_TRUE(TimeWindow(std::nullopt, Timestamp(100)).MatchesTrajectory(t));
  EXPECT_FALSE(TimeWindow(Timestamp(301), std::nullopt).MatchesTrajectory(t));
  // Inverted window straddled by the trajectory span: empty, not "both
  // one-sided tests pass".
  EXPECT_FALSE(
      TimeWindow(Timestamp(220), Timestamp(210)).MatchesTrajectory(t));

  EXPECT_TRUE(And(ObjectIs(ObjectId(7)), InCell(CellId(11)))
                  .MatchesTrajectory(t));
  EXPECT_FALSE(And(ObjectIs(ObjectId(7)), InCell(CellId(99)))
                   .MatchesTrajectory(t));
  EXPECT_TRUE(Or(ObjectIs(ObjectId(8)), InCell(CellId(10)))
                  .MatchesTrajectory(t));
  EXPECT_FALSE(Not(ObjectIs(ObjectId(7))).MatchesTrajectory(t));
  EXPECT_TRUE(All().MatchesTrajectory(t));
}

TEST(PredicateTest, AllenAgainstProbe) {
  const auto t = MakeTrajectory(1, 7, {{10, 100, 200}});
  const auto probe = qsr::TimeInterval::Make(Timestamp(100), Timestamp(300));
  ASSERT_TRUE(probe.ok());
  // [100, 200] starts [100, 300].
  EXPECT_TRUE(AllenAgainst(AllenMask::Of({qsr::AllenRelation::kStarts}),
                           *probe)
                  .MatchesTrajectory(t));
  EXPECT_TRUE(AllenAgainst(AllenMask::Within(), *probe).MatchesTrajectory(t));
  EXPECT_FALSE(AllenAgainst(AllenMask::Of({qsr::AllenRelation::kDuring}),
                            *probe)
                   .MatchesTrajectory(t));
  EXPECT_FALSE(AllenAgainst(AllenMask(), *probe).MatchesTrajectory(t));
}

TEST(PredicateTest, AnnotationScopes) {
  auto t = MakeTrajectory(1, 7, {{10, 100, 200}, {11, 250, 300}});
  core::AnnotationSet stop;
  stop.Add(core::AnnotationKind::kBehavior, "stop");
  t.mutable_trace().mutable_intervals()[1].annotations = stop;

  const auto traj_scope = HasAnnotation(core::AnnotationKind::kActivity,
                                        "visit", AnnotationScope::kTrajectory);
  const auto tuple_scope = HasAnnotation(core::AnnotationKind::kBehavior,
                                         "stop", AnnotationScope::kTuple);
  EXPECT_TRUE(traj_scope.MatchesTrajectory(t));
  EXPECT_TRUE(tuple_scope.MatchesTrajectory(t));
  EXPECT_FALSE(HasAnnotation(core::AnnotationKind::kActivity, "visit",
                             AnnotationScope::kTuple)
                   .MatchesTrajectory(t));
  // Tuple-level evaluation: only tuple 1 carries the stop.
  EXPECT_FALSE(tuple_scope.MatchesTuple(t, 0));
  EXPECT_TRUE(tuple_scope.MatchesTuple(t, 1));
  // Trajectory-scope leaves hold for every tuple of a matching parent.
  EXPECT_TRUE(traj_scope.MatchesTuple(t, 0));
}

TEST(PredicateTest, TupleLevelSpatialAndTemporal) {
  const auto t = MakeTrajectory(1, 7, {{10, 100, 200}, {11, 250, 300}});
  const auto in_10 = InCell(CellId(10));
  EXPECT_TRUE(in_10.MatchesTuple(t, 0));
  EXPECT_FALSE(in_10.MatchesTuple(t, 1));
  EXPECT_FALSE(in_10.MatchesTuple(t, 2));  // out of range: never matches
  const auto early = TimeWindow(std::nullopt, Timestamp(210));
  EXPECT_TRUE(early.MatchesTuple(t, 0));
  EXPECT_FALSE(early.MatchesTuple(t, 1));
}

TEST(PredicateTest, EpisodePredicates) {
  const auto t = MakeTrajectory(1, 7,
                                {{10, 100, 200}, {11, 250, 300},
                                 {12, 310, 400}});
  std::vector<core::Episode> episodes;
  core::AnnotationSet shopping;
  shopping.Add(core::AnnotationKind::kGoal, "buy souvenir");
  episodes.emplace_back("shopping", 1, 3, shopping);

  EXPECT_TRUE(HasEpisode("shopping").MatchesTrajectory(t, &episodes));
  EXPECT_TRUE(HasEpisode("").MatchesTrajectory(t, &episodes));
  EXPECT_FALSE(HasEpisode("security").MatchesTrajectory(t, &episodes));
  EXPECT_FALSE(HasEpisode("shopping").MatchesTrajectory(t, nullptr));

  // Episode interval is [250, 400]; probe [200, 500] contains it.
  const auto probe = qsr::TimeInterval::Make(Timestamp(200), Timestamp(500));
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(EpisodeAllen("shopping", AllenMask::Within(), *probe)
                  .MatchesTrajectory(t, &episodes));
  EXPECT_FALSE(EpisodeAllen("shopping",
                            AllenMask::Of({qsr::AllenRelation::kBefore}),
                            *probe)
                   .MatchesTrajectory(t, &episodes));
  // Tuple membership: tuples 1 and 2 lie inside the episode, 0 does not.
  EXPECT_FALSE(HasEpisode("shopping").MatchesTuple(t, 0, &episodes));
  EXPECT_TRUE(HasEpisode("shopping").MatchesTuple(t, 1, &episodes));
}

TEST(PredicateTest, BindResolvesSymbolicLeaves) {
  const QueryContext context = LouvreContext();
  // A trajectory through the paper's souvenir-shops zone.
  const auto t = MakeTrajectory(
      1, 7, {{louvre::kZoneEntranceHall, 100, 200},
             {louvre::kZoneSouvenirShops, 250, 300}});

  // Zone membership: the museum root covers every zone.
  const auto in_museum = InZone(CellId(louvre::kMuseumCellId));
  EXPECT_FALSE(in_museum.bound());
  EXPECT_FALSE(in_museum.MatchesTrajectory(t));  // unbound: conservative no
  const auto bound_museum = in_museum.Bind(context);
  ASSERT_TRUE(bound_museum.ok()) << bound_museum.status();
  EXPECT_TRUE(bound_museum->bound());
  EXPECT_TRUE(bound_museum->MatchesTrajectory(t));

  // Layer membership: zones are in the zone layer, not the room layer.
  const auto in_zone_layer = InLayer(Map().zone_layer()).Bind(context);
  const auto in_room_layer = InLayer(Map().room_layer()).Bind(context);
  ASSERT_TRUE(in_zone_layer.ok() && in_room_layer.ok());
  EXPECT_TRUE(in_zone_layer->MatchesTrajectory(t));
  EXPECT_FALSE(in_room_layer->MatchesTrajectory(t));

  // Missing facilities fail with InvalidArgument at Bind.
  QueryContext empty;
  EXPECT_EQ(in_museum.Bind(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(InLayer(Map().zone_layer()).Bind(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AtPoint({1, 1}).Bind(empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(InRegion("nowhere", qsr::RelationSet::All())
                .Bind(context)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(PredicateTest, RegionAndPointLeaves) {
  QueryContext context = LouvreContext();
  const auto& entrance =
      *Map().graph().FindCell(CellId(louvre::kZoneEntranceHall)).value();
  ASSERT_TRUE(entrance.has_geometry());
  context.regions.push_back({"entrance-footprint", *entrance.geometry()});

  const auto t = MakeTrajectory(
      1, 7, {{louvre::kZoneEntranceHall, 100, 200}});
  // The entrance zone's own footprint relates to itself by "equal".
  const auto equals_region =
      InRegion("entrance-footprint",
               qsr::RelationSet::Of(qsr::TopologicalRelation::kEqual))
          .Bind(context);
  ASSERT_TRUE(equals_region.ok()) << equals_region.status();
  EXPECT_TRUE(equals_region->MatchesTrajectory(t));

  // A raw fix inside the entrance hall localizes to its cell set (plus
  // any zones overlapping it in plan view — floors stack).
  const auto centroid = entrance.geometry()->Centroid();
  const auto at_entrance = AtPoint(centroid).Bind(context);
  ASSERT_TRUE(at_entrance.ok()) << at_entrance.status();
  EXPECT_TRUE(at_entrance->MatchesTrajectory(t));
  // A zone whose footprint does not contain the fix must not match.
  const auto localized = ZoneLocator().LocalizeAll(centroid);
  CellId far_zone = CellId::Invalid();
  for (CellId zone : Map().zones()) {
    if (std::find(localized.begin(), localized.end(), zone) ==
        localized.end()) {
      far_zone = zone;
      break;
    }
  }
  ASSERT_TRUE(far_zone.valid());
  const auto elsewhere =
      MakeTrajectory(2, 8, {{far_zone.value(), 100, 200}});
  EXPECT_FALSE(at_entrance->MatchesTrajectory(elsewhere));
}

// ---------------------------------------------------------------------------
// Planner.
// ---------------------------------------------------------------------------

TEST(PlannerTest, ConjunctionTightensPushdown) {
  const Predicate p = And(
      And(ObjectIn({ObjectId(3), ObjectId(9)}),
          TimeWindow(Timestamp(100), Timestamp(500))),
      InCell(CellId(1)));
  const QueryPlan plan = Plan(p);
  ASSERT_TRUE(plan.pushdown.objects.has_value());
  EXPECT_EQ(plan.pushdown.objects->size(), 2u);
  EXPECT_EQ(plan.pushdown.min_time, Timestamp(100));
  EXPECT_EQ(plan.pushdown.max_time, Timestamp(500));
  EXPECT_FALSE(plan.pushdown.never_matches);

  // Intersecting windows tighten; disjoint object sets are contradiction.
  const QueryPlan tightened =
      Plan(And(TimeWindow(Timestamp(100), Timestamp(500)),
               TimeWindow(Timestamp(300), Timestamp(900))));
  EXPECT_EQ(tightened.pushdown.min_time, Timestamp(300));
  EXPECT_EQ(tightened.pushdown.max_time, Timestamp(500));
  const QueryPlan never = Plan(
      And(ObjectIs(ObjectId(1)), ObjectIs(ObjectId(2))));
  EXPECT_TRUE(never.pushdown.never_matches);
  EXPECT_TRUE(
      Plan(And(TimeWindow(Timestamp(500), std::nullopt),
               TimeWindow(std::nullopt, Timestamp(100))))
          .pushdown.never_matches);
}

TEST(PlannerTest, DisjunctionUnionsAndNotIsConservative) {
  const QueryPlan unioned = Plan(Or(
      And(ObjectIs(ObjectId(3)), TimeWindow(Timestamp(0), Timestamp(10))),
      And(ObjectIs(ObjectId(9)), TimeWindow(Timestamp(50), Timestamp(60)))));
  ASSERT_TRUE(unioned.pushdown.objects.has_value());
  EXPECT_EQ(unioned.pushdown.objects->size(), 2u);
  EXPECT_EQ(unioned.pushdown.min_time, Timestamp(0));
  EXPECT_EQ(unioned.pushdown.max_time, Timestamp(60));

  // One unconstrained branch washes the union out.
  const QueryPlan washed = Plan(Or(ObjectIs(ObjectId(3)), InCell(CellId(1))));
  EXPECT_FALSE(washed.pushdown.objects.has_value());

  // Negation never pushes (Not(object=3) still requires a full scan).
  const QueryPlan negated = Plan(Not(ObjectIs(ObjectId(3))));
  EXPECT_FALSE(negated.pushdown.HasConstraint());
}

TEST(PlannerTest, AllenMasksPushTimeWindows) {
  const auto probe = qsr::TimeInterval::Make(Timestamp(1000), Timestamp(2000));
  ASSERT_TRUE(probe.ok());
  // Masks without before/after imply intersection with the probe.
  const QueryPlan within = Plan(AllenAgainst(AllenMask::Within(), *probe));
  EXPECT_EQ(within.pushdown.min_time, Timestamp(1000));
  EXPECT_EQ(within.pushdown.max_time, Timestamp(2000));
  const QueryPlan overlap =
      Plan(AllenAgainst(AllenMask::Intersecting(), *probe));
  EXPECT_EQ(overlap.pushdown.min_time, Timestamp(1000));
  // A mask admitting before/after cannot push.
  const QueryPlan loose = Plan(AllenAgainst(
      AllenMask::Of({qsr::AllenRelation::kBefore,
                     qsr::AllenRelation::kDuring}),
      *probe));
  EXPECT_FALSE(loose.pushdown.HasConstraint());
  // The empty mask is unsatisfiable.
  EXPECT_TRUE(Plan(AllenAgainst(AllenMask(), *probe)).pushdown.never_matches);
}

TEST(PlannerTest, PlanBlocksUsesObjectIndex) {
  const auto trajectories = SimulatedTrajectories(11);
  const std::string path = TempPath("planner_blocks.evst");
  storage::WriterOptions options;
  options.rows_per_block = 32;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->has_object_index());

  const ObjectId target = trajectories[trajectories.size() / 2].object();
  const QueryPlan plan = Plan(ObjectIs(target));
  const auto blocks = PlanBlocks(*reader, plan.pushdown);
  EXPECT_LT(blocks.size(), reader->num_blocks());
  // never_matches plans touch nothing.
  EXPECT_TRUE(
      PlanBlocks(*reader, Plan(ObjectIn({})).pushdown).empty());
  // Unconstrained plans touch everything.
  EXPECT_EQ(PlanBlocks(*reader, Plan(All()).pushdown).size(),
            reader->num_blocks());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Executor: projections and correctness.
// ---------------------------------------------------------------------------

TEST(QueryExecutorTest, ProjectionsAgreeWithBruteForce) {
  const auto trajectories = SimulatedTrajectories(42);
  QueryExecutor executor(LouvreContext());

  Query query;
  query.where = And(InZone(CellId(louvre::kMuseumCellId)),
                    HasAnnotation(core::AnnotationKind::kActivity, "visit",
                                  AnnotationScope::kTrajectory));
  query.projection = Projection::kCount;
  const auto count = executor.Run(query, trajectories);
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->count, trajectories.size());  // every visit matches

  // Ids of one object, against a brute-force filter.
  const ObjectId target = trajectories[trajectories.size() / 4].object();
  query.where = ObjectIs(target);
  query.projection = Projection::kIds;
  const auto ids = executor.Run(query, trajectories);
  ASSERT_TRUE(ids.ok());
  std::vector<TrajectoryId> expected_ids;
  for (const auto& t : trajectories) {
    if (t.object() == target) expected_ids.push_back(t.id());
  }
  EXPECT_EQ(ids->ids, expected_ids);
  EXPECT_EQ(ids->count, expected_ids.size());

  // Tuples in the souvenir-shops zone during the first simulated week.
  query.where = InCell(CellId(louvre::kZoneSouvenirShops));
  query.projection = Projection::kTuples;
  query.tuple_where = query.where;
  const auto tuples = executor.Run(query, trajectories);
  ASSERT_TRUE(tuples.ok());
  ASSERT_FALSE(tuples->tuples.empty());
  std::size_t expected_tuples = 0;
  for (const auto& t : trajectories) {
    for (const auto& tuple : t.trace().intervals()) {
      expected_tuples += tuple.cell == CellId(louvre::kZoneSouvenirShops);
    }
  }
  EXPECT_EQ(tuples->tuples.size(), expected_tuples);
  for (const auto& row : tuples->tuples) {
    EXPECT_EQ(row.tuple.cell, CellId(louvre::kZoneSouvenirShops));
  }
}

TEST(QueryExecutorTest, EpisodeProjectionAndTopK) {
  const auto trajectories = SimulatedTrajectories(19);
  QueryExecutor executor(LouvreContext());

  // Long stays (>= 10 min) as episodes.
  Query query;
  core::AnnotationSet lingering;
  lingering.Add(core::AnnotationKind::kBehavior, "lingering");
  query.episodes.push_back(
      {"long-stay", core::StayAtLeast(Duration::Minutes(10)), lingering});
  query.where = HasEpisode("long-stay");
  query.projection = Projection::kEpisodes;
  query.episode_filter.label = "long-stay";
  const auto episodes = executor.Run(query, trajectories);
  ASSERT_TRUE(episodes.ok()) << episodes.status();
  ASSERT_FALSE(episodes->episodes.empty());
  for (const auto& row : episodes->episodes) {
    EXPECT_EQ(row.episode.label, "long-stay");
    EXPECT_GE((row.interval.end() - row.interval.start()).seconds(), 0);
  }
  // Every emitted episode's parent matched the predicate.
  EXPECT_LE(episodes->stats.trajectories_matched,
            episodes->stats.trajectories_considered);

  // Top-5 most similar to the first trajectory: it is its own best
  // match at similarity 1.
  Query topk;
  topk.projection = Projection::kTopK;
  topk.top_k.k = 5;
  topk.top_k.probe = &trajectories.front();
  const auto ranked = executor.Run(topk, trajectories);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  ASSERT_EQ(ranked->top_k.size(), 5u);
  EXPECT_EQ(ranked->top_k.front().trajectory, trajectories.front().id());
  EXPECT_DOUBLE_EQ(ranked->top_k.front().similarity, 1.0);
  for (std::size_t i = 1; i < ranked->top_k.size(); ++i) {
    EXPECT_GE(ranked->top_k[i - 1].similarity, ranked->top_k[i].similarity);
  }
  // kTopK without a probe is an argument error.
  topk.top_k.probe = nullptr;
  EXPECT_EQ(executor.Run(topk, trajectories).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Determinism: pool sizes and backends (the PR 3/4 discipline).
// ---------------------------------------------------------------------------

std::vector<Query> DeterminismQueries(
    const std::vector<core::SemanticTrajectory>& trajectories) {
  std::vector<Query> queries;

  Query by_zone_and_time;
  const Timestamp mid(trajectories.front().start() +
                      Duration::Hours(24 * 30));
  by_zone_and_time.where =
      And(InZone(CellId(louvre::kMuseumCellId)),
          TimeWindow(std::nullopt, mid));
  by_zone_and_time.projection = Projection::kTrajectories;
  queries.push_back(by_zone_and_time);

  Query by_object;
  by_object.where = ObjectIs(trajectories[trajectories.size() / 2].object());
  by_object.projection = Projection::kTrajectories;
  queries.push_back(by_object);

  Query tuples;
  tuples.where = InCell(CellId(louvre::kZonePassage));
  tuples.tuple_where = tuples.where;
  tuples.projection = Projection::kTuples;
  queries.push_back(tuples);

  Query episodes;
  core::AnnotationSet lingering;
  lingering.Add(core::AnnotationKind::kBehavior, "lingering");
  episodes.episodes.push_back(
      {"long-stay", core::StayAtLeast(Duration::Minutes(8)), lingering});
  episodes.where = HasEpisode("long-stay");
  episodes.projection = Projection::kEpisodes;
  queries.push_back(episodes);

  Query topk;
  topk.projection = Projection::kTopK;
  topk.top_k.k = 7;
  topk.top_k.probe = &trajectories.front();
  queries.push_back(topk);

  return queries;
}

TEST(QueryDeterminismTest, ByteIdenticalAcrossPoolSizesAndBackends) {
  const auto trajectories = SimulatedTrajectories(20170119);
  const std::string path = TempPath("determinism.evst");
  storage::WriterOptions store_options;
  store_options.rows_per_block = 64;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, store_options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  const std::vector<Query> queries = DeterminismQueries(trajectories);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    // Sequential in-memory run = the reference answer.
    QueryExecutor sequential(LouvreContext());
    const auto reference = sequential.Run(queries[q], trajectories);
    ASSERT_TRUE(reference.ok()) << reference.status();
    const std::string expected = reference->Fingerprint();
    EXPECT_FALSE(expected.empty());

    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2},
          sched::Executor::DefaultConcurrency()}) {
      sched::Executor pool_executor(threads);
      ExecutorOptions options;
      options.executor = &pool_executor;
      options.chunk = 16;  // several chunks even on small inputs
      QueryExecutor executor(LouvreContext(), options);
      const auto in_memory = executor.Run(queries[q], trajectories);
      ASSERT_TRUE(in_memory.ok()) << in_memory.status();
      EXPECT_EQ(in_memory->Fingerprint(), expected)
          << "query " << q << " in-memory at worker count " << threads;
      const auto from_store = executor.Run(queries[q], *reader);
      ASSERT_TRUE(from_store.ok()) << from_store.status();
      EXPECT_EQ(from_store->Fingerprint(), expected)
          << "query " << q << " store-backed at pool size " << threads;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Pushdown accounting: the acceptance criterion's shape.
// ---------------------------------------------------------------------------

TEST(QueryExecutorTest, ObjectPointLookupScansFarFewerTuples) {
  const auto trajectories = SimulatedTrajectories(99, 200);
  const std::string path = TempPath("pruning.evst");
  storage::WriterOptions options;
  options.rows_per_block = 32;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  QueryExecutor executor(LouvreContext());
  Query query;
  query.where = ObjectIs(trajectories[trajectories.size() / 2].object());
  query.projection = Projection::kTrajectories;
  const auto result = executor.Run(query, *reader);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->trajectories.size(), 0u);
  EXPECT_EQ(result->stats.rows_total, reader->rows());
  // The point lookup must scan at least 10x fewer tuples than the full
  // scan would (the ISSUE acceptance shape, at test scale).
  EXPECT_LE(result->stats.rows_scanned * 10, result->stats.rows_total);
  EXPECT_LT(result->stats.blocks_scanned, result->stats.blocks_total);

  // A contradictory query answers from the plan alone.
  query.where = And(ObjectIs(ObjectId(1)), ObjectIs(ObjectId(2)));
  const auto never = executor.Run(query, *reader);
  ASSERT_TRUE(never.ok());
  EXPECT_EQ(never->count, 0u);
  EXPECT_EQ(never->stats.blocks_scanned, 0u);
  EXPECT_EQ(never->stats.rows_scanned, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Canonical predicate keys (the query half of the result-cache key).
// ---------------------------------------------------------------------------

TEST(PredicateTest, CanonicalKeyDistinguishesPredicates) {
  // Distinct predicates must render distinct keys — including pairs
  // whose ToString forms could collide — and equal predicates equal
  // keys. This is what makes cache keys content-complete.
  const qsr::TimeInterval probe =
      qsr::TimeInterval::Make(Timestamp(100), Timestamp(200)).value();
  std::vector<Predicate> distinct;
  distinct.push_back(All());
  distinct.push_back(ObjectIs(ObjectId(7)));
  distinct.push_back(ObjectIn({ObjectId(7), ObjectId(9)}));
  distinct.push_back(Not(ObjectIs(ObjectId(7))));
  distinct.push_back(And(ObjectIs(ObjectId(7)), All()));
  distinct.push_back(Or(ObjectIs(ObjectId(7)), All()));
  distinct.push_back(TimeWindow(Timestamp(1), Timestamp(2)));
  distinct.push_back(TimeWindow(std::nullopt, Timestamp(2)));
  distinct.push_back(InCell(CellId(3)));
  distinct.push_back(InZone(CellId(3)));
  distinct.push_back(HasAnnotation(core::AnnotationKind::kActivity, "x",
                                   AnnotationScope::kAnywhere));
  distinct.push_back(HasAnnotation(core::AnnotationKind::kBehavior, "x",
                                   AnnotationScope::kAnywhere));
  distinct.push_back(HasAnnotation(core::AnnotationKind::kActivity, "x",
                                   AnnotationScope::kTrajectory));
  distinct.push_back(HasEpisode("x"));
  distinct.push_back(AllenAgainst(AllenMask::Of({qsr::AllenRelation::kDuring}),
                                  probe));
  for (std::size_t a = 0; a < distinct.size(); ++a) {
    EXPECT_EQ(distinct[a].CanonicalKey(), distinct[a].CanonicalKey());
    for (std::size_t b = a + 1; b < distinct.size(); ++b) {
      EXPECT_NE(distinct[a].CanonicalKey(), distinct[b].CanonicalKey())
          << a << " vs " << b;
    }
  }
  // Binding resolves symbolic spatial leaves into concrete cell sets,
  // and the bound key reflects the cells, not the source text.
  QueryContext context = LouvreContext();
  const auto bound =
      InZone(CellId(louvre::kZoneSouvenirShops)).Bind(context);
  ASSERT_TRUE(bound.ok()) << bound.status();
  EXPECT_NE(
      bound->CanonicalKey(),
      InZone(CellId(louvre::kZonePassage)).Bind(context)->CanonicalKey());
}

// ---------------------------------------------------------------------------
// Annotation pushdown: planner meets/joins terms, bitmaps prune blocks.
// ---------------------------------------------------------------------------

TEST(PlannerTest, AnnotationPredicatesPruneBlocksViaBitmaps) {
  auto trajectories = SimulatedTrajectories(31);
  ASSERT_GT(trajectories.size(), 3u);
  // Mark the first three trajectories with a rare tuple-level behavior:
  // they cluster in the file's first blocks, so bitmap pruning has
  // blocks to skip and blocks to keep.
  const core::SemanticAnnotation rare{core::AnnotationKind::kBehavior,
                                      "vip"};
  for (std::size_t i = 0; i < 3; ++i) {
    trajectories[i].mutable_trace().mutable_intervals()[0].annotations.Add(
        rare.kind, rare.value);
  }

  const std::string path = TempPath("bitmap_plan.evst");
  storage::WriterOptions options;
  options.rows_per_block = 32;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_TRUE(reader->has_annotation_bitmaps());

  const QueryPlan plan = Plan(HasAnnotation(rare.kind, rare.value, AnnotationScope::kAnywhere));
  ASSERT_EQ(plan.pushdown.annotations.size(), 1u);
  const auto blocks = PlanBlocks(*reader, plan.pushdown);
  // Without bitmaps every block would be planned; with them strictly
  // fewer — the bench_q1 acceptance shape at test scale.
  EXPECT_LT(blocks.size(), reader->num_blocks());
  EXPECT_FALSE(blocks.empty());

  // Conjunction keeps the union of both sides' terms; disjunction only
  // what both demand.
  const QueryPlan both = Plan(And(HasAnnotation(rare.kind, rare.value, AnnotationScope::kAnywhere),
                                  HasAnnotation(rare.kind, "other", AnnotationScope::kAnywhere)));
  EXPECT_EQ(both.pushdown.annotations.size(), 2u);
  const QueryPlan either = Plan(Or(HasAnnotation(rare.kind, rare.value, AnnotationScope::kAnywhere),
                                   HasAnnotation(rare.kind, "other", AnnotationScope::kAnywhere)));
  EXPECT_TRUE(either.pushdown.annotations.empty());

  // A term absent from the store plans zero blocks.
  const QueryPlan absent =
      Plan(HasAnnotation(core::AnnotationKind::kGoal, "no-such-term",
           AnnotationScope::kAnywhere));
  EXPECT_TRUE(PlanBlocks(*reader, absent.pushdown).empty());

  // And pruning is invisible in the answers: the store agrees with the
  // in-memory run over the same trajectories.
  QueryExecutor executor(LouvreContext());
  Query query;
  query.where = HasAnnotation(rare.kind, rare.value, AnnotationScope::kAnywhere);
  query.projection = Projection::kTrajectories;
  const auto from_store = executor.Run(query, *reader);
  const auto in_memory = executor.Run(query, trajectories);
  ASSERT_TRUE(from_store.ok()) << from_store.status();
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  EXPECT_EQ(from_store->Fingerprint(), in_memory->Fingerprint());
  EXPECT_LT(from_store->stats.blocks_scanned, reader->num_blocks());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Query-result cache.
// ---------------------------------------------------------------------------

TEST(QueryResultCacheTest, HitsAreByteIdenticalToColdExecution) {
  const auto trajectories = SimulatedTrajectories(77);
  const std::string path = TempPath("cache_hits.evst");
  storage::WriterOptions store_options;
  store_options.rows_per_block = 64;
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, store_options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  Query query;
  query.where =
      And(InZone(CellId(louvre::kMuseumCellId)),
          HasAnnotation(core::AnnotationKind::kActivity, "visit",
                        AnnotationScope::kTrajectory));
  query.projection = Projection::kIds;

  // The no-cache reference answer.
  QueryExecutor cold(LouvreContext());
  const auto reference = cold.Run(query, *reader);
  ASSERT_TRUE(reference.ok()) << reference.status();
  const std::string expected = reference->Fingerprint();

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2},
        sched::Executor::DefaultConcurrency()}) {
    QueryResultCache cache;
    sched::Executor pool(threads);
    ExecutorOptions options;
    options.executor = &pool;
    options.cache = &cache;
    QueryExecutor executor(LouvreContext(), options);

    const auto miss = executor.Run(query, *reader);
    ASSERT_TRUE(miss.ok()) << miss.status();
    EXPECT_EQ(miss->Fingerprint(), expected) << threads << " workers";
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().inserts, 1u);

    const auto hit = executor.Run(query, *reader);
    ASSERT_TRUE(hit.ok()) << hit.status();
    EXPECT_EQ(hit->Fingerprint(), expected)
        << "cache hit diverged at " << threads << " workers";
    EXPECT_EQ(cache.stats().hits, 1u);
    // Stats ride along with the cached result: a hit reports the same
    // pruning accounting the cold run measured.
    EXPECT_EQ(hit->stats.blocks_scanned, miss->stats.blocks_scanned);
  }
  std::remove(path.c_str());
}

TEST(QueryResultCacheTest, KeyPinsStoreContentsAndBoundPredicates) {
  const auto a_trajectories = SimulatedTrajectories(78, 60);
  const auto b_trajectories = SimulatedTrajectories(79, 60);
  const std::string a_path = TempPath("cache_a.evst");
  const std::string b_path = TempPath("cache_b.evst");
  for (const auto& [path, trajectories] :
       {std::pair(a_path, &a_trajectories),
        std::pair(b_path, &b_trajectories)}) {
    auto writer = storage::EventStoreWriter::Create(
        path, storage::StoreKind::kTrajectories, {});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(*trajectories).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  const auto a_reader = storage::EventStoreReader::Open(a_path);
  const auto b_reader = storage::EventStoreReader::Open(b_path);
  ASSERT_TRUE(a_reader.ok());
  ASSERT_TRUE(b_reader.ok());

  QueryContext context = LouvreContext();
  Query query;
  query.projection = Projection::kCount;
  const auto bound = All().Bind(context);
  ASSERT_TRUE(bound.ok());
  // Same query, different files: different keys (the store half).
  EXPECT_NE(QueryResultCache::Key(query, *bound, *bound, *a_reader),
            QueryResultCache::Key(query, *bound, *bound, *b_reader));
  // Same file, different projection: different keys (the query half).
  Query ids = query;
  ids.projection = Projection::kIds;
  EXPECT_NE(QueryResultCache::Key(query, *bound, *bound, *a_reader),
            QueryResultCache::Key(ids, *bound, *bound, *a_reader));

  // Exercised end to end: one cache serving two stores never crosses
  // answers.
  QueryResultCache cache;
  ExecutorOptions options;
  options.cache = &cache;
  QueryExecutor executor(context, options);
  Query count;
  count.projection = Projection::kCount;
  const auto a_cold = executor.Run(count, *a_reader);
  const auto b_cold = executor.Run(count, *b_reader);
  const auto a_warm = executor.Run(count, *a_reader);
  const auto b_warm = executor.Run(count, *b_reader);
  ASSERT_TRUE(a_cold.ok() && b_cold.ok() && a_warm.ok() && b_warm.ok());
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(a_warm->count, a_cold->count);
  EXPECT_EQ(b_warm->count, b_cold->count);
  EXPECT_EQ(a_cold->count, a_trajectories.size());
  EXPECT_EQ(b_cold->count, b_trajectories.size());
  std::remove(a_path.c_str());
  std::remove(b_path.c_str());
}

TEST(QueryResultCacheTest, LruEvictsLeastRecentlyUsed) {
  QueryResultCache cache(2);
  QueryResult one;
  one.projection = Projection::kCount;
  one.count = 1;
  QueryResult two = one;
  two.count = 2;
  QueryResult three = one;
  three.count = 3;
  cache.Insert("one", one);
  cache.Insert("two", two);
  EXPECT_EQ(cache.size(), 2u);
  // Touch "one" so "two" is now the LRU entry.
  ASSERT_TRUE(cache.Lookup("one").has_value());
  cache.Insert("three", three);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.Lookup("two").has_value());
  ASSERT_TRUE(cache.Lookup("one").has_value());
  EXPECT_EQ(cache.Lookup("one")->count, 1u);
  EXPECT_EQ(cache.Lookup("three")->count, 3u);
  // Re-inserting an existing key refreshes rather than duplicates.
  cache.Insert("three", two);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Lookup("three")->count, 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("one").has_value());
}

TEST(QueryResultCacheTest, UncacheableQueriesRunColdEveryTime) {
  const auto trajectories = SimulatedTrajectories(80, 60);
  const std::string path = TempPath("cache_bypass.evst");
  auto writer = storage::EventStoreWriter::Create(
      path, storage::StoreKind::kTrajectories, {});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(trajectories).ok());
  ASSERT_TRUE(writer->Finish().ok());
  const auto reader = storage::EventStoreReader::Open(path);
  ASSERT_TRUE(reader.ok());

  Query episodes;
  core::AnnotationSet lingering;
  lingering.Add(core::AnnotationKind::kBehavior, "lingering");
  episodes.episodes.push_back(
      {"long-stay", core::StayAtLeast(Duration::Minutes(8)), lingering});
  episodes.where = HasEpisode("long-stay");
  episodes.projection = Projection::kEpisodes;
  EXPECT_FALSE(QueryResultCache::Cacheable(episodes));

  Query topk;
  topk.projection = Projection::kTopK;
  topk.top_k.probe = &trajectories.front();
  EXPECT_FALSE(QueryResultCache::Cacheable(topk));

  QueryResultCache cache;
  ExecutorOptions options;
  options.cache = &cache;
  QueryExecutor executor(LouvreContext(), options);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(executor.Run(episodes, *reader).ok());
    ASSERT_TRUE(executor.Run(topk, *reader).ok());
  }
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.size(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sitm::query
