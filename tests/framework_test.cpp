// Tests for the Sec. VIII program-analysis framework: call tree, dependence
// graph, program model (with its loop verdicts), and the plugin table.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/report.hpp"
#include "core/profiler.hpp"
#include "framework/plugin.hpp"
#include "framework/program_model.hpp"
#include "instrument/macros.hpp"
#include "instrument/runtime.hpp"
#include "trace/trace.hpp"

DP_FILE("framework_test");

namespace depprof {
namespace {

DepKey key(DepType type, std::uint32_t sink, std::uint32_t src,
           std::uint32_t var = 0) {
  DepKey k;
  k.type = type;
  k.sink_loc = SourceLocation(1, sink).packed();
  k.src_loc = src ? SourceLocation(1, src).packed() : 0;
  k.var = var;
  return k;
}

// --------------------------------------------------------------- CallTree

TEST(CallTreeTest, RootOnlyByDefault) {
  CallTree tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.depth(CallTree::kRoot), 0u);
}

TEST(CallTreeTest, ChildOfCreatesOncePerPath) {
  CallTree tree;
  const auto a = tree.child_of(CallTree::kRoot, 100, 1);
  const auto a2 = tree.child_of(CallTree::kRoot, 100, 1);
  EXPECT_EQ(a, a2);
  const auto b = tree.child_of(a, 100, 1);  // same function, deeper path
  EXPECT_NE(b, a);
  EXPECT_EQ(tree.depth(b), 2u);
  EXPECT_EQ(tree.node(b).parent, a);
}

TEST(CallTreeTest, RenderListsCalls) {
  const auto fn = var_registry().intern("compute");
  CallTree tree;
  const auto n = tree.child_of(CallTree::kRoot, SourceLocation(1, 5).packed(), fn);
  tree.node(n).calls = 3;
  const std::string out = tree.render();
  EXPECT_NE(out.find("compute"), std::string::npos);
  EXPECT_NE(out.find("x3"), std::string::npos);
}

TEST(CallTreeTest, RuntimeBuildsTreeFromGuards) {
  Runtime::instance().reset();
  TraceRecorder rec;
  Runtime::instance().attach(&rec);
  {
    DP_FUNCTION("outer");
    for (int i = 0; i < 2; ++i) {
      DP_FUNCTION("inner");
    }
  }
  Runtime::instance().detach();
  const CallTree tree = Runtime::instance().call_tree();
  ASSERT_EQ(tree.size(), 3u);  // root, outer, inner
  const CallNode& root = tree.node(CallTree::kRoot);
  ASSERT_EQ(root.children.size(), 1u);
  const CallNode& outer = tree.node(root.children[0]);
  EXPECT_EQ(outer.calls, 1u);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(tree.node(outer.children[0]).calls, 2u);
  Runtime::instance().reset();
}

// --------------------------------------------------------------- DepGraph

TEST(DepGraphTest, EdgesAndQueries) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, 1), 0);
  deps.add(key(DepType::kRaw, 30, 20, 1), 0);
  deps.add(key(DepType::kWar, 10, 20, 1), 0);
  const DepGraph g(deps);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.nodes().size(), 3u);

  const auto out10 = g.out_edges(SourceLocation(1, 10).packed());
  ASSERT_EQ(out10.size(), 1u);
  EXPECT_EQ(out10[0]->type, DepType::kRaw);

  const auto in20 = g.in_edges(SourceLocation(1, 20).packed());
  ASSERT_EQ(in20.size(), 1u);
}

TEST(DepGraphTest, RawReachability) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 30, 20), 0);
  deps.add(key(DepType::kWar, 40, 30), 0);  // WAR breaks the RAW chain
  const DepGraph g(deps);
  const auto reach = g.raw_reachable(SourceLocation(1, 10).packed());
  EXPECT_EQ(reach.size(), 2u);  // 20 and 30, not 40
  EXPECT_FALSE(g.has_raw_cycle());
}

TEST(DepGraphTest, DetectsRawCycle) {
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10), 0);
  deps.add(key(DepType::kRaw, 10, 20), 0);  // recurrence
  EXPECT_TRUE(DepGraph(deps).has_raw_cycle());
}

TEST(DepGraphTest, DotExportMentionsEdgesAndStyles) {
  const auto var = var_registry().intern("acc");
  DepMap deps;
  deps.add(key(DepType::kRaw, 20, 10, var), kLoopCarried, {5, 1, 1, true});
  deps.add(key(DepType::kWaw, 20, 10, var), 0);
  deps.add(key(DepType::kInit, 10, 0, var), 0);
  const std::string dot = DepGraph(deps).to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("RAW acc"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);   // carried
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // WAW
  EXPECT_EQ(dot.find("INIT"), std::string::npos);  // INIT pseudo-edges skipped
}

// ----------------------------------------------------------- loop verdicts

/// Whitespace-separated cells of the table row whose first cell is `first`.
std::vector<std::string> row_cells(const std::string& table,
                                   const std::string& first) {
  const auto pos = table.find('\n' + first + ' ');
  if (pos == std::string::npos) return {};
  const auto eol = table.find('\n', pos + 1);
  std::istringstream line(table.substr(pos + 1, eol - pos - 1));
  std::vector<std::string> cells;
  for (std::string cell; line >> cell;) cells.push_back(cell);
  return cells;
}

std::string run_plugin(const char* name, const ProgramModel& model) {
  const Plugin* p = find_plugin(name);
  return p == nullptr ? "no plugin " + std::string(name) : p->run(model);
}

TEST(LoopVerdictsTest, ModelAggregatesPerLoop) {
  ControlFlowLog cf;
  LoopRecord loop;
  loop.loop_id = SourceLocation(1, 10).packed();
  loop.begin_loc = SourceLocation(1, 10).packed();
  loop.end_loc = SourceLocation(1, 30).packed();
  loop.iterations = 100;
  loop.entries = 2;
  cf.loops.push_back(loop);

  DepMap deps;
  DepKey inside = key(DepType::kRaw, 15, 12);
  deps.add(inside, kLoopCarried, {loop.loop_id, 1, 1, true});
  deps.add(inside, kLoopCarried, {loop.loop_id, 1, 1, true});
  deps.add(key(DepType::kRaw, 50, 40), 0);  // outside the loop body
  const ProgramModel model(std::move(deps), std::move(cf), {}, {});

  const auto verdicts = model.loop_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kSerial);
  EXPECT_FALSE(verdicts[0].parallelizable());
  ASSERT_EQ(verdicts[0].blockers.size(), 1u);
  EXPECT_EQ(verdicts[0].blockers[0], inside);

  // Self-parallelism: 50 iterations per entry, work = the two instances
  // sinking in the body (the outside dependence is not counted), and the
  // distance-1 recurrence serializes the loop fully.
  const auto cells =
      row_cells(run_plugin("self-parallelism", model), "1:10");
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[1], "50");  // iters/entry
  EXPECT_EQ(cells[2], "1");   // self-parallelism
  EXPECT_EQ(cells[3], "2");   // work
  EXPECT_EQ(cells[4], "0");   // benefit

  const std::string tree = run_plugin("loop-parallelism", model);
  EXPECT_EQ(tree, render_loop_report(verdicts, model.control_flow()));
  EXPECT_NE(tree.find("verdict=serial"), std::string::npos) << tree;
  EXPECT_NE(tree.find("blocked by carried RAW 1:15 <- 1:12"),
            std::string::npos)
      << tree;
}

// ----------------------------------------------------------- ProgramModel

TEST(ProgramModelTest, FromRunBundlesEverything) {
  Runtime::instance().reset();
  ProfilerConfig cfg;
  cfg.storage = StorageKind::kPerfect;
  auto profiler = make_serial_profiler(cfg);
  Runtime::instance().attach(profiler.get());
  {
    DP_FUNCTION("kernel");
    double acc = 0.0;
    DP_LOOP_BEGIN();
    for (int i = 0; i < 8; ++i) {
      DP_LOOP_ITER();
      DP_UPDATE(acc);
      acc += i;
    }
    DP_LOOP_END();
  }
  Runtime::instance().detach();

  const ProgramModel model = ProgramModel::from_run(*profiler);
  EXPECT_GT(model.deps().size(), 0u);
  EXPECT_EQ(model.control_flow().loops.size(), 1u);
  EXPECT_EQ(model.call_tree().size(), 2u);  // root + kernel
  EXPECT_GT(model.dep_graph().edge_count(), 0u);
  const auto verdicts = model.loop_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  // The carried self-RAW on acc blocks the loop (no reduction hint given).
  EXPECT_FALSE(verdicts[0].parallelizable());
  Runtime::instance().reset();
}

// ---------------------------------------------------------------- Plugins

TEST(PluginTest, TableListsBuiltinsInOrder) {
  std::vector<std::string> names;
  for (const Plugin& p : plugins()) {
    names.emplace_back(p.name);
    EXPECT_EQ(find_plugin(p.name), &p);
    EXPECT_NE(std::string(p.description), "");
  }
  const std::vector<std::string> expected = {
      "loop-parallelism", "comm-matrix",      "race-report",
      "hot-deps",         "self-parallelism", "dep-distance"};
  EXPECT_EQ(names, expected);
  EXPECT_EQ(find_plugin("no-such-plugin"), nullptr);
}

TEST(PluginTest, HotDepsRanksByCount) {
  // Twelve distinct dependences, dependence i seen i+1 times: the top ten
  // are listed hottest first and the two coldest are cut.
  DepMap deps;
  for (std::uint32_t i = 0; i < 12; ++i)
    for (std::uint32_t n = 0; n <= i; ++n)
      deps.add(key(DepType::kRaw, 100 + i, 10), 0);
  ProgramModel model(std::move(deps), {}, {}, {});
  const std::string out = run_plugin("hot-deps", model);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 10) << out;
  EXPECT_EQ(out.find("RAW 1:111 <- 1:10"), 0u) << out;  // x12 first
  EXPECT_NE(out.find("x12"), std::string::npos);
  EXPECT_LT(out.find("x12"), out.find("x11"));
  EXPECT_NE(out.find("x3\n"), std::string::npos);
  EXPECT_EQ(out.find("1:101 "), std::string::npos) << out;  // x2 cut
  EXPECT_EQ(out.find("1:100 "), std::string::npos) << out;  // x1 cut
}

TEST(PluginTest, SelfParallelismPrefersParallelHotLoops) {
  ControlFlowLog cf;
  LoopRecord par;  // hot, parallel loop
  par.loop_id = SourceLocation(1, 10).packed();
  par.begin_loc = par.loop_id;
  par.end_loc = SourceLocation(1, 20).packed();
  par.iterations = 1000;
  par.entries = 1;
  LoopRecord seq = par;  // equally hot but carried
  seq.loop_id = SourceLocation(1, 40).packed();
  seq.begin_loc = seq.loop_id;
  seq.end_loc = SourceLocation(1, 50).packed();
  cf.loops = {par, seq};

  DepMap deps;
  for (int i = 0; i < 100; ++i) {
    deps.add(key(DepType::kRaw, 15, 12), 0);  // intra-iteration work
    deps.add(key(DepType::kRaw, 45, 42), kLoopCarried, {seq.loop_id, 1, 1, true});
  }
  ProgramModel model(std::move(deps), cf, {}, {});
  const std::string out = run_plugin("self-parallelism", model);
  // The parallel loop (1:10) must rank above the serialized one (1:40).
  EXPECT_LT(out.find("1:10"), out.find("1:40")) << out;
}

TEST(PluginTest, DepDistanceReportsBlockingAdvice) {
  const std::uint32_t loop5 = SourceLocation(1, 5).packed();
  DepMap deps;
  DepKey k = key(DepType::kRaw, 20, 10, var_registry().intern("a"));
  deps.add(k, kLoopCarried, {loop5, 1, 4, true});
  deps.add(k, kLoopCarried, {loop5, 1, 4, true});
  ProgramModel model(std::move(deps), {}, {}, {});
  const std::string out = run_plugin("dep-distance", model);
  // Both instances sit in the d>=2 bucket: a gap of independent iterations
  // remains, so blocking/unrolling advice applies.
  EXPECT_NE(out.find("gapped: blocking/unrolling may apply"),
            std::string::npos)
      << out;

  DepMap serial_deps;
  serial_deps.add(key(DepType::kRaw, 20, 10), kLoopCarried,
                  {loop5, 1, 1, true});
  ProgramModel serial_model(std::move(serial_deps), {}, {}, {});
  EXPECT_NE(run_plugin("dep-distance", serial_model).find(
                "serializing recurrence"),
            std::string::npos);
}

TEST(PluginTest, SelfParallelismUsesBucketForCarriedLoops) {
  ControlFlowLog cf;
  LoopRecord loop;
  loop.loop_id = SourceLocation(1, 10).packed();
  loop.begin_loc = loop.loop_id;
  loop.end_loc = SourceLocation(1, 30).packed();
  loop.iterations = 1000;
  loop.entries = 1;
  cf.loops.push_back(loop);
  DepMap deps;
  deps.add(key(DepType::kRaw, 15, 12), kLoopCarried,
           {loop.loop_id, 1, 8, true});
  ProgramModel model(std::move(deps), cf, {}, {});
  const auto verdicts = model.loop_verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].kind, LoopVerdictKind::kSerial);
  // Only d>=2 instances: at least one independent iteration between
  // conflicting ones, so SP floors at 2 rather than serializing fully.
  const auto cells =
      row_cells(run_plugin("self-parallelism", model), "1:10");
  ASSERT_EQ(cells.size(), 5u) << run_plugin("self-parallelism", model);
  EXPECT_EQ(cells[2], "2");
}

}  // namespace
}  // namespace depprof
