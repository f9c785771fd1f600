/**
 * @file
 * Span arithmetic and the percentile rule of the benchmark program.
 */

#include <gtest/gtest.h>

#include <thread>

#include "spans.hh"

namespace perfbench {
namespace {

TEST(SelfTime, NestedSpansSubtractOnlyDirectChildren)
{
    SpanRecorder rec;
    int op = rec.add("op.x", -1, 0, 100);
    int a = rec.add("dcatch.pipeline", op, 10, 90);
    int b = rec.add("hb.build", a, 20, 50);
    int c = rec.add("detect.detect", b, 30, 40);
    std::vector<Span> spans = rec.spans();
    std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[static_cast<std::size_t>(op)], 20);
    EXPECT_EQ(self[static_cast<std::size_t>(a)], 50);
    EXPECT_EQ(self[static_cast<std::size_t>(b)], 20);
    EXPECT_EQ(self[static_cast<std::size_t>(c)], 10);
    EXPECT_EQ(spans[static_cast<std::size_t>(c)].op, op);
    EXPECT_DOUBLE_EQ(coverage(spans, op), 0.8);
    // A wrapper's own time is not inside any entry-point span.
    EXPECT_DOUBLE_EQ(coverage(spans, op, {"dcatch.pipeline"}), 0.3);
}

TEST(SelfTime, ChildrenOverlappingAcrossWorkersCountOnce)
{
    // Two pool workers run children of one fan-out span at the same
    // time: the parent's covered time is the union, not the sum.
    SpanRecorder rec;
    int fan = rec.add("explore.fanout", -1, 0, 100);
    rec.add("explore.run", fan, 0, 60, 1);
    rec.add("explore.run", fan, 10, 70, 2);
    rec.add("explore.shrink", fan, 80, 90, 2);
    std::vector<Span> spans = rec.spans();
    std::vector<std::int64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[static_cast<std::size_t>(fan)], 100 - 70 - 10);
    EXPECT_DOUBLE_EQ(coverage(spans, fan), 0.8);
    std::map<std::string, LayerRow> table = layerTable(spans);
    EXPECT_EQ(table["explore"].calls, 4u);
    EXPECT_EQ(table["explore"].totalNs, 100 + 60 + 60 + 10);
    EXPECT_EQ(table["explore"].selfNs, 20 + 60 + 60 + 10);
}

TEST(SelfTime, CoverageChargesWrapperGapsAcrossWorkers)
{
    // A fan-out wrapper whose work runs on two workers: time when
    // either worker is inside an entry-point span is covered, time
    // when neither is (and the operation's own glue) is not.
    SpanRecorder rec;
    int op = rec.add("op.x", -1, 0, 200);
    int campaign = rec.add("explore.campaign", op, 0, 190);
    rec.add("dcatch.pipeline", campaign, 0, 50);
    int fan = rec.add("explore.fanout", campaign, 50, 180);
    rec.add("explore.run", fan, 60, 120, 1);
    rec.add("explore.run", fan, 70, 150, 2);
    rec.add("replay.verify", fan, 160, 170, 1);
    std::vector<Span> spans = rec.spans();
    std::set<std::string> wrappers = {"dcatch.pipeline", "explore.campaign",
                                      "explore.fanout"};
    // op self 10, campaign self 10, pipeline self 50, fan-out self
    // 130 - 90 - 10 = 30: 100 of 200 ns uncovered.
    EXPECT_DOUBLE_EQ(coverage(spans, op, wrappers), 0.5);
    EXPECT_DOUBLE_EQ(coverage(spans, op), 0.95);
}

TEST(SelfTime, ChildrenAreClippedToTheirParent)
{
    SpanRecorder rec;
    int op = rec.add("op.x", -1, 100, 200);
    rec.add("serve.drain", op, 50, 150);
    std::vector<std::int64_t> self = selfTimesNs(rec.spans());
    EXPECT_EQ(self[static_cast<std::size_t>(op)], 50);
}

TEST(SelfTime, UnionLength)
{
    EXPECT_EQ(unionLengthNs({}), 0);
    EXPECT_EQ(unionLengthNs({{0, 10}, {5, 15}, {20, 30}}), 25);
    EXPECT_EQ(unionLengthNs({{20, 30}, {0, 40}}), 40);
    EXPECT_EQ(unionLengthNs({{0, 10}, {10, 20}}), 20);
}

TEST(ScopedSpan, NestsPerThreadAndTakesExplicitParents)
{
    SpanRecorder rec;
    int op_id = -1, child_id = -1, worker_id = -1;
    {
        ScopedSpan op(&rec, "op.x");
        op_id = op.id();
        {
            ScopedSpan child(&rec, "hb.build");
            child_id = child.id();
        }
        std::thread worker([&] {
            ScopedSpan span(&rec, "explore.run", op_id);
            worker_id = span.id();
        });
        worker.join();
    }
    std::vector<Span> spans = rec.spans();
    EXPECT_EQ(spans[static_cast<std::size_t>(child_id)].parent, op_id);
    EXPECT_EQ(spans[static_cast<std::size_t>(worker_id)].parent, op_id);
    EXPECT_EQ(spans[static_cast<std::size_t>(worker_id)].op, op_id);
    EXPECT_NE(spans[static_cast<std::size_t>(worker_id)].thread,
              spans[static_cast<std::size_t>(op_id)].thread);
    for (const Span &span : spans)
        EXPECT_GE(span.endNs, span.startNs);

    ScopedSpan off(nullptr, "op.untraced");
    EXPECT_EQ(off.id(), -1);
}

TEST(ChromeTrace, WritesOneCompleteEventPerSpan)
{
    SpanRecorder rec;
    int op = rec.add("op.x", -1, 1000, 3000);
    rec.add("trace.load", op, 1500, 2500);
    std::string json = chromeTraceJson(rec.spans());
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"name\":\"trace.load\",\"cat\":\"trace\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":1.500,\"dur\":1.000"), std::string::npos);
    EXPECT_NE(json.find("\"parent\":0,\"op\":0"), std::string::npos);
}

TEST(PercentileRule, NeedsTenSamplesBeyond)
{
    EXPECT_FALSE(reportable(19, 0.5));
    EXPECT_TRUE(reportable(20, 0.5));
    EXPECT_FALSE(reportable(99, 0.9));
    EXPECT_TRUE(reportable(100, 0.9));
    EXPECT_FALSE(reportable(999, 0.99));
    EXPECT_TRUE(reportable(1000, 0.99));
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
}

TEST(PercentileRule, NearestRank)
{
    std::vector<double> values;
    for (int i = 100; i >= 1; --i)
        values.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(values, 0.5), 50);
    EXPECT_DOUBLE_EQ(percentile(values, 0.9), 90);
    EXPECT_DOUBLE_EQ(percentile(values, 1.0), 100);
    EXPECT_DOUBLE_EQ(percentile({}, 0.9), 0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

} // namespace
} // namespace perfbench
