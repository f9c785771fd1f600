#include "traced_pipeline.hh"

#include <memory>
#include <optional>

#include "common/task_pool.hh"
#include "common/util.hh"
#include "detect/race_detect.hh"
#include "hb/pull.hh"
#include "prune/impact.hh"
#include "replay/bundle.hh"
#include "replay/policies.hh"

namespace perfbench {

using namespace dcatch;

namespace {

/** Sim construction and topology build, then run, then teardown
 *  (joining the simulated threads), each under its own span. */
std::unique_ptr<sim::Simulation>
buildSim(const apps::Benchmark &bench, const trace::TracerConfig &tc,
         replay::ScheduleLog *log, SpanRecorder *recorder)
{
    ScopedSpan span(recorder, "runtime.build", bench.id);
    auto sim = std::make_unique<sim::Simulation>(bench.config);
    sim->setTracerConfig(tc);
    if (log)
        replay::attachRecorder(*sim, *log);
    bench.build(*sim);
    return sim;
}

void
teardown(std::unique_ptr<sim::Simulation> &sim, SpanRecorder *recorder)
{
    ScopedSpan span(recorder, "runtime.teardown");
    sim.reset();
}

std::string
bundleJson(const apps::Benchmark &bench, const char *kind)
{
    return strprintf("{\"kind\": \"%s\", \"benchmark\": \"%s\"}", kind,
                     bench.id.c_str());
}

} // namespace

TracedPipelineResult
tracedPipeline(const apps::Benchmark &bench,
               const TracedPipelineOptions &options, SpanRecorder *recorder)
{
    ScopedSpan whole(recorder, "dcatch.pipeline", bench.id);
    TracedPipelineResult out;
    PipelineResult &result = out.result;
    TaskPool pool(1);

    if (options.measureBase) {
        trace::TracerConfig off;
        off.traceMemory = false;
        off.traceOps = false;
        off.traceLocks = false;
        auto base = buildSim(bench, off, nullptr, recorder);
        {
            ScopedSpan span(recorder, "runtime.run", bench.id);
            out.baseSteps = base->run().steps;
        }
        teardown(base, recorder);
    }

    trace::TracerConfig tc;
    if (!options.reproDir.empty()) {
        result.scheduleRecorded = true;
        result.monitoredSchedule = std::make_shared<replay::ScheduleLog>();
    }
    auto traced =
        buildSim(bench, tc, result.monitoredSchedule.get(), recorder);
    {
        ScopedSpan span(recorder, "trace.traced_run", bench.id);
        result.monitoredRun = traced->run();
    }
    {
        ScopedSpan span(recorder, "trace.collect");
        result.monitoredTrace = traced->tracer().store();
        result.metrics.traceBytes = result.monitoredTrace.serializedBytes();
        result.metrics.traceRecords = result.monitoredTrace.totalRecords();
    }
    teardown(traced, recorder);
    if (result.monitoredSchedule) {
        replay::ScheduleHeader &header = result.monitoredSchedule->header;
        header = replay::headerFromConfig(bench.config);
        header.benchmarkId = bench.id;
        header.label = "monitored";
        for (const sim::FailureEvent &failure : result.monitoredRun.failures)
            header.expectedFailureKinds.push_back(
                sim::failureKindName(failure.kind));
        {
            ScopedSpan span(recorder, "trace.digest");
            header.traceChecksum = result.monitoredTrace.contentDigest();
        }
        header.traceRecords = result.monitoredTrace.totalRecords();
        ScopedSpan span(recorder, "replay.bundle_write", "monitored");
        result.monitoredBundleDir = replay::writeBundle(
            options.reproDir + "/monitored", *result.monitoredSchedule,
            bundleJson(bench, "monitored"));
        ++out.bundles;
    }

    std::optional<model::ProgramModel> model;
    {
        ScopedSpan span(recorder, "model.build", bench.id);
        model = bench.buildModel();
    }

    hb::HbGraph::Options graph_options;
    graph_options.engine = hb::HbGraph::Engine::Auto;
    graph_options.pool = &pool;
    std::optional<hb::HbGraph> graph;
    {
        ScopedSpan span(recorder, "hb.build", bench.id);
        graph.emplace(result.monitoredTrace, graph_options);
    }
    result.metrics.hbVertices = graph->size();
    result.metrics.hbReachBytes = graph->reachBytes();
    if (graph->oom()) {
        result.analysisOom = true;
        return out;
    }

    detect::RaceDetector detector;
    prune::StaticPruner pruner(*model);
    auto detect = [&] {
        ScopedSpan span(recorder, "detect.detect", bench.id);
        return detector.detect(*graph, &pool);
    };
    auto prune = [&](const std::vector<detect::Candidate> &in) {
        ScopedSpan span(recorder, "prune.prune", bench.id);
        std::vector<detect::Candidate> kept = pruner.prune(in);
        out.pruneIn += in.size();
        out.pruneKept += kept.size();
        return kept;
    };
    result.afterTa = detect();
    result.afterSp = prune(result.afterTa);

    hb::PullResult pull;
    {
        ScopedSpan span(recorder, "hb.pull", bench.id);
        hb::PullAnalyzer analyzer(*model, bench.build, bench.config);
        pull = analyzer.analyze(*graph, result.afterSp);
    }
    if (!pull.edges.empty()) {
        ScopedSpan span(recorder, "hb.add_edges", bench.id);
        graph->addEdges(pull.edges);
    }
    std::vector<detect::Candidate> redetected = prune(detect());
    {
        ScopedSpan span(recorder, "hb.apply_pull", bench.id);
        result.afterLp = hb::applyPullResult(*graph, redetected, pull);
    }

    if (!options.runTrigger)
        return out;
    {
        ScopedSpan span(recorder, "trigger.test_all", bench.id);
        trigger::TriggerHarness harness(bench.build, bench.config);
        if (!options.reproDir.empty())
            harness.enableScheduleRecording(bench.id);
        result.triggered =
            harness.testAll(result.afterLp, result.monitoredTrace, &pool);
    }
    int harmful = 0;
    for (trigger::TriggerReport &report : result.triggered) {
        if (report.cls != trigger::TriggerClass::Harmful ||
            !report.failingSchedule)
            continue;
        ScopedSpan span(recorder, "replay.bundle_write", "harmful");
        report.bundleDir = replay::writeBundle(
            strprintf("%s/harmful-%02d", options.reproDir.c_str(),
                      harmful++),
            *report.failingSchedule, bundleJson(bench, "harmful"));
        ++out.bundles;
    }
    return out;
}

} // namespace perfbench
