/**
 * @file
 * batch-trigger: one closed-loop client on one thread calls
 * runPipeline(bench, {runTrigger, reproDir, jobs = 1}) for each of the
 * nine registry benchmarks — what `dcatch run <id> --trigger
 * --record-schedule DIR --jobs 1` does.  One operation is one sweep
 * over the nine; the seed only fixes the order of the sweep.
 */

#include <filesystem>
#include <map>

#include "dcatch/pipeline.hh"
#include "detect/race_detect.hh"
#include "hb/graph.hh"
#include "traced_pipeline.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dcatch;

namespace {

/** Simulated counts every rep must repeat exactly. */
struct Reference
{
    std::uint64_t steps = 0;
    std::size_t records = 0;
    std::size_t bytes = 0;
    std::size_t vertices = 0;
    std::vector<std::string> candidates; ///< trace-analysis keys
};

class BatchTrigger : public Workload
{
  public:
    explicit BatchTrigger(const Options &options) : options_(options) {}

    void
    setup() override
    {
        benches_.clear();
        reference_.clear();
        classes_.clear();
        std::vector<const apps::Benchmark *> chosen;
        for (const apps::Benchmark &bench : apps::allBenchmarks())
            if (!options_.tiny || bench.id == "ZK-1144" ||
                bench.id == "KV-2501")
                chosen.push_back(&bench);
        for (std::size_t i : seededOrder(chosen.size(), options_.seed))
            benches_.push_back(chosen[i]);
        // The monitored run and trace analysis of every benchmark, as
        // runPipeline does them: the counts each rep must repeat.
        for (const apps::Benchmark *bench : benches_) {
            sim::Simulation sim(bench->config);
            bench->build(sim);
            sim::RunResult run = sim.run();
            const trace::TraceStore &store = sim.tracer().store();
            Reference &ref = reference_[bench->id];
            ref.steps = run.steps;
            ref.records = store.totalRecords();
            ref.bytes = store.serializedBytes();
            hb::HbGraph::Options graph_options;
            graph_options.engine = hb::HbGraph::Engine::Auto;
            hb::HbGraph graph(store, graph_options);
            ref.vertices = graph.size();
            ref.candidates =
                candidateKeys(detect::RaceDetector().detect(graph));
        }
    }

    Timed
    measure(double seconds, Checks &checks) override
    {
        std::vector<std::string> ids;
        for (const apps::Benchmark *bench : benches_)
            ids.push_back(bench->id);
        Timed timed = sweepParts(ids, seconds, [&](std::size_t i) {
            PipelineOptions po;
            po.runTrigger = true;
            po.reproDir = freshReproDir(*benches_[i]);
            po.jobs = 1;
            check(*benches_[i], runPipeline(*benches_[i], po), checks);
        });
        sweepSeconds_ = sweepSeconds(timed, 0.5);
        return timed;
    }

    Traced
    traced(SpanRecorder &recorder, Checks &checks) override
    {
        std::vector<std::string> dirs;
        for (const apps::Benchmark *bench : benches_)
            dirs.push_back(freshReproDir(*bench));
        std::vector<TracedPipelineResult> results;
        Traced traced;
        traced.untracedSeconds = sweepSeconds_;
        {
            ScopedSpan op(&recorder, "op.batch-trigger");
            traced.opSpan = op.id();
            for (std::size_t i = 0; i < benches_.size(); ++i) {
                TracedPipelineOptions po;
                po.runTrigger = true;
                po.reproDir = dirs[i];
                results.push_back(
                    tracedPipeline(*benches_[i], po, &recorder));
            }
        }

        double steps = 0, records = 0, bytes = 0, vertices = 0,
               reach = 0, candidates = 0, prune_in = 0, prune_kept = 0,
               order_runs = 0, enforced = 0, bundles = 0;
        for (std::size_t i = 0; i < benches_.size(); ++i) {
            const TracedPipelineResult &r = results[i];
            check(*benches_[i], r.result, checks);
            steps += static_cast<double>(r.baseSteps);
            records += static_cast<double>(r.result.metrics.traceRecords);
            bytes += static_cast<double>(r.result.metrics.traceBytes);
            vertices += static_cast<double>(r.result.metrics.hbVertices);
            reach += static_cast<double>(r.result.metrics.hbReachBytes);
            candidates += static_cast<double>(r.result.afterTa.size());
            prune_in += static_cast<double>(r.pruneIn);
            prune_kept += static_cast<double>(r.pruneKept);
            bundles += static_cast<double>(r.bundles);
            for (const trigger::TriggerReport &report : r.result.triggered)
                for (const trigger::OrderRun &run : report.runs) {
                    ++order_runs;
                    enforced += run.enforced;
                }
        }
        traced.layer = {
            {"runtime.steps", steps},
            {"trace.records", records},
            {"trace.bytes", bytes},
            {"hb.vertices", vertices},
            {"hb.reach_bytes", reach},
            {"detect.candidates", candidates},
            {"prune.kept_ratio", prune_in > 0 ? prune_kept / prune_in : 0},
            {"trigger.order_runs", order_runs},
            {"trigger.enforced_ratio",
             order_runs > 0 ? enforced / order_runs : 0},
            {"replay.bundles", bundles},
        };
        return traced;
    }

  private:
    std::string
    freshReproDir(const apps::Benchmark &bench) const
    {
        std::string dir = options_.workDir + "/batch-trigger/" + bench.id;
        std::filesystem::remove_all(dir);
        return dir;
    }

    void
    check(const apps::Benchmark &bench, const PipelineResult &result,
          Checks &checks)
    {
        const Reference &ref = reference_.at(bench.id);
        std::string what;
        if (result.analysisOom)
            what += " analysis-oom";
        if (!classify(bench, result).knownBugDetected)
            what += " known-bug-not-harmful";
        if (result.monitoredRun.steps != ref.steps)
            what += " steps";
        if (result.monitoredTrace.totalRecords() != ref.records)
            what += " trace-records";
        if (result.monitoredTrace.serializedBytes() != ref.bytes)
            what += " trace-bytes";
        if (result.metrics.hbVertices != ref.vertices)
            what += " hb-vertices";
        if (candidateKeys(result.afterTa) != ref.candidates)
            what += " candidates";
        if (result.monitoredBundleDir.empty())
            what += " no-monitored-bundle";
        std::vector<int> classes;
        for (const trigger::TriggerReport &report : result.triggered)
            classes.push_back(static_cast<int>(report.cls));
        auto [it, first] = classes_.emplace(bench.id, classes);
        if (!first && it->second != classes)
            what += " trigger-classes";
        checks.item(what.empty(), bench.id + ":" + what);
    }

    Options options_;
    std::vector<const apps::Benchmark *> benches_;
    std::map<std::string, Reference> reference_;
    /** Trigger classes of the first rep of each benchmark. */
    std::map<std::string, std::vector<int>> classes_;
    double sweepSeconds_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeBatchTrigger(const Options &options)
{
    return std::make_unique<BatchTrigger>(options);
}

} // namespace perfbench
