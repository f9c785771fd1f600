/**
 * @file
 * explore-campaign: a fixed explore::explore campaign — policies
 * random,pct:3,delay:2, four runs per policy, shrinking and
 * cross-validation on, jobs = 2 — over the five small benchmarks that
 * fail under those policies.  One operation is the campaign over all
 * five.  The campaign's seedBase stays fixed (1, the CLI default):
 * how many runs fail, and so how much shrinking follows, depends on
 * the seeds, and a seed-dependent amount of work would swamp the
 * run-to-run spread.  The workload seed only orders the benchmarks.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "apps/benchmark.hh"
#include "common/task_pool.hh"
#include "common/util.hh"
#include "dcatch/pipeline.hh"
#include "explore/crossval.hh"
#include "explore/explorer.hh"
#include "explore/shrink.hh"
#include "replay/driver.hh"
#include "replay/policies.hh"
#include "traced_pipeline.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dcatch;

namespace {

constexpr char kPolicies[] = "random,pct:3,delay:2";
constexpr int kJobs = 2;
constexpr std::uint64_t kSeedBase = 1;

/** Everything a campaign run's outcome must repeat, as one string. */
std::string
runKey(const explore::RunRecord &rec)
{
    return strprintf("%s|%s|%s|%llu|%d|%llu|%llu|%d%d%d|%s",
                     rec.policy.c_str(), rec.status.c_str(),
                     rec.signature.c_str(),
                     static_cast<unsigned long long>(rec.steps), rec.failed,
                     static_cast<unsigned long long>(rec.shrunkPrefix),
                     static_cast<unsigned long long>(rec.shrinkReplays),
                     rec.replayVerified, rec.minimizedVerified,
                     rec.crossValidated, rec.matchedPair.c_str());
}

/** One adversarial run, set up exactly as explore::explore does. */
struct ExploreRun
{
    sim::SimConfig config;
    replay::ScheduleLog log; ///< outlives the simulation's run
    std::unique_ptr<sim::Simulation> sim;
    sim::RunResult run;
};

std::unique_ptr<ExploreRun>
startRun(const apps::Benchmark &bench, const explore::PolicySpec &spec,
         std::uint64_t seed, std::uint64_t horizon)
{
    auto run = std::make_unique<ExploreRun>();
    explore::ExploreOptions defaults;
    run->config = bench.config;
    run->config.policy = sim::PolicyKind::Fifo;
    run->config.seed = seed;
    run->config.maxSteps = std::min<std::uint64_t>(
        run->config.maxSteps,
        horizon * defaults.hangFactor + defaults.hangSlack);
    run->sim = std::make_unique<sim::Simulation>(run->config);
    sim::Simulation *sim = run->sim.get();
    sim->setSchedulerPolicy(std::make_unique<replay::RecordingPolicy>(
        explore::makePolicy(spec, seed, horizon), run->log,
        [sim](int tid) { return sim->threadName(tid); }));
    bench.build(*sim);
    return run;
}

class ExploreCampaign : public Workload
{
  public:
    explicit ExploreCampaign(const Options &options) : options_(options)
    {
        policies_ = explore::parsePolicyList(kPolicies);
        exploreOptions_.runsPerPolicy = options_.tiny ? 1 : 4;
        exploreOptions_.jobs = kJobs;
        exploreOptions_.seedBase = kSeedBase;
    }

    void
    setup() override
    {
        benches_.clear();
        reference_.clear();
        campaigns_.clear();
        std::vector<std::string> ids = {"ZK-1144", "ZK-1270", "HB-4539",
                                        "KV-2501", "CA-1011"};
        if (options_.tiny)
            ids = {"ZK-1144"};
        for (std::size_t i : seededOrder(ids.size(), options_.seed))
            benches_.push_back(&apps::benchmark(ids[i]));
        // Reference: the campaign's monitored stage, and the first run
        // of every policy, replicated outside explore().
        for (const apps::Benchmark *bench : benches_) {
            PipelineOptions po;
            po.measureBase = false;
            po.jobs = kJobs;
            PipelineResult monitored = runPipeline(*bench, po);
            Reference &ref = reference_[bench->id];
            ref.monitoredSteps = monitored.monitoredRun.steps;
            ref.finalReports = monitored.afterLp.size();
            for (std::size_t p = 0; p < policies_.size(); ++p) {
                std::size_t idx =
                    p * static_cast<std::size_t>(
                            exploreOptions_.runsPerPolicy);
                auto run = startRun(*bench, policies_[p], kSeedBase + idx,
                                    ref.monitoredSteps);
                sim::RunResult result = run->sim->run();
                ref.firstRuns.push_back(strprintf(
                    "%s|%s|%llu", sim::runStatusName(result.status),
                    explore::failureSignature(result).c_str(),
                    static_cast<unsigned long long>(result.steps)));
            }
        }
    }

    Timed
    measure(double seconds, Checks &checks) override
    {
        std::vector<std::string> ids;
        for (const apps::Benchmark *bench : benches_)
            ids.push_back(bench->id);
        Timed timed = sweepParts(ids, seconds, [&](std::size_t i) {
            check(*benches_[i],
                  explore::explore(*benches_[i], policies_, exploreOptions_),
                  checks);
        });
        campaignSeconds_ = sweepSeconds(timed, 0.5);
        return timed;
    }

    Traced
    traced(SpanRecorder &recorder, Checks &checks) override
    {
        Traced traced;
        traced.untracedSeconds = campaignSeconds_;
        std::vector<explore::CampaignResult> results;
        std::vector<TracedPipelineResult> pipelines;
        std::vector<int> fanouts;
        {
            ScopedSpan op(&recorder, "op.explore-campaign");
            traced.opSpan = op.id();
            for (const apps::Benchmark *bench : benches_) {
                pipelines.emplace_back();
                results.push_back(tracedCampaign(
                    *bench, recorder, pipelines.back(), fanouts));
            }
        }

        double runs = 0, failures = 0, signatures = 0, shrink_replays = 0,
               steps = 0, records = 0, bytes = 0, vertices = 0, reach = 0,
               candidates = 0, prune_in = 0, prune_kept = 0;
        for (std::size_t i = 0; i < benches_.size(); ++i) {
            const explore::CampaignResult &c = results[i];
            check(*benches_[i], c, checks);
            runs += static_cast<double>(c.runs.size());
            failures += c.failures();
            signatures +=
                static_cast<double>(c.distinctSignatures().size());
            for (const explore::RunRecord &rec : c.runs) {
                shrink_replays += static_cast<double>(rec.shrinkReplays);
                steps += static_cast<double>(rec.steps);
            }
            const TracedPipelineResult &p = pipelines[i];
            records += static_cast<double>(p.result.metrics.traceRecords);
            bytes += static_cast<double>(p.result.metrics.traceBytes);
            vertices += static_cast<double>(p.result.metrics.hbVertices);
            reach += static_cast<double>(p.result.metrics.hbReachBytes);
            candidates += static_cast<double>(p.result.afterTa.size());
            prune_in += static_cast<double>(p.pruneIn);
            prune_kept += static_cast<double>(p.pruneKept);
        }
        // Busy share of the pool: span time of the fanned-out work
        // over (fan-out wall clock x jobs).
        std::vector<Span> spans = recorder.spans();
        double busy = 0, capacity = 0;
        for (int fanout : fanouts) {
            capacity += static_cast<double>(
                            spans[static_cast<std::size_t>(fanout)]
                                .durationNs()) *
                        kJobs;
            for (const Span &span : spans)
                if (span.parent == fanout)
                    busy += static_cast<double>(span.durationNs());
        }
        traced.layer = {
            {"runtime.steps", steps},
            {"trace.records", records},
            {"trace.bytes", bytes},
            {"hb.vertices", vertices},
            {"hb.reach_bytes", reach},
            {"detect.candidates", candidates},
            {"prune.kept_ratio", prune_in > 0 ? prune_kept / prune_in : 0},
            {"explore.runs", runs},
            {"explore.failures", failures},
            {"explore.distinct_signatures", signatures},
            {"explore.shrink_replays", shrink_replays},
            {"explore.pool_utilization",
             capacity > 0 ? busy / capacity : 0},
        };
        return traced;
    }

  private:
    struct Reference
    {
        std::uint64_t monitoredSteps = 0;
        std::size_t finalReports = 0;
        std::vector<std::string> firstRuns; ///< one per policy
    };

    /**
     * explore::explore's stages, each call under a span: the monitored
     * pipeline, then the runs fanned out over a jobs = 2 pool with
     * cross-validation, replay verification and shrinking of each
     * failure.  Bundles stay in memory, as in the timed campaign.
     */
    explore::CampaignResult
    tracedCampaign(const apps::Benchmark &bench, SpanRecorder &recorder,
                   TracedPipelineResult &monitored, std::vector<int> &fanouts)
    {
        ScopedSpan campaign(&recorder, "explore.campaign", bench.id);
        explore::CampaignResult result;
        result.benchmarkId = bench.id;
        TracedPipelineOptions po;
        po.measureBase = false;
        monitored = tracedPipeline(bench, po, &recorder);
        std::map<std::string, std::size_t> monitored_order;
        {
            ScopedSpan span(&recorder, "explore.crossval", "monitored");
            monitored_order =
                explore::siteFirstOccurrence(monitored.result.monitoredTrace);
        }
        const std::vector<detect::Candidate> &final_reports =
            monitored.result.afterLp;
        const std::vector<detect::Candidate> &after_ta =
            monitored.result.afterTa;
        const std::uint64_t horizon = monitored.result.monitoredRun.steps;
        result.monitoredSteps = horizon;
        result.finalReportCount = final_reports.size();

        const auto runs =
            static_cast<std::size_t>(exploreOptions_.runsPerPolicy);
        result.runs.resize(policies_.size() * runs);
        ScopedSpan fanout(&recorder, "explore.fanout", bench.id);
        fanouts.push_back(fanout.id());
        TaskPool pool(kJobs);
        pool.parallelFor(result.runs.size(), [&](std::size_t idx) {
            const explore::PolicySpec &spec = policies_[idx / runs];
            explore::RunRecord &rec = result.runs[idx];
            rec.policy = spec.text();
            rec.seed = kSeedBase + idx;
            std::string label =
                strprintf("%s %s seed %llu", bench.id.c_str(),
                          rec.policy.c_str(),
                          static_cast<unsigned long long>(rec.seed));
            std::unique_ptr<ExploreRun> run;
            std::map<std::string, std::size_t> failing_order;
            {
                ScopedSpan span(&recorder, "explore.run", fanout.id(),
                                label);
                {
                    ScopedSpan build(&recorder, "runtime.build");
                    run = startRun(bench, spec, rec.seed, horizon);
                }
                {
                    ScopedSpan sim_run(&recorder, "runtime.run", label);
                    run->run = run->sim->run();
                }
                rec.status = sim::runStatusName(run->run.status);
                rec.steps = run->run.steps;
                rec.decisions = run->log.size();
                rec.signature = explore::failureSignature(run->run);
                rec.failed = explore::isExploreFailure(run->run);
                if (rec.failed) {
                    replay::ScheduleLog &log = run->log;
                    log.header = replay::headerFromConfig(run->config);
                    log.header.benchmarkId = bench.id;
                    log.header.label = label;
                    for (const sim::FailureEvent &failure :
                         run->run.failures)
                        log.header.expectedFailureKinds.push_back(
                            sim::failureKindName(failure.kind));
                    const trace::TraceStore &store =
                        run->sim->tracer().store();
                    {
                        ScopedSpan digest(&recorder, "trace.digest");
                        log.header.traceChecksum = store.contentDigest();
                    }
                    log.header.traceRecords = store.totalRecords();
                    ScopedSpan order(&recorder, "explore.crossval",
                                     "failing order");
                    failing_order = explore::siteFirstOccurrence(store);
                }
                ScopedSpan teardown(&recorder, "runtime.teardown");
                run->sim.reset();
            }
            if (!rec.failed)
                return;
            {
                ScopedSpan span(&recorder, "explore.crossval", fanout.id(),
                                label);
                explore::CrossValMatch match = explore::crossValidate(
                    final_reports, after_ta, monitored_order,
                    failing_order);
                rec.crossValidated = match.matched;
                rec.matchedPair = match.pairKey;
                rec.matchTier = match.tier;
            }
            {
                ScopedSpan span(&recorder, "replay.verify", fanout.id(),
                                label);
                rec.replayVerified = replay::replayLog(run->log).identical();
            }
            explore::ShrinkResult shrunk;
            {
                ScopedSpan span(&recorder, "explore.shrink", fanout.id(),
                                label);
                explore::ShrinkOptions so;
                so.maxReplays = exploreOptions_.shrinkBudget;
                shrunk = explore::shrinkSchedule(bench, run->log,
                                                 rec.signature, so);
            }
            rec.shrunkPrefix = shrunk.divergencePrefix;
            rec.shrinkReplays = shrunk.replaysUsed;
            rec.minimizedSignature = shrunk.signature;
            ScopedSpan span(&recorder, "replay.verify", fanout.id(),
                            label + " minimized");
            rec.minimizedVerified =
                replay::replayLog(shrunk.minimized).identical();
        });
        return result;
    }

    void
    check(const apps::Benchmark &bench,
          const explore::CampaignResult &result, Checks &checks)
    {
        const Reference &ref = reference_.at(bench.id);
        std::string what;
        if (!result.allBundlesVerified())
            what += " bundle-not-verified";
        if (!result.allMinimizedVerified())
            what += " minimized-not-verified";
        if (!result.allFailuresCrossValidated())
            what += " not-cross-validated";
        for (const explore::RunRecord &rec : result.runs)
            if (rec.failed && rec.minimizedSignature != rec.signature) {
                what += " minimized-signature";
                break;
            }
        if (result.monitoredSteps != ref.monitoredSteps)
            what += " monitored-steps";
        if (result.finalReportCount != ref.finalReports)
            what += " final-reports";
        const auto runs =
            static_cast<std::size_t>(exploreOptions_.runsPerPolicy);
        for (std::size_t p = 0; p < policies_.size(); ++p) {
            const explore::RunRecord &rec = result.runs.at(p * runs);
            if (strprintf("%s|%s|%llu", rec.status.c_str(),
                          rec.signature.c_str(),
                          static_cast<unsigned long long>(rec.steps)) !=
                ref.firstRuns[p])
                what += " run-drift:" + rec.policy;
        }
        std::vector<std::string> keys;
        for (const explore::RunRecord &rec : result.runs)
            keys.push_back(runKey(rec));
        auto [it, first] = campaigns_.emplace(bench.id, keys);
        if (!first && it->second != keys)
            what += " campaign-drift";
        checks.item(what.empty(), bench.id + ":" + what);
    }

    Options options_;
    std::vector<explore::PolicySpec> policies_;
    explore::ExploreOptions exploreOptions_;
    std::vector<const apps::Benchmark *> benches_;
    std::map<std::string, Reference> reference_;
    /** Run outcomes of each benchmark's first campaign. */
    std::map<std::string, std::vector<std::string>> campaigns_;
    double campaignSeconds_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeExploreCampaign(const Options &options)
{
    return std::make_unique<ExploreCampaign>(options);
}

} // namespace perfbench
