/**
 * @file
 * offline-analyze: trace analysis with no simulation in the timed
 * part.  Set-up runs MR-3274 x64, MR-3274 x256 and HB-4539 regions x32
 * once and writes their trace files; an operation then loads the three
 * traces (TraceStore::loadFromDirectory), builds the HB graph, detects
 * and prunes, one trace after another, in a closed loop.  MR x256 is
 * closure-heavy, HB x32 detection-heavy, MR x64 sits below the Auto
 * engine's crossover.
 *
 * Each analysis runs as runPipeline's does with jobs = 2: a TaskPool
 * of two workers builds the graph's indexes, runs the closure-overlap
 * pre-pass (the detector's units against the pre-closure snapshot)
 * beside Rule-Eserial closure, and shards detection.  The set-up's
 * reference analysis is the serial one, so every timed operation also
 * checks that the pooled path gives the serial answer.
 *
 * One client, not two: two concurrent clients drift in and out of
 * phase (both in MR x256's closure at once, or not), which made the
 * median operation time vary by 20% between identical runs on a
 * 4-core host.
 */

#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "apps/hbase/mini_hbase.hh"
#include "apps/mapreduce/mini_mr.hh"
#include "common/task_pool.hh"
#include "detect/race_detect.hh"
#include "detect/streaming.hh"
#include "hb/graph.hh"
#include "prune/impact.hh"
#include "runtime/sim.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dcatch;

namespace {

struct Input
{
    std::string name;
    std::string dir;
    std::vector<trace::QueueMeta> queues;
    std::vector<trace::ThreadMeta> threads;
    model::ProgramModel model;
    /// @{ @name Reference: the in-memory analysis at set-up
    std::size_t records = 0;
    std::size_t vertices = 0;
    std::vector<std::string> candidates;
    std::vector<std::string> kept;
    /// @}
};

struct Analysis
{
    std::size_t records = 0;
    std::size_t bytes = 0;
    std::size_t vertices = 0;
    std::size_t reachBytes = 0;
    std::vector<detect::Candidate> candidates;
    std::vector<detect::Candidate> kept;
};

constexpr int kJobs = 2;
/** runPipeline's pre-pass epoch window. */
constexpr std::size_t kOverlapEpochWindow = 4096;

hb::HbGraph::Options
graphOptions()
{
    hb::HbGraph::Options options;
    options.engine = hb::HbGraph::Engine::Auto;
    return options;
}

/**
 * The closure-overlap pre-pass, wired as runPipeline wires it: the
 * pool's spare workers memoize the pairs the pre-closure snapshot
 * already orders, and detection then skips them.
 */
struct Overlap
{
    std::size_t tasks = 0;
    std::once_flag planOnce;
    bool planBuilt = false;
    detect::AccessPlan plan;
    std::vector<std::vector<std::uint64_t>> ordered;
    std::vector<std::unordered_set<std::uint32_t>> epochs;

    /** Install the hook on @p options, whose pool must be set.  The
     *  pre-pass runs inside the HbGraph constructor, so its time is
     *  part of hb.build. */
    void
    install(hb::HbGraph::Options &options)
    {
        tasks = static_cast<std::size_t>(options.pool->jobs() - 1);
        ordered.resize(tasks);
        epochs.resize(tasks);
        options.overlap.tasks = tasks;
        options.overlap.work = [this](const hb::HbGraph &g,
                                      const ChainFrontierIndex &snapshot,
                                      std::size_t task) {
            std::call_once(planOnce, [&] {
                plan = detect::AccessPlan::build(g);
                planBuilt = true;
            });
            detect::StreamingDetector::prepassShard(
                plan, snapshot, task, tasks, kOverlapEpochWindow,
                ordered[task], epochs[task]);
        };
    }
};

/** Load one trace from disk and analyze it on @p pool, each stage
 *  under a span. */
Analysis
analyze(const Input &in, TaskPool &pool, SpanRecorder *recorder)
{
    Analysis out;
    std::optional<trace::TraceStore> store;
    {
        ScopedSpan span(recorder, "trace.load", in.name);
        store.emplace();
        for (const trace::QueueMeta &meta : in.queues)
            store->noteQueue(meta);
        for (const trace::ThreadMeta &meta : in.threads)
            store->noteThread(meta);
        out.records = store->loadFromDirectory(in.dir);
        out.bytes = store->serializedBytes();
    }
    hb::HbGraph::Options options = graphOptions();
    options.pool = &pool;
    Overlap overlap;
    overlap.install(options);
    std::optional<hb::HbGraph> graph;
    {
        ScopedSpan span(recorder, "hb.build", in.name);
        graph.emplace(*store, options);
    }
    out.vertices = graph->size();
    out.reachBytes = graph->reachBytes();
    {
        ScopedSpan span(recorder, "detect.detect", in.name);
        detect::OrderedMemo memo;
        for (const std::vector<std::uint64_t> &shard : overlap.ordered)
            memo.addPacked(shard);
        out.candidates = detect::RaceDetector().detect(
            *graph, &pool, overlap.planBuilt ? &overlap.plan : nullptr,
            overlap.planBuilt ? &memo : nullptr);
    }
    {
        ScopedSpan span(recorder, "prune.prune", in.name);
        out.kept = prune::StaticPruner(in.model).prune(out.candidates);
    }
    {
        ScopedSpan span(recorder, "hb.release", in.name);
        graph.reset();
    }
    ScopedSpan span(recorder, "trace.release", in.name);
    store.reset();
    return out;
}

class OfflineAnalyze : public Workload
{
  public:
    explicit OfflineAnalyze(const Options &options)
        : options_(options), pool_(kJobs)
    {
    }

    void
    setup() override
    {
        struct Spec
        {
            const char *name;
            std::function<void(sim::Simulation &)> install;
            std::function<model::ProgramModel()> model;
        };
        const bool tiny = options_.tiny;
        std::vector<Spec> specs = {
            {"MR-3274x64",
             [tiny](sim::Simulation &sim) {
                 apps::mr::install(sim, apps::mr::Workload::Hang3274,
                                   tiny ? 4 : 64);
             },
             apps::mr::buildModel},
            {"MR-3274x256",
             [tiny](sim::Simulation &sim) {
                 apps::mr::install(sim, apps::mr::Workload::Hang3274,
                                   tiny ? 8 : 256);
             },
             apps::mr::buildModel},
            {"HB-4539x32",
             [tiny](sim::Simulation &sim) {
                 apps::hb::install(sim,
                                   apps::hb::Workload::SplitAlter4539,
                                   tiny ? 2 : 32);
             },
             apps::hb::buildModel},
        };
        inputs_.clear();
        for (std::size_t i : seededOrder(specs.size(), options_.seed)) {
            const Spec &spec = specs[i];
            sim::SimConfig config;
            config.maxSteps = 100'000'000;
            sim::Simulation sim(config);
            spec.install(sim);
            sim.run();
            const trace::TraceStore &store = sim.tracer().store();
            Input in;
            in.name = spec.name;
            in.dir = options_.workDir + "/offline-analyze/" + spec.name;
            in.model = spec.model();
            in.records = store.totalRecords();
            std::filesystem::remove_all(in.dir);
            store.writeToDirectory(in.dir);
            for (const auto &[id, meta] : store.queues())
                in.queues.push_back(meta);
            for (const auto &[tid, meta] : store.threads())
                in.threads.push_back(meta);
            hb::HbGraph graph(store, graphOptions());
            in.vertices = graph.size();
            std::vector<detect::Candidate> candidates =
                detect::RaceDetector().detect(graph);
            in.candidates = candidateKeys(candidates);
            in.kept = candidateKeys(
                prune::StaticPruner(in.model).prune(candidates));
            inputs_.push_back(std::move(in));
        }
    }

    Timed
    measure(double seconds, Checks &checks) override
    {
        Timed timed;
        double start = nowSeconds();
        double op = 0;
        do {
            double t0 = nowSeconds();
            std::vector<Analysis> set = analyzeSet(nullptr);
            op = nowSeconds() - t0;
            timed.opSeconds.push_back(op);
            check(set, checks);
        } while (nowSeconds() - start + op <= seconds);
        return timed;
    }

    Traced
    traced(SpanRecorder &recorder, Checks &checks) override
    {
        Traced traced;
        double t0 = nowSeconds();
        std::vector<Analysis> solo = analyzeSet(nullptr);
        traced.untracedSeconds = nowSeconds() - t0;
        check(solo, checks);
        std::vector<Analysis> set;
        {
            ScopedSpan op(&recorder, "op.offline-analyze");
            traced.opSpan = op.id();
            set = analyzeSet(&recorder);
        }
        check(set, checks);
        double records = 0, bytes = 0, vertices = 0, reach = 0,
               candidates = 0, kept = 0;
        for (const Analysis &a : set) {
            records += static_cast<double>(a.records);
            bytes += static_cast<double>(a.bytes);
            vertices += static_cast<double>(a.vertices);
            reach += static_cast<double>(a.reachBytes);
            candidates += static_cast<double>(a.candidates.size());
            kept += static_cast<double>(a.kept.size());
        }
        traced.layer = {
            {"trace.records", records},
            {"trace.bytes", bytes},
            {"hb.vertices", vertices},
            {"hb.reach_bytes", reach},
            {"detect.candidates", candidates},
            {"prune.kept_ratio", candidates > 0 ? kept / candidates : 0},
        };
        return traced;
    }

  private:
    std::vector<Analysis>
    analyzeSet(SpanRecorder *recorder)
    {
        std::vector<Analysis> set;
        for (const Input &in : inputs_)
            set.push_back(analyze(in, pool_, recorder));
        return set;
    }

    void
    check(const std::vector<Analysis> &set, Checks &checks) const
    {
        for (std::size_t i = 0; i < inputs_.size(); ++i) {
            const Input &in = inputs_[i];
            const Analysis &a = set[i];
            std::string what;
            if (a.records != in.records)
                what += " records";
            if (a.vertices != in.vertices)
                what += " hb-vertices";
            if (candidateKeys(a.candidates) != in.candidates)
                what += " candidates";
            if (candidateKeys(a.kept) != in.kept)
                what += " pruned";
            checks.item(what.empty(), in.name + ":" + what);
        }
    }

    Options options_;
    TaskPool pool_;
    std::vector<Input> inputs_;
};

} // namespace

std::unique_ptr<Workload>
makeOfflineAnalyze(const Options &options)
{
    return std::make_unique<OfflineAnalyze>(options);
}

} // namespace perfbench
