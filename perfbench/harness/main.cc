/**
 * @file
 * dcatch_perfbench: the benchmark program (README.md).
 *
 *   dcatch_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--out-dir DIR] [--tiny]
 *
 * Sets up the workload three times (setup_s is the median), runs it
 * untraced for S seconds, and with --trace 1 then runs one operation
 * under spans.  The last line of standard output is one JSON object:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1.  The traced run also writes its spans as Chrome
 * trace-event JSON to DIR/<workload>-seed<N>.trace.json and prints the
 * per-layer self-time table.
 */

#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

void
Checks::item(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1],
                  order[std::uniform_int_distribution<std::size_t>(
                      0, i - 1)(rng)]);
    return order;
}

Timed
sweepParts(const std::vector<std::string> &parts, double seconds,
           const std::function<void(std::size_t)> &run)
{
    Timed timed;
    double start = nowSeconds();
    double sweep = 0;
    for (std::size_t i = 0;; ++i) {
        std::size_t part = i % parts.size();
        std::vector<double> &samples = timed.partSeconds[parts[part]];
        if (i >= parts.size() &&
            nowSeconds() - start + samples.back() > seconds)
            break;
        double t0 = nowSeconds();
        run(part);
        samples.push_back(nowSeconds() - t0);
        sweep += samples.back();
        if (part + 1 == parts.size()) {
            timed.opSeconds.push_back(sweep);
            sweep = 0;
        }
    }
    return timed;
}

double
sweepSeconds(const Timed &timed, double p)
{
    double sum = 0;
    for (const auto &[part, samples] : timed.partSeconds)
        sum += percentile(samples, p);
    return sum;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::vector<std::string>
candidateKeys(const std::vector<dcatch::detect::Candidate> &candidates)
{
    std::vector<std::string> keys;
    for (const dcatch::detect::Candidate &cand : candidates)
        keys.push_back(cand.var + "|" + cand.callstackKey());
    return keys;
}

namespace {

constexpr int kSetupReps = 3;

/**
 * op_s is this quantile of the run's operation times.  On a 4-vCPU
 * virtual machine shared with other tenants, identical CPU-bound work
 * ran up to 50% slower for seconds at a time, so a run's median landed
 * in a fast or a slow phase depending on the run (offline-analyze:
 * 24-33% spread between identical runs).  The lower decile — the time
 * an operation takes when the host lets it run — stayed within 8%.
 */
constexpr double kOpQuantile = 0.10;

/**
 * op_s: the kOpQuantile of the operation times, or, when an operation
 * is a sweep over parts, the sum of each part's kOpQuantile.  A sweep
 * of several seconds rarely runs whole in a fast phase of the host,
 * while each part does in some sweep.
 */
double
opSeconds(const Timed &timed)
{
    return timed.partSeconds.empty()
               ? percentile(timed.opSeconds, kOpQuantile)
               : sweepSeconds(timed, kOpQuantile);
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Per-layer metrics that are the self time of one span name. */
struct SpanMetric
{
    const char *metric;
    const char *span;
};
constexpr SpanMetric kSpanMetrics[] = {
    {"runtime.run_ms", "runtime.run"},
    {"trace.traced_run_ms", "trace.traced_run"},
    {"trace.load_ms", "trace.load"},
    {"model.build_ms", "model.build"},
    {"hb.build_ms", "hb.build"},
    {"hb.pull_ms", "hb.pull"},
    {"detect.ms", "detect.detect"},
    {"prune.ms", "prune.prune"},
    {"trigger.ms", "trigger.test_all"},
    {"replay.bundle_write_ms", "replay.bundle_write"},
    {"replay.verify_ms", "replay.verify"},
    {"explore.run_ms", "explore.run"},
    {"explore.shrink_ms", "explore.shrink"},
    {"explore.crossval_ms", "explore.crossval"},
    {"serve.session_ms", "serve.session"},
    {"serve.drain_ms", "serve.drain"},
};

/** Spans that only group entry-point calls: their self time counts
 *  against bench.span_coverage. */
const std::set<std::string> kWrapperSpans = {
    "dcatch.pipeline", "explore.campaign", "explore.fanout"};

/** Layers whose summed self time is reported as "<layer>.self_ms". */
constexpr const char *kLayers[] = {"dcatch", "runtime", "trace", "model",
                                   "hb",     "detect",  "prune", "trigger",
                                   "replay", "explore", "serve"};

/** Per-layer counts and ratios a workload reports (0 where the
 *  workload does not exercise the layer). */
struct CountMetric
{
    const char *name;
    const char *unit;
};
constexpr CountMetric kCountMetrics[] = {
    {"runtime.steps", "count"},
    {"trace.records", "count"},
    {"trace.bytes", "bytes"},
    {"hb.vertices", "count"},
    {"hb.reach_bytes", "bytes"},
    {"detect.candidates", "count"},
    {"prune.kept_ratio", "ratio"},
    {"trigger.order_runs", "count"},
    {"trigger.enforced_ratio", "ratio"},
    {"replay.bundles", "count"},
    {"explore.runs", "count"},
    {"explore.failures", "count"},
    {"explore.distinct_signatures", "count"},
    {"explore.shrink_replays", "count"},
    {"explore.pool_utilization", "ratio"},
    {"serve.deliver_us", "us"},
    {"serve.epochs", "count"},
    {"serve.evicted", "count"},
    {"serve.max_pending_bytes", "bytes"},
    {"serve.max_index_bytes", "bytes"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.report_p50_ms", "ms"},
    {"serve.report_p90_ms", "ms"},
    {"serve.report_samples", "count"},
};

/**
 * Start the peak-RSS window: hand freed heap back to the kernel, then
 * reset the process's high-water mark (VmHWM) to its current resident
 * set, so peak_rss_mb covers the timed phase and not the set-ups
 * (which run simulations the timed phase of offline-analyze and
 * serve-stream never does).
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    if (!clear)
        throw std::runtime_error(
            "cannot reset the peak resident set (/proc/self/clear_refs)");
}

/** VmHWM: peak resident set since resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
valueOr0(const std::map<std::string, double> &values, const char *name)
{
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
}

std::vector<Metric>
layerMetrics(const std::vector<Span> &spans, const Traced &traced,
             const Timed &timed, const std::string &workload)
{
    std::vector<std::int64_t> self = selfTimesNs(spans);
    std::vector<Metric> out;
    auto add = [&](std::string name, double value, std::string unit) {
        out.push_back({std::move(name), value, std::move(unit)});
    };
    std::map<std::string, double> values = traced.layer;
    for (const auto &[name, value] : timed.layer)
        values[name] = value;
    for (const SpanMetric &m : kSpanMetrics)
        values[m.metric] = selfMs(spans, self, m.span);

    const Span &op = spans.at(static_cast<std::size_t>(traced.opSpan));
    double op_ms = static_cast<double>(op.durationNs()) / 1e6;
    add("bench.traced_op_ms", op_ms, "ms");
    add("bench.trace_overhead_ratio",
        traced.untracedSeconds > 0 ? op_ms / (traced.untracedSeconds * 1e3)
                                   : 0,
        "ratio");
    double covered = coverage(spans, traced.opSpan, kWrapperSpans);
    add("bench.span_coverage", covered, "ratio");
    add("bench.op_samples", static_cast<double>(timed.opSeconds.size()),
        "count");
    for (const SpanMetric &m : kSpanMetrics)
        add(m.metric, values[m.metric], "ms");
    for (const CountMetric &m : kCountMetrics)
        add(m.name, valueOr0(values, m.name), m.unit);

    double run_ms = values["runtime.run_ms"];
    double steps = valueOr0(values, "runtime.steps");
    add("runtime.ns_per_step", steps > 0 ? run_ms * 1e6 / steps : 0, "ns");
    add("trace.overhead_ratio",
        run_ms > 0 ? values["trace.traced_run_ms"] / run_ms : 0, "ratio");
    double order_runs = valueOr0(values, "trigger.order_runs");
    add("trigger.ms_per_order_run",
        order_runs > 0 ? values["trigger.ms"] / order_runs : 0, "ms");

    std::map<std::string, LayerRow> table = layerTable(spans);
    for (const char *layer : kLayers) {
        auto it = table.find(layer);
        add(std::string(layer) + ".self_ms",
            it == table.end() ? 0
                              : static_cast<double>(it->second.selfNs) / 1e6,
            "ms");
    }

    std::printf("per-layer self time of one traced %s operation "
                "(%.1f ms wall, spans cover %.1f%%, tracing overhead "
                "%.3fx):\n",
                workload.c_str(), op_ms, 100 * covered,
                traced.untracedSeconds > 0
                    ? op_ms / (traced.untracedSeconds * 1e3)
                    : 0.0);
    std::printf("  %-10s %8s %12s %12s\n", "layer", "calls", "total ms",
                "self ms");
    for (const auto &[layer, row] : table)
        std::printf("  %-10s %8zu %12.3f %12.3f\n", layer.c_str(), row.calls,
                    static_cast<double>(row.totalNs) / 1e6,
                    static_cast<double>(row.selfNs) / 1e6);
    return out;
}

std::string
resultJson(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += checks.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(checks.attempted);
    out += ", \"failed\": " + std::to_string(checks.failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::snprintf(buf, sizeof buf, "%.17g", value);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}}";
}

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "%s\nusage: dcatch_perfbench --workload "
                 "batch-trigger|explore-campaign|offline-analyze|"
                 "serve-stream --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR] [--tiny]\n",
                 message);
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    Options options;
    double seconds = -1;
    int trace = -1;
    std::string out_dir = ".bench_build/perfbench-out";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--tiny") {
            options.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        try {
            if (arg == "--workload")
                workload = value;
            else if (arg == "--seed")
                options.seed = std::stoull(value);
            else if (arg == "--seconds")
                seconds = std::stod(value);
            else if (arg == "--trace")
                trace = std::stoi(value);
            else if (arg == "--out-dir")
                out_dir = value;
            else
                return usage(("unknown option " + arg).c_str());
        } catch (const std::exception &) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (seconds <= 0 || (trace != 0 && trace != 1))
        return usage("--seconds must be > 0 and --trace 0 or 1");

    std::unique_ptr<Workload> (*make)(const Options &) = nullptr;
    if (workload == "batch-trigger")
        make = makeBatchTrigger;
    else if (workload == "explore-campaign")
        make = makeExploreCampaign;
    else if (workload == "offline-analyze")
        make = makeOfflineAnalyze;
    else if (workload == "serve-stream")
        make = makeServeStream;
    else
        return usage(("unknown workload '" + workload + "'").c_str());

    options.workDir = out_dir + "/work-" + workload + "-" +
                      std::to_string(getpid());
    int status = 0;
    try {
        std::filesystem::create_directories(options.workDir);
        std::unique_ptr<Workload> bench = make(options);
        Checks checks;
        std::vector<double> setups;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            double t0 = nowSeconds();
            bench->setup();
            setups.push_back(nowSeconds() - t0);
        }
        resetPeakRss();
        Timed timed = bench->measure(seconds, checks);
        std::fprintf(stderr,
                     "op seconds: n=%zu p10 %.6g p25 %.6g p50 %.6g "
                     "p75 %.6g p90 %.6g\n",
                     timed.opSeconds.size(),
                     percentile(timed.opSeconds, 0.10),
                     percentile(timed.opSeconds, 0.25),
                     percentile(timed.opSeconds, 0.50),
                     percentile(timed.opSeconds, 0.75),
                     percentile(timed.opSeconds, 0.90));
        for (const auto &[part, samples] : timed.partSeconds)
            std::fprintf(stderr, "  %-10s n=%zu min %.6g p50 %.6g max %.6g\n",
                         part.c_str(), samples.size(),
                         percentile(samples, 0), median(samples),
                         percentile(samples, 1));

        std::vector<Metric> metrics;
        if (trace == 0) {
            double op_s = opSeconds(timed);
            metrics = {
                {"setup_s", median(setups), "s"},
                {"op_s", op_s, "s"},
                {"ops_per_s",
                 timed.opsPerSecond > 0 ? timed.opsPerSecond : 1 / op_s,
                 "1/s"},
                {"peak_rss_mb", peakRssMb(), "MB"},
            };
        } else {
            SpanRecorder recorder;
            Traced traced = bench->traced(recorder, checks);
            std::vector<Span> spans = recorder.spans();
            std::string path = out_dir + "/" + workload + "-seed" +
                               std::to_string(options.seed) +
                               ".trace.json";
            std::ofstream(path) << chromeTraceJson(spans);
            metrics = layerMetrics(spans, traced, timed, workload);
            std::printf("spans written to %s\n", path.c_str());
        }
        std::printf("%s\n", resultJson(checks, metrics).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dcatch_perfbench: %s\n", e.what());
        status = 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(options.workDir, ignored);
    return status;
}
