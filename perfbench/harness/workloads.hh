/**
 * @file
 * The benchmark's four workloads behind one interface (README.md says
 * why each exists).  main.cc drives every workload the same way:
 * set-up several times, a timed untraced phase, then (with --trace 1)
 * one traced operation whose spans give the per-layer numbers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "detect/report.hh"
#include "spans.hh"

namespace perfbench {

struct Options
{
    std::uint64_t seed = 1;
    bool tiny = false;     ///< smoke-test sizes
    std::string workDir;   ///< scratch directory for files the run writes
};

/** Checked outcomes: items attempted and items whose output failed a
 *  check (wrong answer or a simulated count that drifted). */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    /** Count one item; on failure print @p what to stderr. */
    void item(bool ok, const std::string &what);
};

/** What the untraced timed phase measured. */
struct Timed
{
    /** Seconds a user waited for each operation's result. */
    std::vector<double> opSeconds;
    /** When an operation is a sweep over independent parts (one call
     *  per benchmark), each part's seconds in every sweep, by part;
     *  opSeconds then holds the whole sweeps only. */
    std::map<std::string, std::vector<double>> partSeconds;
    /** Operations per second in the throughput phase; 0 when a single
     *  closed-loop client is the throughput phase, whose throughput is
     *  then 1 / op_s. */
    double opsPerSecond = 0;
    /** Per-layer metrics the timed phase measures (serve latency). */
    std::map<std::string, double> layer;
};

/** What the traced operation measured besides its spans. */
struct Traced
{
    int opSpan = -1; ///< the operation's root span
    /** The same operation untraced, for the tracing overhead. */
    double untracedSeconds = 0;
    /** Per-layer counts and ratios (keys are metric names). */
    std::map<std::string, double> layer;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Make the inputs and capture the reference outputs; repeatable,
     *  each call starts over. */
    virtual void setup() = 0;

    /** Run operations untraced for about @p seconds: at least one,
     *  and no further one once the last op's duration predicts it
     *  would end past @p seconds. */
    virtual Timed measure(double seconds, Checks &checks) = 0;

    /** Run one operation under @p recorder's spans. */
    virtual Traced traced(SpanRecorder &recorder, Checks &checks) = 0;
};

std::unique_ptr<Workload> makeBatchTrigger(const Options &options);
std::unique_ptr<Workload> makeExploreCampaign(const Options &options);
std::unique_ptr<Workload> makeOfflineAnalyze(const Options &options);
std::unique_ptr<Workload> makeServeStream(const Options &options);

/**
 * The timed phase of a workload whose operation is a sweep over
 * @p parts: calls @p run(i) for each part i in turn, sweep after
 * sweep, for about @p seconds.  The first sweep always runs whole;
 * after it, no part starts whose previous time says it would end past
 * @p seconds, so the phase may stop mid-sweep and no time is left idle
 * waiting for a whole sweep to fit.  A part's time includes the check
 * @p run makes of its output, which is tiny next to the call.
 */
Timed sweepParts(const std::vector<std::string> &parts, double seconds,
                 const std::function<void(std::size_t)> &run);

/** Seconds of one sweep: the sum over parts of each part's quantile
 *  @p p of its times. */
double sweepSeconds(const Timed &timed, double p);

/** Deterministic permutation of 0..n-1 from @p seed. */
std::vector<std::size_t> seededOrder(std::size_t n, std::uint64_t seed);

/** Seconds since an arbitrary steady epoch. */
double nowSeconds();

/** One "var|callstacks" key per candidate, in order: what a check
 *  compares candidate lists by. */
std::vector<std::string>
candidateKeys(const std::vector<dcatch::detect::Candidate> &candidates);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
