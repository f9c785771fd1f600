/**
 * @file
 * Span recording for the benchmark's traced run, plus the statistics
 * the benchmark reports.
 *
 * A span is one call into a layer's public entry point, timed from
 * outside: name ("<layer>.<what>"), start, end, the span that caused
 * it, and the operation it belongs to.  Spans stay in memory and are
 * written out once, as Chrome trace-event JSON (opens in Perfetto),
 * when the run ends.
 *
 * A span's self time is its duration minus the part of its interval
 * covered by its child spans.  Children may run on several pool
 * workers at once and overlap each other, so the covered part is the
 * length of the union of the children's intervals, never their sum.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** One recorded span.  Times are nanoseconds since the recorder's
 *  epoch. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = -1; ///< -1 while still open
    int id = -1;
    int parent = -1; ///< -1 for an operation's root span
    int op = -1;     ///< id of the operation's root span
    int thread = 0;  ///< small per-thread index (Chrome "tid")
    std::string detail;

    std::int64_t durationNs() const { return endNs - startNs; }

    /** Text before the first '.': the layer the span times. */
    std::string layer() const;
};

/** Thread-safe, append-only span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span.  @p parent -1 opens an operation root. */
    int begin(std::string name, int parent, std::string detail = {});

    /** Close span @p id. */
    void end(int id);

    /** Add a finished span directly (tests). */
    int add(std::string name, int parent, std::int64_t startNs,
            std::int64_t endNs, int thread = 0);

    /** Copy of every span; call when no span is open. */
    std::vector<Span> spans() const;

  private:
    using Clock = std::chrono::steady_clock;
    std::int64_t nowNs() const;

    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; ///< guarded by mutex_; index == id
};

/**
 * RAII span.  With a null recorder it records nothing, so untraced
 * code paths can share the traced code.  Without an explicit parent
 * the span nests under the innermost open ScopedSpan of the calling
 * thread; work fanned out to pool workers passes its parent
 * explicitly.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *recorder, std::string name,
               std::string detail = {});
    ScopedSpan(SpanRecorder *recorder, std::string name, int parent,
               std::string detail = {});
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanRecorder *recorder_;
    int id_ = -1;
    int outer_ = -1; ///< the thread's innermost span before this one
};

/** Self time of every span, indexed like @p spans (ids == indices). */
std::vector<std::int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Length of the union of [start, end) intervals. */
std::int64_t unionLengthNs(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/**
 * Share of operation @p root's duration spent inside a module
 * entry-point span: 1 - (self time of the root + self time of every
 * span of the operation named in @p wrappers) / root duration.
 * Wrappers are spans that only group entry-point calls (a whole
 * pipeline, a campaign, a fan-out); their self time is time no
 * entry-point span accounts for.  Wrappers must nest on one thread,
 * so their self times never overlap.
 */
double coverage(const std::vector<Span> &spans, int root,
                const std::set<std::string> &wrappers = {});

/** Per-layer totals over a set of spans. */
struct LayerRow
{
    std::size_t calls = 0;
    std::int64_t totalNs = 0; ///< sum of span durations
    std::int64_t selfNs = 0;  ///< sum of span self times
};

/** Layer -> totals, over every span. */
std::map<std::string, LayerRow> layerTable(const std::vector<Span> &spans);

/** Sum of the self times of the spans named @p name, in ms. */
double selfMs(const std::vector<Span> &spans,
              const std::vector<std::int64_t> &self,
              const std::string &name);

/** Chrome trace-event JSON ("X" events; ts/dur in microseconds). */
std::string chromeTraceJson(const std::vector<Span> &spans);

/// @{ @name Statistics
/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/**
 * Nearest-rank percentile: the value at rank ceil(p * n) of the
 * sorted samples, 0 < p <= 1; 0 when empty.
 */
double percentile(std::vector<double> values, double p);

/** Samples strictly above the nearest-rank percentile @p p of @p n
 *  samples. */
std::size_t samplesBeyond(std::size_t n, double p);

/**
 * The percentile rule: a percentile is reported only when at least
 * ten samples lie beyond it (p50 needs 20 samples, p90 needs 100).
 */
bool reportable(std::size_t n, double p);
/// @}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
