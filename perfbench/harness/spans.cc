#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1);
    return index;
}

/** Innermost open ScopedSpan of this thread (-1 when none). */
thread_local int tlsCurrent = -1;

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace

std::string
Span::layer() const
{
    return name.substr(0, name.find('.'));
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::int64_t
SpanRecorder::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

int
SpanRecorder::begin(std::string name, int parent, std::string detail)
{
    std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = std::move(name);
    span.detail = std::move(detail);
    span.startNs = now;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.op = parent < 0 ? span.id
                         : spans_[static_cast<std::size_t>(parent)].op;
    span.thread = threadIndex();
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanRecorder::end(int id)
{
    std::int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = now;
}

int
SpanRecorder::add(std::string name, int parent, std::int64_t startNs,
                  std::int64_t endNs, int thread)
{
    int id = begin(std::move(name), parent);
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[static_cast<std::size_t>(id)];
    span.startNs = startNs;
    span.endNs = endNs;
    span.thread = thread;
    return id;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, std::string name,
                       std::string detail)
    : ScopedSpan(recorder, std::move(name), tlsCurrent, std::move(detail))
{
}

ScopedSpan::ScopedSpan(SpanRecorder *recorder, std::string name,
                       int parent, std::string detail)
    : recorder_(recorder)
{
    if (!recorder_)
        return;
    id_ = recorder_->begin(std::move(name), parent, std::move(detail));
    outer_ = tlsCurrent;
    tlsCurrent = id_;
}

ScopedSpan::~ScopedSpan()
{
    if (!recorder_)
        return;
    recorder_->end(id_);
    tlsCurrent = outer_;
}

std::int64_t
unionLengthNs(std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_start = 0, cur_end = 0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (open && start <= cur_end) {
            cur_end = std::max(cur_end, end);
            continue;
        }
        if (open)
            total += cur_end - cur_start;
        cur_start = start;
        cur_end = end;
        open = true;
    }
    if (open)
        total += cur_end - cur_start;
    return total;
}

namespace {

/** Children intervals of every span, clipped to the parent. */
std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
childIntervals(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> out(
        spans.size());
    for (const Span &span : spans) {
        if (span.parent < 0)
            continue;
        const Span &parent = spans[static_cast<std::size_t>(span.parent)];
        out[static_cast<std::size_t>(span.parent)].emplace_back(
            std::max(span.startNs, parent.startNs),
            std::min(span.endNs, parent.endNs));
    }
    return out;
}

} // namespace

std::vector<std::int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    auto children = childIntervals(spans);
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationNs() -
                  unionLengthNs(std::move(children[i]));
    return self;
}

double
coverage(const std::vector<Span> &spans, int root,
         const std::set<std::string> &wrappers)
{
    const Span &span = spans.at(static_cast<std::size_t>(root));
    if (span.durationNs() <= 0)
        return 1.0;
    std::vector<std::int64_t> self = selfTimesNs(spans);
    std::int64_t uncovered = self[static_cast<std::size_t>(root)];
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].op == root && static_cast<int>(i) != root &&
            wrappers.count(spans[i].name))
            uncovered += self[i];
    return 1.0 - static_cast<double>(uncovered) /
                     static_cast<double>(span.durationNs());
}

std::map<std::string, LayerRow>
layerTable(const std::vector<Span> &spans)
{
    std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, LayerRow> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerRow &row = rows[spans[i].layer()];
        ++row.calls;
        row.totalNs += spans[i].durationNs();
        row.selfNs += self[i];
    }
    return rows;
}

double
selfMs(const std::vector<Span> &spans,
       const std::vector<std::int64_t> &self, const std::string &name)
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].name == name)
            total += self[i];
    return static_cast<double>(total) / 1e6;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "[\n";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                      "\"dur\":%.3f,",
                      span.thread, static_cast<double>(span.startNs) / 1e3,
                      static_cast<double>(span.durationNs()) / 1e3);
        out += buf;
        out += "\"name\":" + jsonString(span.name) +
               ",\"cat\":" + jsonString(span.layer());
        std::snprintf(buf, sizeof buf,
                      ",\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,"
                      "\"start_ns\":%lld,\"end_ns\":%lld,\"detail\":",
                      span.id, span.parent, span.op,
                      static_cast<long long>(span.startNs),
                      static_cast<long long>(span.endNs));
        out += buf;
        out += jsonString(span.detail) + "}}";
        out += i + 1 < spans.size() ? ",\n" : "\n";
    }
    return out + "]\n";
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

std::size_t
nearestRank(std::size_t n, double p)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    return values[nearestRank(values.size(), p) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - nearestRank(n, p);
}

bool
reportable(std::size_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

} // namespace perfbench
