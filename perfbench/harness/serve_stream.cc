/**
 * @file
 * serve-stream: an in-process serve::ServeCore with three shard
 * workers, fed pre-encoded frames of the MR-3274 x192 trace.  The
 * single client thread keeps the load within four threads.
 *
 *  - Open-loop phase: 110 sessions arrive on a seeded schedule at a
 *    fixed rate below saturation; each whole session is delivered when
 *    due, and its latency runs from when its End frame was due to when
 *    its Report arrived.
 *  - Saturating phase, for the rest of --seconds (at least 2 s): a
 *    closed loop keeping two sessions in flight on every shard; the
 *    shards over a shard's service time is the throughput.
 *
 * Every Report must be byte-identical to canonicalReport() of the
 * batch answer, and the daemon's counters must add up to the
 * per-session counts captured at set-up.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "apps/mapreduce/mini_mr.hh"
#include "detect/race_detect.hh"
#include "hb/graph.hh"
#include "runtime/sim.hh"
#include "serve/service.hh"
#include "serve/session.hh"
#include "serve/wire.hh"
#include "workloads.hh"

namespace perfbench {

using namespace dcatch;
using namespace dcatch::serve;

namespace {

constexpr std::size_t kShards = 3;
/** Offered open-loop rate: about a third of each shard's capacity, so
 *  the latency is mostly service time, not queueing. */
constexpr double kOpenRate = 16.0;
/** Open-loop sessions: at least ten beyond the p90 (percentile rule). */
constexpr std::size_t kOpenSessions = 110;
/** Shortest saturating phase, in seconds. */
constexpr double kMinSaturating = 2.0;
constexpr std::size_t kRecordsPerFrame = 512;
constexpr std::size_t kChunk = 64 * 1024; ///< bytes per deliver() call

/** Frames shared by every session: metadata, records, End.  The Hello
 *  naming the run is prepended per session. */
std::string
streamBytes(const trace::TraceStore &store)
{
    std::string bytes;
    for (const auto &[id, queue] : store.queues())
        bytes += encodeFrame(FrameType::QueueMeta,
                             std::to_string(queue.node) + " " +
                                 (queue.singleConsumer ? "1" : "0") + " " +
                                 id);
    for (const auto &[tid, thread] : store.threads())
        bytes += encodeFrame(FrameType::ThreadMeta,
                             std::to_string(thread.thread) + " " +
                                 std::to_string(thread.node) + " " +
                                 (thread.handlerThread ? "1" : "0") + " " +
                                 thread.name);
    std::string lines;
    std::size_t in_frame = 0;
    for (const trace::Record &rec : store.mergedRecords()) {
        rec.appendLine(store.symbols(), lines);
        lines += '\n';
        if (++in_frame == kRecordsPerFrame) {
            bytes += encodeFrame(FrameType::Records, lines);
            lines.clear();
            in_frame = 0;
        }
    }
    if (!lines.empty())
        bytes += encodeFrame(FrameType::Records, lines);
    return bytes + encodeFrame(FrameType::End, "");
}

ServeOptions
serveOptions()
{
    ServeOptions options;
    options.jobs = static_cast<int>(kShards);
    return options;
}

/** A session waiting for its Report. */
struct Pending
{
    ConnId conn = 0;
    std::size_t index = 0; ///< into the phase's run ids
    double due = 0;        ///< when its End frame was due
    std::size_t shard = 0; ///< the shard ServeCore routes it to
};

class ServeStream : public Workload
{
  public:
    explicit ServeStream(const Options &options) : options_(options) {}

    void
    setup() override
    {
        sim::SimConfig config;
        config.maxSteps = 100'000'000;
        sim::Simulation sim(config);
        apps::mr::install(sim, apps::mr::Workload::Hang3274,
                          options_.tiny ? 4 : 192);
        sim.run();
        const trace::TraceStore &store = sim.tracer().store();
        records_ = store.totalRecords();
        hb::HbGraph graph(store, hb::HbGraph::Options());
        candidates_ = detect::RaceDetector().detect(graph);
        stream_ = streamBytes(store);
        nextId_ = 0;

        // Reference counts: one session driven directly.
        std::string id = runId(0);
        std::string report;
        Session session(id, sessionOptions());
        for (const Frame &frame : decode(id))
            session.handle(1, frame,
                           [&](ConnId, FrameType type,
                               const std::string &payload) {
                               if (type == FrameType::Report)
                                   report = payload;
                           });
        if (report != canonicalReport(id, records_, candidates_))
            throw std::runtime_error(
                "serve-stream: set-up session report differs from batch");
        reference_ = session.stats();
    }

    Timed
    measure(double seconds, Checks &checks) override
    {
        Timed timed;
        // Open loop: session i is due at (i + 0.5 + u) / rate, u seeded
        // uniform in [-0.4, 0.4): unlike a Poisson schedule's, its
        // burstiness barely varies with the seed.
        std::size_t sessions = options_.tiny ? 12 : kOpenSessions;
        std::mt19937_64 rng(options_.seed);
        std::uniform_real_distribution<double> jitter(-0.4, 0.4);
        std::vector<double> due;
        for (std::size_t i = 0; i < sessions; ++i)
            due.push_back((static_cast<double>(i) + 0.5 + jitter(rng)) /
                          kOpenRate);
        double phase_start = nowSeconds();
        std::vector<double> lag;
        {
            ServeCore core(serveOptions());
            Phase phase(*this, core);
            double start = nowSeconds();
            std::size_t next = 0;
            while (next < sessions || !phase.pending.empty()) {
                double now = nowSeconds();
                if (next < sessions && now >= start + due[next]) {
                    lag.push_back(now - (start + due[next]));
                    phase.start(start + due[next], nextId_++);
                    ++next;
                    continue;
                }
                if (phase.pending.empty()) {
                    std::this_thread::sleep_for(std::chrono::duration<double>(
                        start + due[next] - now));
                    continue;
                }
                phase.poll(next < sessions ? start + due[next] - now : 1e-3);
            }
            phase.finish(checks);
            timed.opSeconds = phase.latencies;
        }
        std::vector<double> ms;
        for (double s : timed.opSeconds)
            ms.push_back(s * 1e3);
        std::vector<double> lag_ms;
        for (double s : lag)
            lag_ms.push_back(s * 1e3);
        timed.layer = {
            {"serve.report_p50_ms", percentile(ms, 0.5)},
            {"serve.report_p90_ms", percentile(ms, 0.9)},
            {"serve.report_samples", static_cast<double>(ms.size())},
            {"serve.gen_lag_ms", percentile(lag_ms, 0.9)},
        };
        if (!options_.tiny)
            checks.item(reportable(ms.size(), 0.9),
                        "serve-stream: too few sessions for a p90");

        // Saturating closed loop: every shard always has two sessions
        // in flight, so the gaps between one shard's consecutive
        // Reports are its service times.
        {
            ServeCore core(serveOptions());
            Phase phase(*this, core);
            double stop =
                nowSeconds() + std::max(options_.tiny ? 0.1 : kMinSaturating,
                                        seconds - (nowSeconds() - phase_start));
            std::size_t issued[kShards] = {};
            for (;;) {
                bool running = nowSeconds() < stop;
                for (std::size_t k = 0; running && k < kShards; ++k)
                    while (phase.inFlight(k) < 2)
                        phase.start(nowSeconds(), k + kShards * issued[k]++);
                if (!running && phase.pending.empty())
                    break;
                phase.poll(1e-3);
            }
            phase.finish(checks);
            // Throughput at the lower decile of the service times, as
            // op_s takes the lower decile of operation times.
            std::vector<double> gaps;
            for (const std::vector<double> &done : phase.doneByShard)
                for (std::size_t i = 1; i < done.size(); ++i)
                    gaps.push_back(done[i] - done[i - 1]);
            timed.opsPerSecond = kShards / percentile(gaps, 0.10);
        }
        return timed;
    }

    Traced
    traced(SpanRecorder &recorder, Checks &checks) override
    {
        Traced traced;
        double t0 = nowSeconds();
        sessionOp(nullptr, checks, traced);
        traced.untracedSeconds = nowSeconds() - t0;
        {
            ScopedSpan op(&recorder, "op.serve-stream");
            traced.opSpan = op.id();
            sessionOp(&recorder, checks, traced);
        }
        std::vector<double> deliver_us;
        for (const Span &span : recorder.spans())
            if (span.name == "serve.deliver")
                deliver_us.push_back(
                    static_cast<double>(span.durationNs()) / 1e3);
        traced.layer["serve.deliver_us"] = percentile(deliver_us, 0.5);
        traced.layer["trace.records"] = static_cast<double>(records_);
        traced.layer["trace.bytes"] = static_cast<double>(stream_.size());
        traced.layer["detect.candidates"] =
            static_cast<double>(candidates_.size());
        return traced;
    }

  private:
    /** Sessions of one phase on one ServeCore: start, poll, check. */
    struct Phase
    {
        Phase(ServeStream &owner, ServeCore &core)
            : owner(owner), core(core)
        {
        }

        /** Deliver run number @p n, due at @p due. */
        void
        start(double due, std::size_t n)
        {
            Pending p{core.connect(), ids.size(), due, n % kShards};
            ids.push_back(owner.runId(n));
            owner.deliverSession(core, p.conn, ids.back(), nullptr);
            pending.push_back(p);
        }

        std::size_t
        inFlight(std::size_t shard) const
        {
            return static_cast<std::size_t>(std::count_if(
                pending.begin(), pending.end(),
                [shard](const Pending &p) { return p.shard == shard; }));
        }

        /** Collect arrived Reports; when none has arrived, wait for
         *  the oldest session's (at most 1 ms, and no longer than
         *  @p wait seconds). */
        void
        poll(double wait)
        {
            bool any = false;
            for (auto it = pending.begin(); it != pending.end();) {
                if (take(core.poll(it->conn), *it)) {
                    it = pending.erase(it);
                    any = true;
                } else {
                    ++it;
                }
            }
            if (any || pending.empty())
                return;
            // pollWait wakes the moment the oldest session's Report
            // lands; newer sessions are seen on the next pass.
            if (wait < 1e-3) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(std::min(wait, 1e-4)));
                return;
            }
            Pending &oldest = pending.front();
            if (take(core.pollWait(oldest.conn, std::chrono::milliseconds(1)),
                     oldest))
                pending.pop_front();
        }

        bool
        take(std::vector<Frame> frames, const Pending &p)
        {
            for (Frame &frame : frames) {
                if (frame.type != FrameType::Report &&
                    frame.type != FrameType::Error)
                    continue;
                double now = nowSeconds();
                doneByShard[p.shard].push_back(now);
                latencies.push_back(now - p.due);
                reports.emplace_back(p.index,
                                     frame.type == FrameType::Report
                                         ? std::move(frame.payload)
                                         : std::string("error"));
                core.disconnect(p.conn);
                return true;
            }
            return false;
        }

        /** Check every Report and the phase's counters. */
        void
        finish(Checks &checks)
        {
            core.drain();
            for (const auto &[index, payload] : reports)
                checks.item(payload == canonicalReport(ids[index],
                                                       owner.records_,
                                                       owner.candidates_),
                            "serve-stream: report of " + ids[index]);
            const SessionStats &ref = owner.reference_;
            std::size_t n = reports.size();
            ServeStats stats = core.stats();
            std::string what;
            if (stats.sessionsFinished != n)
                what += " sessions-finished";
            if (stats.sessionsQuarantined != 0)
                what += " quarantined";
            if (stats.recordsIngested != n * ref.records)
                what += " records";
            if (stats.epochsClosed != n * ref.epochsClosed)
                what += " epochs";
            if (stats.evictedAccesses != n * ref.evictedAccesses)
                what += " evicted";
            if (stats.onlineCandidates != n * ref.onlineCandidates)
                what += " online-candidates";
            if (stats.maxPendingBytes != ref.maxPendingBytes)
                what += " max-pending-bytes";
            if (stats.maxOnlineIndexBytes != ref.maxOnlineIndexBytes)
                what += " max-index-bytes";
            checks.item(what.empty(), "serve-stream counters:" + what);
        }

        ServeStream &owner;
        ServeCore &core;
        std::vector<std::string> ids;
        std::deque<Pending> pending;
        std::vector<double> latencies;
        std::vector<std::pair<std::size_t, std::string>> reports;
        /** When each Report arrived, per shard. */
        std::vector<std::vector<double>> doneByShard =
            std::vector<std::vector<double>>(kShards);
    };

    SessionOptions
    sessionOptions() const
    {
        ServeOptions options = serveOptions();
        SessionOptions session;
        session.window = options.window;
        session.retainEpochs = options.retainEpochs;
        session.batch = options.batch;
        return session;
    }

    /**
     * Run id number @p n of this seed.  ServeCore routes a run to
     * shard std::hash(id) % jobs; ids are picked so consecutive
     * sessions land on consecutive shards and every shard gets the
     * same load whatever the seed.
     */
    std::string
    runId(std::size_t n) const
    {
        for (unsigned salt = 0;; ++salt) {
            std::string id = "s" + std::to_string(options_.seed) + "-" +
                             std::to_string(n) + "-" + std::to_string(salt);
            if (std::hash<std::string>{}(id) % kShards == n % kShards)
                return id;
        }
    }

    std::string
    hello(const std::string &id) const
    {
        return encodeFrame(FrameType::Hello, encodeHello({id, 1}));
    }

    std::vector<Frame>
    decode(const std::string &id) const
    {
        FrameReader reader;
        std::vector<Frame> frames;
        std::string first = hello(id);
        reader.feed(first.data(), first.size(), frames);
        reader.feed(stream_.data(), stream_.size(), frames);
        return frames;
    }

    void
    deliverSession(ServeCore &core, ConnId conn, const std::string &id,
                   SpanRecorder *recorder) const
    {
        std::string first = hello(id);
        {
            ScopedSpan span(recorder, "serve.deliver", "hello");
            core.deliver(conn, first.data(), first.size());
        }
        for (std::size_t i = 0; i < stream_.size(); i += kChunk) {
            ScopedSpan span(recorder, "serve.deliver");
            core.deliver(conn, stream_.data() + i,
                         std::min(kChunk, stream_.size() - i));
        }
    }

    /**
     * The traced operation: one session through ServeCore (deliver,
     * then drain), then one session driven through Session::handle
     * directly.
     */
    void
    sessionOp(SpanRecorder *recorder, Checks &checks, Traced &traced)
    {
        std::string id = runId(nextId_++);
        std::string report;
        {
            std::optional<ServeCore> core;
            {
                ScopedSpan span(recorder, "serve.start");
                core.emplace(serveOptions());
            }
            ConnId conn = core->connect();
            deliverSession(*core, conn, id, recorder);
            {
                ScopedSpan span(recorder, "serve.drain");
                core->drain();
            }
            for (Frame &frame : core->poll(conn))
                if (frame.type == FrameType::Report)
                    report = std::move(frame.payload);
            ScopedSpan span(recorder, "serve.stop");
            core.reset();
        }
        std::string expected = canonicalReport(id, records_, candidates_);
        checks.item(report == expected, "serve-stream: core report " + id);

        std::vector<Frame> frames;
        {
            ScopedSpan span(recorder, "serve.decode");
            frames = decode(id);
        }
        report.clear();
        SessionStats stats;
        {
            ScopedSpan span(recorder, "serve.session");
            Session session(id, sessionOptions());
            for (const Frame &frame : frames)
                session.handle(1, frame,
                               [&](ConnId, FrameType type,
                                   const std::string &payload) {
                                   if (type == FrameType::Report)
                                       report = payload;
                               });
            stats = session.stats();
        }
        std::string what;
        if (report != expected)
            what += " report";
        if (stats.epochsClosed != reference_.epochsClosed ||
            stats.evictedAccesses != reference_.evictedAccesses ||
            stats.onlineCandidates != reference_.onlineCandidates ||
            stats.records != reference_.records)
            what += " counters";
        checks.item(what.empty(), "serve-stream: session " + id + what);
        traced.layer["serve.epochs"] =
            static_cast<double>(stats.epochsClosed);
        traced.layer["serve.evicted"] =
            static_cast<double>(stats.evictedAccesses);
        traced.layer["serve.max_pending_bytes"] =
            static_cast<double>(stats.maxPendingBytes);
        traced.layer["serve.max_index_bytes"] =
            static_cast<double>(stats.maxOnlineIndexBytes);
    }

    Options options_;
    std::size_t records_ = 0;
    std::vector<detect::Candidate> candidates_;
    std::string stream_;
    SessionStats reference_;
    std::size_t nextId_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeStream(const Options &options)
{
    return std::make_unique<ServeStream>(options);
}

} // namespace perfbench
