/**
 * @file
 * The traced twin of dcatch::runPipeline at jobs = 1.
 *
 * runPipeline times its phases internally and exposes no hooks, so
 * the traced run makes the same calls into each module's public entry
 * point, in the same order, with a span around each call.  Its outputs
 * are checked against the untraced runPipeline outputs; the pipeline's
 * documented contract (byte-identical results for every job count)
 * is what makes the serial twin a faithful stand-in for jobs = 2 too.
 */

#ifndef PERFBENCH_TRACED_PIPELINE_HH
#define PERFBENCH_TRACED_PIPELINE_HH

#include <cstdint>
#include <string>

#include "apps/benchmark.hh"
#include "dcatch/pipeline.hh"
#include "spans.hh"

namespace perfbench {

struct TracedPipelineOptions
{
    bool measureBase = true;
    bool runTrigger = false;
    std::string reproDir; ///< empty: no schedule recording or bundles
};

/** The twin's outputs plus the counts runPipeline does not expose. */
struct TracedPipelineResult
{
    dcatch::PipelineResult result;
    std::uint64_t baseSteps = 0;  ///< untraced base run
    std::size_t pruneIn = 0;      ///< candidates entering pruning
    std::size_t pruneKept = 0;    ///< candidates pruning kept
    std::size_t bundles = 0;      ///< repro bundles written
};

/** Run the pipeline's stages on @p bench under spans of @p recorder,
 *  nested in a "dcatch.pipeline" span. */
TracedPipelineResult tracedPipeline(const dcatch::apps::Benchmark &bench,
                                    const TracedPipelineOptions &options,
                                    SpanRecorder *recorder);

} // namespace perfbench

#endif // PERFBENCH_TRACED_PIPELINE_HH
