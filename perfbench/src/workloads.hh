/**
 * @file
 * The benchmark's three workloads. Each episode builds its inputs
 * from the seed, sets the application and the in-situ region up,
 * drives the simulation loop itself through the library's public
 * calls (timing each one from outside), finishes the run, and then
 * verifies the outputs and replays the analysis and store layers.
 *
 *  - clover_insitu: clover2d 64^2 on a 4-thread pool, four analyses
 *    in an async region with relaxed stop, a live feature store with
 *    async flush, a TailCursor polled by the bench thread, and a
 *    scan plus queries of the finished store.
 *  - blast_ranks: the paper's Case 1, blast 48^3 on 2 thread-emulated
 *    ranks over a 2-thread pool, one stopping break-point analysis in
 *    the default sync region, per-rank stores merged on rank 0; the
 *    run continues past the stop decision.
 *  - wd_dtd: the paper's Case 2, an ensemble of wdmerger runs at
 *    resolution 6 with flat-in-log separations, four delay-time
 *    analyses per run in the default sync region, no store.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "blastapp/domain.hh"
#include "core/analysis.hh"
#include "wdmerger/runner.hh"

#include "checks.hh"
#include "recorder.hh"

namespace perfbench
{

enum class Workload
{
    CloverInsitu,
    BlastRanks,
    WdDtd,
};

/** @return false on an unknown name. */
bool parseWorkload(const std::string &name, Workload &out);

const char *workloadName(Workload w);

/** Seed-derived inputs of clover_insitu. */
struct CloverInputs
{
    int size = 64;
    double energy = 2.0;
    /** Iterations run (below the natural end of the 64^2 blast). */
    long iterations = 1500;
    /** Break-point thresholds, % of the blast's initial velocity. */
    double thresholdPct[2] = {0.0, 0.0};
    /** The four analyses (providers unset). */
    std::vector<tdfe::AnalysisConfig> analyses;
};

CloverInputs cloverInputs(std::uint64_t seed);

/** Seed-derived inputs of blast_ranks. */
struct BlastInputs
{
    tdfe::blast::BlastConfig config;
    int ranks = 2;
    int threads = 2;
    /** Break-point threshold, % of the blast's initial velocity. */
    double thresholdPct = 0.0;
    /** The stopping break-point analysis (provider unset). */
    tdfe::AnalysisConfig analysis;
    long syncInterval = 10;
};

BlastInputs blastInputs(std::uint64_t seed);

/** Seed-derived inputs of wd_dtd. */
struct WdInputs
{
    /** One config per ensemble member. */
    std::vector<tdfe::wd::WdMergerConfig> runs;
    /** Harness options the analyses are built from (the runner's
     *  defaults plus the ensemble's training fraction). */
    tdfe::wd::WdRunOptions options;
};

WdInputs wdInputs(std::uint64_t seed);

/** One extracted feature and everything that pins it down. */
struct FeatureOut
{
    std::string name;
    /** Extracted value (break-point radius, delay time, peak). */
    double value = 0.0;
    /** Same-run ground truth (meaningful when scored). */
    double truth = 0.0;
    bool scored = false;
    /** Break-point threshold the value was extracted at. */
    double threshold = 0.0;
    /** Accepted distance from the truth: relative (%) or absolute. */
    double tolPct = 0.0;
    double slack = 0.0;
    long convergedIteration = -1;
    std::size_t rounds = 0;
};

/** Everything one episode measured. */
struct Episode
{
    /** End-to-end inputs. @{ */
    double setupS = 0.0;
    double wallS = 0.0;
    double featureS = 0.0;
    /** Iterations up to and including the one that delivered the
     *  feature, and iterations run (summed over ensemble members). */
    long featureIters = 0;
    long iterations = 0;
    /** begin + end + shouldStop per iteration, pooled over ranks. */
    std::vector<double> exposedUs;
    /** Exposed total (per-iteration calls plus the final drain). */
    double exposedSumUs = 0.0;
    /** Solver and probe-gather calls, all ranks. */
    double solverSumUs = 0.0;
    /** Sum of Region::overheadSeconds() over regions and ranks. */
    double regionOverheadUs = 0.0;
    double probeBytes = 0.0;
    double storeBytes = 0.0;
    std::vector<FeatureOut> features;
    /** @} */

    Tally tally;
    /** Digest of the store content (no wall time or stop flag);
     *  for wd_dtd, of the stores its members would write. */
    std::uint64_t storeContentHash = 0;

    /** Per-layer sample series and scalars, by metric stem. @{ */
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;
    /** @} */
    /** Span logs: one per rank plus the replay log. */
    std::vector<SpanLog> logs;
};

struct EpisodeConfig
{
    Workload workload = Workload::CloverInsitu;
    std::uint64_t seed = 1;
    bool traced = false;
    /** Directory for feature-store files (created if missing). */
    std::string scratchDir = ".";
};

Episode runEpisode(const EpisodeConfig &config);

/** Exact outputs every episode of one seed must reproduce:
 *  features, iteration counts, store content, layer counts. */
bool sameOutputs(const Episode &a, const Episode &b);

/** Feature error (%) against truth, as the benchmark scores it. */
double featureErrorPct(const FeatureOut &f);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
