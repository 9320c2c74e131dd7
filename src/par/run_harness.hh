/**
 * @file
 * The run harness both paper cases share: everything an experiment
 * runner wraps around its solver loop, whatever the solver is. It
 * configures the region's stop protocol, restores the newest valid
 * checkpoint, attaches the per-rank feature store, drives the loop
 * (region begin/end, early stop, metrics heartbeat, periodic and
 * interrupt-time checkpoints, the injected-crash test seam), and
 * seals and merges the store at the end. runResilient is the
 * auto-resume supervisor around a whole runner.
 *
 * A runner keeps only what is specific to its case: the analyses it
 * registers, the step it takes, and the result it extracts (see
 * blastapp/runner.hh and wdmerger/runner.hh).
 */

#ifndef TDFE_PAR_RUN_HARNESS_HH
#define TDFE_PAR_RUN_HARNESS_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/cli.hh"
#include "base/logging.hh"
#include "ckpt/checkpoint.hh"
#include "obs/report.hh"

namespace tdfe
{

class BinaryReader;
class BinaryWriter;
class Communicator;
class Region;

/** Harness behaviour shared by every runner's options. */
struct HarnessOptions
{
    /** Attach a td region with the runner's analyses. */
    bool instrument = false;
    /** Honour the region's early-termination request. */
    bool honorStop = false;
    /** Pipeline the analysis ingest: snapshot at end(), digest on
     *  the pool (results stay bitwise identical; see
     *  Region::setAsyncAnalyses). The digest overlaps the next
     *  solver step in non-stop runs; with honorStop the harness
     *  polls shouldStop() every iteration, which drains the epoch
     *  there — the stop still fires on the identical iteration, and
     *  the drained digest runs on the pool workers, but nothing is
     *  hidden under the solver. */
    bool asyncAnalyses = false;
    /** Relaxed stop query (see Region::setRelaxedStopQuery): the
     *  per-iteration shouldStop() poll returns the last published
     *  decision without draining the pipeline, so the digest keeps
     *  overlapping the solver even with honorStop — at the cost of
     *  stopping at most one iteration later. */
    bool relaxedStop = false;
    /** Reference mode: blocking collectives inside end() (the
     *  pre-pipelined protocol; bench/rank_pipeline measures the
     *  overlapped protocol against it). */
    bool blockingSync = false;

    /** Write extracted features to a trace store at this path
     *  (empty: disabled; requires instrument). Under a multi-rank
     *  communicator every rank writes "<path>.rk<rank>" and rank 0
     *  merges them into <path> in rank order after the run. */
    std::string storePath;
    /** Flush store blocks on the thread pool (see StoreOptions). */
    bool storeAsync = false;
    /** Store durability policy: "none", "flush", or "fsync" (see
     *  store::DurabilityPolicy; parsed at run time, fatal on other
     *  values). */
    std::string storeDurability = "none";
    /** Rank-merge policy for unreadable parts: "fail" or "skip"
     *  (see MergePolicy). */
    std::string storeMergePolicy = "fail";
    /** Keep per-rank store parts (and runResilient's per-attempt
     *  segments) after the merge. */
    bool storeKeepParts = false;
    /** Publish a live manifest after sealed blocks so concurrent
     *  tail readers can follow the run (see store/live.hh). Under a
     *  multi-rank communicator the per-rank parts publish — a tail
     *  follows "<path>.rk<rank>"; the merged store appears whole. */
    bool storeLive = false;

    /** Crash-safe checkpointing + auto-resume (see src/ckpt). An
     *  iteration is one pass of the harness loop: a blast cycle, a
     *  wdmerger dump. @{ */
    /** Checkpoint path prefix (empty: checkpointing disabled).
     *  Generations land at "<prefix>.NNNNNN.tdck"; under a
     *  multi-rank comm each rank uses "<prefix>.rk<rank>". */
    std::string ckptPath;
    /** Iterations between checkpoints (0: only on interrupt). */
    long ckptEvery = 0;
    /** Generations kept; >= 2 so a torn newest generation still
     *  has a previous-good fallback. */
    int ckptKeep = 3;
    /** Checkpoint durability: "none", "flush", or "fsync". The
     *  default is the paranoid one — checkpoints are restart data,
     *  not an analysis artifact. */
    std::string ckptDurability = "fsync";
    /** Restore from the newest valid checkpoint before the loop
     *  (no-op when none exists). */
    bool resumeAuto = false;
    /** Restart attempts runResilient may consume after an injected
     *  crash before giving up. */
    int maxRestarts = 8;
    /** Comm watchdog deadline for the region's stop protocol
     *  (seconds; 0 disables). See Region::setCommDeadline. */
    double commDeadlineSeconds = 0.0;
    /** Iterations between metrics heartbeat lines (--metrics-every;
     *  0 disables). Requires telemetry to be enabled (see
     *  obs::setMetricsEnabled / applyObsOptions) to show non-zero
     *  counters. */
    long metricsEvery = 0;
    /** Test seam: crash the attempt (leave the loop without a
     *  final checkpoint, as a kill would) after this many loop
     *  iterations of this attempt (0: disabled). */
    long haltAfterIterations = 0;
    /** Test seam: per-generation fault injection on checkpoint
     *  writes (see CheckpointSet::setWriteHook). */
    std::function<void(std::uint64_t, ckpt::WriteOptions &)>
        ckptWriteHook;
    /** @} */
};

/**
 * Copy the parsed --store* / --ckpt* / --resume-auto /
 * --metrics-every values into @p options: every front end's one
 * assignment from the shared CLI helpers to a runner's options.
 */
void applyCliOptions(HarnessOptions &options,
                     const StoreCliOptions &store,
                     const CkptCliOptions &ckpt,
                     const ObsCliOptions &telemetry);

/** Measurements every runner's result carries. */
struct HarnessResult
{
    /** Wall-clock seconds of the whole loop. */
    double seconds = 0.0;
    /** Seconds the region spent inside the library. */
    double overheadSeconds = 0.0;
    /** True when the run terminated early on convergence. */
    bool stoppedEarly = false;
    /** Bytes of this rank's feature store (0: none written). */
    std::size_t storeBytes = 0;
    /** True when the feature sink degraded mid-run and was
     *  detached (the physics are still exact). */
    bool storeDegraded = false;

    /** Resilience bookkeeping (see HarnessOptions' ckpt knobs). @{ */
    /** True when a SIGINT/SIGTERM stopped the loop (after an
     *  orderly final checkpoint + store seal). */
    bool interrupted = false;
    /** True when the test seam crashed this attempt (no final
     *  checkpoint — simulating a kill). */
    bool halted = false;
    /** True when this run restored state from a checkpoint. */
    bool resumed = false;
    /** Iteration the restored checkpoint was taken at (-1: none). */
    long resumedFromIteration = -1;
    /** Checkpoint generations written during the run. */
    long checkpointsWritten = 0;
    /** True when a checkpoint write failed (sticky; the run
     *  continued — checkpoint I/O never fatals). */
    bool ckptDegraded = false;
    /** First checkpoint failure's message. */
    std::string ckptError;
    /** True when the comm watchdog fired: a stop-protocol
     *  collective missed its deadline and the region fell back to
     *  its last published decision (results unchanged — analyses
     *  are replicated). */
    bool commDegraded = false;
    /** Restart attempts runResilient consumed (0: the first
     *  attempt completed). */
    int restarts = 0;
    /** @} */

    /** End-of-run telemetry (empty unless metrics were enabled;
     *  see src/obs and --metrics-out). */
    obs::RunReport report;
};

/** The simulation as the harness sees it. */
struct HarnessHooks
{
    /** @return true once the simulation has reached its end. */
    std::function<bool()> finished;
    /** Advance one iteration (called between region begin/end). */
    std::function<void()> step;
    /** @return the current iteration (checkpoint generation tag,
     *  --ckpt-every cadence, heartbeat). */
    std::function<long()> iteration;
    /** Serialize / restore the simulation's restart state. @{ */
    std::function<void(BinaryWriter &)> save;
    std::function<void(BinaryReader &)> load;
    /** @} */
};

/**
 * Run the simulation under the harness, from checkpoint-set
 * creation and resume to the final store merge. @p region (null for
 * a bare run) must have its analyses registered and nothing else
 * configured beyond its sync interval; the harness applies the
 * remaining @p options knobs. @p coeff_count is the store's
 * coefficient column count. On return @p result holds every
 * HarnessResult field; the region is drained and detached from the
 * store, ready for the runner's feature extraction. @p label names
 * the runner in log lines. Collective under @p comm.
 */
void runHarness(const HarnessOptions &options, const char *label,
                Region *region, Communicator *comm,
                std::size_t coeff_count, const HarnessHooks &sim,
                HarnessResult &result);

namespace detail
{

/** runResilient's precondition checks (fatal on violation). */
void checkResilientOptions(const HarnessOptions &options,
                           Communicator *comm);

/**
 * Stitch runResilient's per-attempt store segments into
 * options.storePath (see stitchSegmentStores) and remove them
 * unless storeKeepParts. @return bytes of the stitched store file.
 */
std::size_t stitchAttemptSegments(
    const std::vector<std::string> &segments,
    const HarnessOptions &options);

} // namespace detail

/**
 * Auto-resume supervisor around a runner: call @p run(attempt) until
 * an attempt completes, restoring each retry from the newest valid
 * checkpoint (requires options.ckptPath). An injected crash
 * (haltAfterIterations) consumes a restart; a real SIGINT/SIGTERM
 * ends the supervision with result.interrupted set. When a feature
 * store is configured, each attempt writes its own "<store>.seg<k>"
 * segment and the segments are stitched — dropping the
 * post-checkpoint overlap re-recorded by the resumed attempt — into
 * options.storePath at the end, so the final store is
 * record-identical to an uninterrupted run (single-rank only).
 *
 * @param run Callable taking const Options & and returning the
 *        runner's result (a HarnessResult).
 */
template <class Options, class Run>
auto
runResilient(const Options &options, Communicator *comm,
             const char *label, Run run)
{
    detail::checkResilientOptions(options, comm);
    Options attempt = options;
    std::vector<std::string> segments;
    int restarts = 0;
    for (;;) {
        if (!options.storePath.empty()) {
            attempt.storePath = options.storePath + ".seg" +
                                std::to_string(segments.size());
            segments.push_back(attempt.storePath);
        }
        auto result = run(attempt);
        result.restarts = restarts;

        if (result.halted && !ckpt::interruptRequested() &&
            restarts < options.maxRestarts) {
            ++restarts;
            // The injected crash fires once; every retry resumes
            // from the newest valid generation it left behind.
            attempt.haltAfterIterations = 0;
            attempt.resumeAuto = true;
            TDFE_INFORM(label, " supervisor: attempt crashed; "
                        "restarting (attempt ", restarts + 1, ")");
            continue;
        }
        if (!segments.empty())
            result.storeBytes =
                detail::stitchAttemptSegments(segments, options);
        return result;
    }
}

} // namespace tdfe

#endif // TDFE_PAR_RUN_HARNESS_HH
