#include "par/run_harness.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "base/serial.hh"
#include "base/timer.hh"
#include "core/region.hh"
#include "par/comm.hh"
#include "par/store_merge.hh"

namespace tdfe
{

namespace
{

/** Writer knobs from the run flags — one builder so the per-rank
 *  parts, the rank-0 merge, and the crash-resume stitch all honor
 *  the same --store-async / --store-durability settings. */
StoreOptions
storeOptionsFrom(const HarnessOptions &options)
{
    StoreOptions store_options;
    store_options.async = options.storeAsync;
    store_options.durability =
        store::parseDurabilityPolicy(options.storeDurability);
    store_options.live = options.storeLive;
    return store_options;
}

/**
 * Combined resume payload: the simulation's state plus (when
 * instrumented) the region's analysis/protocol state, in one byte
 * string the envelope frames with CRCs. The tag/version lets a
 * future layout change coexist with old checkpoints on disk.
 */
std::string
buildResumePayload(const HarnessHooks &sim, const Region *region)
{
    std::ostringstream os(std::ios::binary);
    BinaryWriter w(os);
    w.writeTag("TDRESUME");
    w.writeU64(1); // payload format version
    w.writeBool(region != nullptr);
    sim.save(w);
    if (region)
        region->saveCheckpoint(os);
    return os.str();
}

bool
restoreResumePayload(const std::string &payload,
                     const HarnessHooks &sim, Region *region,
                     std::string *error)
{
    std::istringstream is(payload, std::ios::binary);
    BinaryReader r(is);
    r.expectTag("TDRESUME");
    const std::uint64_t version = r.readU64();
    if (r.ok() && version != 1) {
        r.fail("unsupported resume payload version " +
               std::to_string(version));
    }
    const bool has_region = r.readBool();
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    if (has_region != (region != nullptr)) {
        *error = "checkpoint instrumentation mismatch (saved "
                 "with/without a region)";
        return false;
    }
    sim.load(r);
    if (!r.ok()) {
        *error = r.error();
        return false;
    }
    if (region && !region->loadCheckpoint(is)) {
        *error = region->checkpointError();
        return false;
    }
    return true;
}

/** Latch the set's first failure into the result. */
void
latchCkptDegrade(const ckpt::CheckpointSet &set,
                 HarnessResult &result)
{
    // CheckpointSet::save warns (once) on the first failure; here we
    // only latch the result bookkeeping.
    if (set.degraded() && !result.ckptDegraded) {
        result.ckptDegraded = true;
        result.ckptError = set.status().message;
    }
}

/** Write one generation tagged with the current iteration. */
void
writeCheckpoint(ckpt::CheckpointSet &set, const HarnessHooks &sim,
                const Region *region, HarnessResult &result)
{
    const std::string payload = buildResumePayload(sim, region);
    if (set.save(static_cast<std::uint64_t>(sim.iteration()),
                 payload)) {
        ++result.checkpointsWritten;
    }
    latchCkptDegrade(set, result);
}

} // namespace

void
applyCliOptions(HarnessOptions &options, const StoreCliOptions &store,
                const CkptCliOptions &ckpt,
                const ObsCliOptions &telemetry)
{
    options.storePath = store.path;
    options.storeAsync = store.async;
    options.storeDurability = store.durability;
    options.storeMergePolicy = store.mergePolicy;
    options.storeKeepParts = store.keepParts;
    options.storeLive = store.live;
    options.ckptPath = ckpt.path;
    options.ckptEvery = ckpt.every;
    options.ckptKeep = static_cast<int>(ckpt.keep);
    options.ckptDurability = ckpt.durability;
    options.resumeAuto = ckpt.resumeAuto;
    options.metricsEvery = telemetry.metricsEvery;
}

void
runHarness(const HarnessOptions &options, const char *label,
           Region *region, Communicator *comm,
           std::size_t coeff_count, const HarnessHooks &sim,
           HarnessResult &result)
{
    if (region) {
        region->setBlockingSync(options.blockingSync);
        region->setAsyncAnalyses(options.asyncAnalyses);
        region->setRelaxedStopQuery(options.relaxedStop);
        region->setCommDeadline(options.commDeadlineSeconds);
    }

    // Checkpointing, per rank: the rank's local state is its own
    // restart data, exactly like its store part.
    std::unique_ptr<ckpt::CheckpointSet> ckpt_set;
    if (!options.ckptPath.empty()) {
        ckpt_set = std::make_unique<ckpt::CheckpointSet>(
            rankStorePath(options.ckptPath, comm ? comm->rank() : 0,
                          comm ? comm->size() : 1),
            options.ckptKeep,
            store::parseDurabilityPolicy(options.ckptDurability));
        if (options.ckptWriteHook)
            ckpt_set->setWriteHook(options.ckptWriteHook);
    }

    if (options.resumeAuto && ckpt_set) {
        std::string payload, from_path;
        std::uint64_t at_iter = 0;
        if (ckpt_set->openNewestValid(&payload, &at_iter,
                                      &from_path)) {
            std::string error;
            if (restoreResumePayload(payload, sim, region, &error)) {
                result.resumed = true;
                result.resumedFromIteration =
                    static_cast<long>(at_iter);
                TDFE_INFORM(label, " run: resumed from '", from_path,
                            "' (iteration ", at_iter, ")");
            } else {
                // CRC-valid but unusable (e.g. written by a
                // differently-instrumented run): start fresh rather
                // than die — the checkpoint stays on disk for triage.
                TDFE_WARN(label, " run: checkpoint '", from_path,
                          "' not usable (", error,
                          "); starting from scratch");
            }
        }
    }

    std::unique_ptr<FeatureStoreWriter> store;
    if (region && !options.storePath.empty()) {
        store = attachRankStore(*region, options.storePath,
                                coeff_count,
                                storeOptionsFrom(options), comm);
    }

    long attempt_iters = 0;
    obs::Heartbeat heartbeat(
        static_cast<std::uint64_t>(std::max(options.metricsEvery,
                                            0L)));
    Timer timer;
    while (!sim.finished()) {
        if (region)
            region->begin();
        sim.step();
        if (region) {
            region->end();
            if (options.honorStop && region->shouldStop()) {
                result.stoppedEarly = true;
                break;
            }
        }

        ++attempt_iters;
        const long iter = sim.iteration();
        heartbeat.tick(static_cast<std::uint64_t>(iter));
        if (ckpt_set && options.ckptEvery > 0 &&
            iter % options.ckptEvery == 0) {
            writeCheckpoint(*ckpt_set, sim, region, result);
        }
        if (options.haltAfterIterations > 0 &&
            attempt_iters >= options.haltAfterIterations) {
            // Injected crash: leave without a final checkpoint,
            // exactly what a kill -9 at this iteration leaves behind.
            result.halted = true;
            break;
        }
        if (ckpt::interruptRequested()) {
            // Orderly shutdown: one final checkpoint so the resumed
            // run restarts from this exact iteration, then fall
            // through to the store seal below.
            if (ckpt_set)
                writeCheckpoint(*ckpt_set, sim, region, result);
            result.interrupted = true;
            break;
        }
    }
    result.seconds = timer.elapsed();

    if (region) {
        // The first query drains any in-flight epoch, so no appends
        // are pending past this point.
        result.overheadSeconds = region->overheadSeconds();
        result.commDegraded = region->commDegraded();
    }
    if (ckpt_set)
        latchCkptDegrade(*ckpt_set, result);

    if (store) {
        result.storeDegraded =
            region->featureStoreDegraded() || !store->ok();
        RankMergeOptions merge;
        merge.policy = parseMergePolicy(options.storeMergePolicy);
        merge.keepParts = options.storeKeepParts;
        merge.storeOptions = storeOptionsFrom(options);
        result.storeBytes = finishRankStore(
            *region, std::move(store), options.storePath, comm,
            merge);
    }
    result.report = obs::captureRunReport();
}

void
detail::checkResilientOptions(const HarnessOptions &options,
                      Communicator *comm)
{
    TDFE_ASSERT(!options.ckptPath.empty(),
                "resilient runs need a checkpoint path");
    TDFE_ASSERT(options.storePath.empty() || !comm ||
                    comm->size() <= 1,
                "segmented store stitching supports single-rank "
                "runs only");
}

std::size_t
detail::stitchAttemptSegments(const std::vector<std::string> &segments,
                      const HarnessOptions &options)
{
    const std::size_t records = stitchSegmentStores(
        segments, options.storePath, storeOptionsFrom(options));
    if (!options.storeKeepParts) {
        for (const std::string &seg : segments)
            std::remove(seg.c_str());
    }
    return records;
}

} // namespace tdfe
