#include "workloads.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sys/stat.h>
#include <thread>

#include "base/thread_pool.hh"
#include "blastapp/domain.hh"
#include "clover2d/app.hh"
#include "core/region.hh"
#include "par/store_merge.hh"
#include "par/thread_comm.hh"
#include "postproc/ground_truth.hh"
#include "store/live.hh"
#include "store/manifest.hh"
#include "wdmerger/app.hh"

namespace perfbench
{

using namespace tdfe;

namespace
{

/** Iterations between the bench thread's tail polls and pool
 *  probes: often enough for hundreds of samples per episode, rare
 *  enough to cost under 1% of a cycle on average. */
constexpr long kPollEvery = 16;
/** QueryCursor queries per finished store. */
constexpr int kQueries = 8;
/** Stated tolerances of the features against their same-run truth:
 *  each break-point within 10% or one cell, and the mean delay-time
 *  error of a wd ensemble within 15%. Only these are scored:
 *  clover's delay-time and peak-value features describe the fitted
 *  curve inside the sampling window, which opens after the shock
 *  has passed their probe, so the probe peaks are no truth for
 *  them. */
constexpr double kBreakpointTolPct = 10.0;
constexpr double kDelayMeanTolPct = 15.0;
/** Cap on tail refreshes while draining a finished live store. */
constexpr int kTailDrainRefreshes = 10000;

void
removeStore(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(store::manifestPathFor(path).c_str());
}

/** What the loop measured, per rank. */
struct LoopTimes
{
    std::vector<double> exposedUs;
    std::vector<double> stepUs;
    std::vector<double> gatherUs;
    /** Microseconds since the loop started when iteration i's
     *  region calls returned. */
    std::vector<double> doneAtUs;
    long firstStop = -1;
    double finalDrainUs = 0.0;
    double regionOverheadS = 0.0;
};

/** Probe the pool between iterations, alternating an empty
 *  parallelFor over every thread (dispatch) with a one-chunk submit
 *  whose start time a worker stamps (submit-to-start latency). */
void
probePool(SpanLog &log, long it, Episode &ep)
{
    ThreadPool &pool = ThreadPool::global();
    if (it % kPollEvery != 0 || pool.threadCount() < 2)
        return;
    if ((it / kPollEvery) % 2 == 0) {
        const std::size_t n =
            static_cast<std::size_t>(pool.threadCount());
        ep.samples["base.pool.dispatch_us"].push_back(
            timed(log, "base.pool.dispatch", [&] {
                parallelFor(n, std::size_t{1}, [](std::size_t) {});
            }));
        return;
    }
    std::atomic<double> started{-1.0};
    const double b = nowUs();
    ThreadPool::JobHandle job = pool.submit(
        1, [&started](std::size_t) { started.store(nowUs()); });
    // Let a worker pick it up (the caller helping would measure
    // nothing); wait() afterwards only reaps the finished job.
    while (!ThreadPool::finished(job))
        std::this_thread::yield();
    pool.wait(job);
    const double e = nowUs();
    log.add("base.pool.submit", b, e);
    ep.samples["base.pool.submit_start_us"].push_back(started.load() -
                                                      b);
}

/** Iteration at which every analysis finished training: its
 *  convergence iteration, or the end of its sampling window. */
long
trainingDoneIteration(const Region &region)
{
    long k = 0;
    for (std::size_t a = 0; a < region.analysisCount(); ++a) {
        const CurveFitAnalysis &an = region.analysis(a);
        const long done = an.convergedIteration() >= 0
                              ? an.convergedIteration()
                              : an.config().time.end;
        k = std::max(k, done);
    }
    return k;
}

/** Feature time: when iteration @p k's results were published (the
 *  async pipeline publishes at the next end(); past the last
 *  iteration, the final drain does). */
double
publishedAtUs(const LoopTimes &t, long k, bool async, double end_us)
{
    const long at = async ? k + 1 : k;
    if (at < static_cast<long>(t.doneAtUs.size()))
        return t.doneAtUs[static_cast<std::size_t>(at)];
    return end_us;
}

std::vector<double>
peaksOf(const std::vector<std::vector<double>> &rows)
{
    std::vector<double> peak(rows.empty() ? 0 : rows.front().size(),
                             0.0);
    for (const std::vector<double> &row : rows)
        for (std::size_t l = 0; l < row.size(); ++l)
            peak[l] = std::max(peak[l], row[l]);
    return peak;
}

/** Extract one analysis' feature the way the harnesses do:
 *  break-points at @p threshold, everything else as configured. */
FeatureOut
extractFeature(CurveFitAnalysis &an, double threshold)
{
    FeatureOut f;
    if (an.config().feature == FeatureKind::BreakpointRadius) {
        an.setThreshold(threshold);
        f.threshold = threshold;
        f.value = static_cast<double>(an.breakPoint().radius);
    } else {
        f.value = an.extractFeature();
    }
    f.convergedIteration = an.convergedIteration();
    f.rounds = an.trainingRounds();
    return f;
}

bool
sameFeature(const FeatureOut &a, const FeatureOut &b)
{
    return a.value == b.value &&
           a.convergedIteration == b.convergedIteration &&
           a.rounds == b.rounds;
}

void
appendSamples(Episode &ep, const std::string &key,
              const std::vector<double> &v)
{
    std::vector<double> &dst = ep.samples[key];
    dst.insert(dst.end(), v.begin(), v.end());
}

/** Replay the analyses, compare against the live features, and
 *  record the core.analysis samples. @return the replay. */
AnalysisReplay
replayAndCompare(Episode &ep, const std::vector<AnalysisConfig> &configs,
                 const std::vector<std::vector<double>> &rows,
                 long loc_base, std::size_t coeffs,
                 const std::vector<FeatureOut> &live,
                 const std::vector<double> &thresholds,
                 SpanLog &replay_log)
{
    AnalysisReplay rep =
        replayAnalyses(configs, rows, loc_base, coeffs, replay_log);
    double extract_us = 0.0;
    for (std::size_t a = 0; a < rep.analyses.size(); ++a) {
        FeatureOut f;
        extract_us += timed(replay_log, "core.analysis.extract", [&] {
            f = extractFeature(*rep.analyses[a], thresholds[a]);
        });
        ep.tally.check(sameFeature(f, live[a]), "replay.analysis",
                       configs[a].name);
    }
    ep.values["core.analysis.extract_us"] += extract_us;
    appendSamples(ep, "core.analysis.snapshot_us", rep.snapshotUs);
    appendSamples(ep, "core.analysis.digest_us", rep.digestUs);
    appendSamples(ep, "core.analysis.train_round_us", rep.trainRoundUs);
    return rep;
}

/** Writer replay of @p records with the live run's options, then
 *  the store.writer samples. */
WriterReplay
replayStoreWriter(Episode &ep, const std::vector<FeatureRecord> &records,
                  std::size_t coeffs, const StoreOptions &options,
                  const std::string &path, SpanLog &replay_log)
{
    WriterReplay w =
        replayWriter(records, coeffs, options, path, replay_log);
    appendSamples(ep, "store.writer.append_us", w.appendUs);
    appendSamples(ep, "store.writer.seal_append_us", w.sealAppendUs);
    ep.values["store.writer.finish_ms"] += w.finishMs;
    ep.values["store.writer.records"] += static_cast<double>(w.records);
    ep.values["store.writer.blocks"] += static_cast<double>(w.blocks);
    ep.values["store.writer.bytes"] += static_cast<double>(w.bytes);
    ep.tally.check(w.dropped == 0 && w.records == records.size(),
                   "replay.writer_appends");
    return w;
}

void
recordReadBack(Episode &ep, const ReadBack &rb)
{
    if (rb.scanUs > 0.0) {
        // records per microsecond == million records per second
        ep.samples["store.reader.scan_mrec_per_s"].push_back(
            static_cast<double>(rb.records.size()) / rb.scanUs);
    }
    appendSamples(ep, "store.reader.query_us", rb.queryUs);
    ep.samples["store.reader.query_blocks_decoded_frac"].push_back(
        rb.queryDecodedFrac);
}

void
recordLoop(Episode &ep, const LoopTimes &t)
{
    ep.exposedUs.insert(ep.exposedUs.end(), t.exposedUs.begin(),
                        t.exposedUs.end());
    for (double us : t.exposedUs)
        ep.exposedSumUs += us;
    ep.exposedSumUs += t.finalDrainUs;
    for (std::size_t i = 0; i < t.stepUs.size(); ++i)
        ep.solverSumUs += t.stepUs[i] + t.gatherUs[i];
    ep.regionOverheadUs += 1e6 * t.regionOverheadS;
    appendSamples(ep, "app.step_us", t.stepUs);
    appendSamples(ep, "app.probe_gather_us", t.gatherUs);
    ep.samples["core.region.final_drain_us"].push_back(t.finalDrainUs);
}

/** Check every scored feature against its same-run truth: within
 *  its relative tolerance, or within its absolute slack. */
void
checkTruth(Episode &ep)
{
    for (const FeatureOut &f : ep.features) {
        if (!f.scored)
            continue;
        ep.tally.check(featureErrorPct(f) <= f.tolPct ||
                           std::fabs(f.value - f.truth) <= f.slack,
                       "feature.within_tolerance",
                       f.name + " " + std::to_string(f.value) +
                           " vs truth " + std::to_string(f.truth));
    }
}

// ------------------------------------------------------------ clover

Episode
runClover(const EpisodeConfig &cfg)
{
    const CloverInputs in = cloverInputs(cfg.seed);
    setGlobalThreadCount(4);
    Episode ep;
    ep.logs.reserve(2);
    ep.logs.emplace_back(cfg.traced, 0);
    ep.logs.emplace_back(cfg.traced, 100);
    SpanLog &log = ep.logs[0];
    SpanLog &replay_log = ep.logs[1];
    const std::string path = cfg.scratchDir + "/clover_insitu.tdfs";
    removeStore(path);

    std::size_t coeffs = 0;
    for (const AnalysisConfig &ac : in.analyses)
        coeffs = std::max(coeffs, ac.ar.order + 1);

    StoreOptions store_options;
    store_options.async = true;
    store_options.live = true;

    const double s0 = nowUs();
    std::unique_ptr<clover::CloverField> field;
    std::unique_ptr<Region> region;
    std::unique_ptr<FeatureStoreWriter> store;
    std::unique_ptr<LiveStoreReader> live;
    std::unique_ptr<TailCursor> tail;
    {
        Scope setup(log, "bench.setup");
        clover::CloverAppConfig app;
        app.size = in.size;
        app.blastEnergy = in.energy;
        app.maxIterations = in.iterations;
        ep.values["app.construct_s"] =
            1e-6 * timed(log, "clover2d.construct", [&] {
                field = std::make_unique<clover::CloverField>(app);
            });
        region = std::make_unique<Region>("clover_insitu", field.get());
        region->setAsyncAnalyses(true);
        region->setRelaxedStopQuery(true);
        for (AnalysisConfig ac : in.analyses) {
            ac.provider = [](void *domain, long loc) {
                return static_cast<clover::CloverField *>(domain)
                    ->fieldAt(loc);
            };
            region->addAnalysis(std::move(ac));
        }
        store = attachRankStore(*region, path, coeffs, store_options,
                                nullptr);
        live = std::make_unique<LiveStoreReader>(path);
        tail = std::make_unique<TailCursor>(*live);
    }
    ep.setupS = 1e-6 * (nowUs() - s0);

    LoopTimes t;
    std::vector<std::vector<double>> rows;
    rows.reserve(static_cast<std::size_t>(in.iterations));
    std::vector<FeatureRecord> tailed;
    FeatureRecord rec;
    auto poll_tail = [&] {
        live->refresh();
        while (tail->next(rec))
            tailed.push_back(rec);
    };

    SeedRng query_rng(cfg.seed ^ 0x51u);
    const double t0 = nowUs();
    const int run = log.open("bench.run");
    long it = 0;
    while (!field->finished()) {
        Scope iteration(log, "bench.iteration");
        const double b =
            timed(log, "core.region.begin", [&] { region->begin(); });
        const double ts = timed(log, "clover2d.timestep",
                                [&] { clover::Timestep(*field); });
        const double hc = timed(log, "clover2d.hydro_cycle",
                                [&] { clover::HydroCycle(*field); });
        const double g = timed(log, "clover2d.gather_probes",
                               [&] { field->gatherProbes(); });
        const double e =
            timed(log, "core.region.end", [&] { region->end(); });
        bool stop = false;
        const double s = timed(log, "core.region.should_stop",
                               [&] { stop = region->shouldStop(); });
        t.doneAtUs.push_back(nowUs() - t0);
        t.exposedUs.push_back(b + e + s);
        t.stepUs.push_back(ts + hc);
        t.gatherUs.push_back(g);
        if (stop && t.firstStop < 0)
            t.firstStop = it;
        rows.push_back(field->probes());
        if (it % kPollEvery == 0) {
            probePool(log, it, ep);
            ep.samples["store.live.tail_poll_us"].push_back(
                timed(log, "store.live.tail_poll", poll_tail));
            ep.samples["store.live.tail_lag_records"].push_back(
                static_cast<double>(store->recordCount() -
                                    tail->recordsDelivered()));
        }
        ++it;
    }
    t.finalDrainUs = timed(log, "core.region.final_drain", [&] {
        t.regionOverheadS = region->overheadSeconds();
    });
    const double end_us = nowUs() - t0;
    region->setFeatureStore(nullptr);
    timed(log, "store.writer.finish", [&] { store->finish(); });
    bool drained = false;
    timed(log, "store.live.tail_drain", [&] {
        for (int n = 0; n < kTailDrainRefreshes && !drained; ++n) {
            poll_tail();
            drained = tail->done();
        }
    });
    ReadBack rb = readBackStore(path, kQueries, query_rng, log, ep.tally);
    log.close(run);
    ep.wallS = 1e-6 * (nowUs() - t0);

    // ---- outputs
    ep.iterations = it;
    recordLoop(ep, t);
    const long k = trainingDoneIteration(*region);
    const long feature_it = std::max(k, t.firstStop);
    ep.featureIters = feature_it + 1;
    ep.featureS = 1e-6 * publishedAtUs(t, feature_it, true, end_us);

    const double v_init = field->initialVelocity();
    const std::vector<double> peaks = peaksOf(rows);
    std::vector<double> thresholds(in.analyses.size(), 0.0);
    int bp = 0;
    for (std::size_t a = 0; a < in.analyses.size(); ++a) {
        const AnalysisConfig &ac = in.analyses[a];
        if (ac.feature == FeatureKind::BreakpointRadius)
            thresholds[a] = 0.01 * in.thresholdPct[bp++] * v_init;
        FeatureOut f = extractFeature(region->analysis(a), thresholds[a]);
        f.name = ac.name;
        if (ac.feature == FeatureKind::BreakpointRadius) {
            f.truth = static_cast<double>(
                truthBreakpointRadius(peaks, thresholds[a]));
            f.scored = true;
            f.tolPct = kBreakpointTolPct;
            f.slack = 1.0;
        }
        ep.features.push_back(f);
    }
    checkTruth(ep);

    // ---- store checks
    const std::size_t expected =
        static_cast<std::size_t>(it) * in.analyses.size();
    ep.tally.appends += static_cast<long>(store->recordCount());
    ep.tally.dropped += static_cast<long>(store->droppedRecords());
    ep.tally.check(store->ok() && !region->featureStoreDegraded(),
                   "store.healthy");
    ep.tally.check(store->recordCount() == expected &&
                       rb.records.size() == expected,
                   "store.readback_count");
    ep.tally.check(drained && tailed.size() == rb.records.size() &&
                       hashRecords(tailed, false) ==
                           hashRecords(rb.records, false),
                   "store.tail_exactly_once_in_order",
                   std::to_string(tailed.size()) + " tailed of " +
                       std::to_string(rb.records.size()));
    ep.values["store.writer.exposed_ms"] = 1e3 * store->exposedSeconds();
    ep.values["store.live.publishes"] =
        static_cast<double>(store->livePublished());
    ep.probeBytes = static_cast<double>(it) *
                    static_cast<double>(field->probeCount()) *
                    sizeof(double);
    ep.storeBytes = static_cast<double>(rb.fileBytes);
    ep.storeContentHash = hashRecords(rb.records, true);
    recordReadBack(ep, rb);

    // ---- replays
    const AnalysisReplay rep =
        replayAndCompare(ep, in.analyses, rows, 1, coeffs, ep.features,
                         thresholds, replay_log);
    ep.tally.check(hashRecords(rep.records, true) == ep.storeContentHash,
                   "replay.store_records");
    const std::string replay_path = path + ".replay";
    removeStore(replay_path);
    replayStoreWriter(ep, rb.records, coeffs, store_options, replay_path,
                      replay_log);
    ep.tally.check(readFile(replay_path) == readFile(path),
                   "replay.store_bytes");

    ep.values["app.steps"] = static_cast<double>(field->cycle());
    double rounds = 0.0;
    for (const FeatureOut &f : ep.features)
        rounds += static_cast<double>(f.rounds);
    ep.values["core.analysis.train_rounds"] = rounds;
    tail.reset();
    live.reset();
    removeStore(path);
    removeStore(replay_path);
    return ep;
}

// ------------------------------------------------------------- blast

struct RankOut
{
    LoopTimes times;
    double setupS = 0.0;
    double constructS = 0.0;
    double wallS = 0.0;
    double endUs = 0.0;
    long iterations = 0;
    long featureIter = 0;
    double vInit = 0.0;
    FeatureOut feature;
    double threshold = 0.0;
    std::size_t appended = 0;
    std::size_t dropped = 0;
    bool healthy = true;
    double exposedStoreMs = 0.0;
    std::vector<std::vector<double>> rows;
};

Episode
runBlast(const EpisodeConfig &cfg)
{
    const BlastInputs in = blastInputs(cfg.seed);
    setGlobalThreadCount(in.threads);
    Episode ep;
    ep.logs.reserve(static_cast<std::size_t>(in.ranks) + 1);
    for (int r = 0; r < in.ranks; ++r)
        ep.logs.emplace_back(cfg.traced, r);
    ep.logs.emplace_back(cfg.traced, 100);
    SpanLog &replay_log = ep.logs.back();
    const std::string path = cfg.scratchDir + "/blast_ranks.tdfs";
    removeStore(path);
    const std::size_t coeffs = in.analysis.ar.order + 1;
    std::vector<RankOut> outs(static_cast<std::size_t>(in.ranks));

    ThreadCommWorld world(in.ranks);
    world.run([&](Communicator &comm) {
        const int rank = comm.rank();
        SpanLog &log = ep.logs[static_cast<std::size_t>(rank)];
        RankOut &out = outs[static_cast<std::size_t>(rank)];
        const double s0 = nowUs();
        std::unique_ptr<blast::Domain> domain;
        std::unique_ptr<Region> region;
        std::unique_ptr<FeatureStoreWriter> store;
        {
            Scope setup(log, "bench.setup");
            out.constructS = 1e-6 * timed(log, "blastapp.construct", [&] {
                domain = std::make_unique<blast::Domain>(in.config, &comm);
            });
            region = std::make_unique<Region>("blast", domain.get(), &comm);
            region->setSyncInterval(in.syncInterval);
            blast::Domain *dom = domain.get();
            region->setRankOfLocation(
                [dom](long loc) { return dom->rankOfLocation(loc); });
            AnalysisConfig ac = in.analysis;
            ac.provider = [](void *d, long loc) {
                return static_cast<blast::Domain *>(d)->xd(loc);
            };
            region->addAnalysis(std::move(ac));
            store = attachRankStore(*region, path, coeffs, StoreOptions(),
                                    &comm);
        }
        out.setupS = 1e-6 * (nowUs() - s0);
        comm.barrier();

        LoopTimes &t = out.times;
        const double t0 = nowUs();
        const int run = log.open("bench.run");
        long it = 0;
        while (!domain->finished()) {
            Scope iteration(log, "bench.iteration");
            const double b =
                timed(log, "core.region.begin", [&] { region->begin(); });
            const double ti = timed(log, "blastapp.time_increment",
                                    [&] { blast::TimeIncrement(*domain); });
            const double lf =
                timed(log, "blastapp.leapfrog",
                      [&] { blast::LagrangeLeapFrog(*domain); });
            const double g = timed(log, "blastapp.gather_probes",
                                   [&] { domain->gatherProbes(); });
            const double e =
                timed(log, "core.region.end", [&] { region->end(); });
            bool stop = false;
            const double s = timed(log, "core.region.should_stop",
                                   [&] { stop = region->shouldStop(); });
            t.doneAtUs.push_back(nowUs() - t0);
            t.exposedUs.push_back(b + e + s);
            t.stepUs.push_back(ti + lf);
            t.gatherUs.push_back(g);
            if (stop && t.firstStop < 0)
                t.firstStop = it;
            if (rank == 0) {
                out.rows.push_back(domain->probes());
                probePool(log, it, ep);
            }
            ++it;
        }
        t.finalDrainUs = timed(log, "core.region.final_drain", [&] {
            t.regionOverheadS = region->overheadSeconds();
        });
        out.endUs = nowUs() - t0;
        out.iterations = it;
        out.vInit = domain->initialVelocity();
        out.threshold = 0.01 * in.thresholdPct * out.vInit;
        out.feature = extractFeature(region->analysis(0), out.threshold);
        out.featureIter = std::max(trainingDoneIteration(*region),
                                   t.firstStop);
        out.appended = store->recordCount();
        out.dropped = store->droppedRecords();
        out.exposedStoreMs = 1e3 * store->exposedSeconds();
        out.healthy = store->ok() && !region->featureStoreDegraded();
        RankMergeOptions merge;
        merge.keepParts = true; // the merge replay re-reads them
        timed(log, "par.finish_rank_store", [&] {
            finishRankStore(*region, std::move(store), path, &comm, merge);
        });
        log.close(run);
        out.wallS = 1e-6 * (nowUs() - t0);
    });

    const RankOut &r0 = outs.front();
    ep.setupS = r0.setupS;
    ep.wallS = r0.wallS;
    ep.iterations = r0.iterations;
    ep.featureIters = r0.featureIter + 1;
    ep.featureS = 1e-6 * publishedAtUs(r0.times, r0.featureIter, false,
                                       r0.endUs);
    ep.values["app.construct_s"] = r0.constructS;
    double skew_num = 0.0, skew_den = 0.0;
    std::size_t common = r0.times.stepUs.size();
    for (const RankOut &o : outs)
        common = std::min(common, o.times.stepUs.size());
    for (std::size_t i = 0; i < common; ++i) {
        double mx = 0.0, sum = 0.0;
        for (const RankOut &o : outs) {
            mx = std::max(mx, o.times.stepUs[i]);
            sum += o.times.stepUs[i];
        }
        const double mean = sum / static_cast<double>(outs.size());
        skew_num += mx - mean;
        skew_den += mean;
    }
    ep.values["blastapp.rank_skew_pct"] =
        skew_den > 0.0 ? 100.0 * skew_num / skew_den : 0.0;
    for (const RankOut &o : outs) {
        recordLoop(ep, o.times);
        ep.tally.appends += static_cast<long>(o.appended);
        ep.tally.dropped += static_cast<long>(o.dropped);
        ep.tally.check(o.healthy, "store.healthy");
        ep.tally.check(o.iterations == r0.iterations &&
                           sameFeature(o.feature, r0.feature),
                       "ranks.agree");
        ep.values["store.writer.exposed_ms"] += o.exposedStoreMs;
    }

    FeatureOut f = r0.feature;
    f.name = in.analysis.name;
    f.truth = static_cast<double>(
        truthBreakpointRadius(peaksOf(r0.rows), r0.threshold));
    f.scored = true;
    f.tolPct = kBreakpointTolPct;
    f.slack = 1.0;
    ep.features.push_back(f);
    checkTruth(ep);

    // ---- store checks (merged store on rank 0)
    SeedRng query_rng(cfg.seed ^ 0x51u);
    ReadBack rb =
        readBackStore(path, kQueries, query_rng, replay_log, ep.tally);
    const std::size_t expected = static_cast<std::size_t>(
        r0.iterations * static_cast<long>(in.ranks));
    ep.tally.check(rb.records.size() == expected, "store.readback_count");
    ep.probeBytes = static_cast<double>(r0.iterations) *
                    static_cast<double>(in.config.size) * sizeof(double);
    ep.storeBytes = static_cast<double>(rb.fileBytes);
    ep.storeContentHash = hashRecords(rb.records, true);
    recordReadBack(ep, rb);

    std::vector<std::string> parts;
    for (int r = 0; r < in.ranks; ++r)
        parts.push_back(rankStorePath(path, r, in.ranks));
    const std::string merged_replay = path + ".merge";
    removeStore(merged_replay);
    ep.values["par.merge_ms"] =
        1e-3 * timed(replay_log, "par.merge",
                     [&] { mergeRankStores(parts, merged_replay); });
    ep.tally.check(readFile(merged_replay) == readFile(path),
                   "replay.merge_bytes");

    // ---- replays
    const AnalysisReplay rep = replayAndCompare(
        ep, {in.analysis}, r0.rows, 1, coeffs, ep.features,
        {r0.threshold}, replay_log);
    // The rank-0 merge interleaves the replicated parts by iteration,
    // lower rank first.
    std::vector<FeatureRecord> expect_merged;
    for (const FeatureRecord &r : rep.records)
        for (int k = 0; k < in.ranks; ++k)
            expect_merged.push_back(r);
    ep.tally.check(hashRecords(expect_merged, true) == ep.storeContentHash,
                   "replay.store_records");
    const std::string replay_path = path + ".replay";
    removeStore(replay_path);
    replayStoreWriter(ep, rb.records, coeffs, StoreOptions(), replay_path,
                      replay_log);
    ep.tally.check(readFile(replay_path) == readFile(path),
                   "replay.store_bytes");

    ep.values["app.steps"] = static_cast<double>(r0.iterations);
    ep.values["core.analysis.train_rounds"] =
        static_cast<double>(r0.feature.rounds);
    for (const std::string &p : parts)
        removeStore(p);
    removeStore(path);
    removeStore(merged_replay);
    removeStore(replay_path);
    return ep;
}

// ---------------------------------------------------------------- wd

/** The four delay-time analyses of one member, exactly as
 *  wd::runWdMerger builds them (providers unset). */
std::vector<AnalysisConfig>
wdAnalyses(const wd::WdMergerConfig &config,
           const wd::WdRunOptions &options)
{
    const long total_dumps =
        static_cast<long>(config.tEnd / config.dumpInterval + 0.5);
    const long span = static_cast<long>(options.ar.order) * options.ar.lag;
    long train_end = static_cast<long>(options.trainFraction *
                                       static_cast<double>(total_dumps));
    train_end = std::max(train_end, span + 4);
    std::vector<AnalysisConfig> out;
    for (int v = 0; v < wd::numDiagVars; ++v) {
        AnalysisConfig ac;
        ac.name = wd::diagName(static_cast<wd::DiagVar>(v));
        ac.space = IterParam(v, v, 1);
        ac.time = IterParam(span, train_end, 1);
        ac.feature = FeatureKind::DelayTime;
        ac.smoothWindow = options.smoothWindow;
        ac.featureLocation = v;
        ac.minLocation = v;
        ac.stopWhenConverged = true;
        ac.ar = options.ar;
        out.push_back(std::move(ac));
    }
    return out;
}

Episode
runWd(const EpisodeConfig &cfg)
{
    const WdInputs in = wdInputs(cfg.seed);
    setGlobalThreadCount(4);
    Episode ep;
    ep.logs.reserve(2);
    ep.logs.emplace_back(cfg.traced, 0);
    ep.logs.emplace_back(cfg.traced, 100);
    SpanLog &log = ep.logs[0];
    SpanLog &replay_log = ep.logs[1];
    const std::size_t coeffs = in.options.ar.order + 1;
    SeedRng query_rng(cfg.seed ^ 0x51u);
    std::vector<FeatureRecord> all_records;

    for (std::size_t m = 0; m < in.runs.size(); ++m) {
        const wd::WdMergerConfig &config = in.runs[m];
        const std::vector<AnalysisConfig> configs =
            wdAnalyses(config, in.options);

        const double s0 = nowUs();
        std::unique_ptr<wd::WdMergerApp> app;
        std::unique_ptr<Region> region;
        {
            Scope setup(log, "bench.setup");
            ep.values["app.construct_s"] +=
                1e-6 * timed(log, "wdmerger.construct", [&] {
                    app = std::make_unique<wd::WdMergerApp>(config);
                });
            region = std::make_unique<Region>("wdmerger", app.get());
            region->setSyncInterval(in.options.syncInterval);
            for (AnalysisConfig ac : configs) {
                ac.provider = [](void *domain, long loc) {
                    return static_cast<wd::WdMergerApp *>(domain)
                        ->diagnostic(static_cast<wd::DiagVar>(loc));
                };
                region->addAnalysis(std::move(ac));
            }
        }
        ep.setupS += 1e-6 * (nowUs() - s0);

        LoopTimes t;
        std::vector<std::vector<double>> rows;
        const double t0 = nowUs();
        const int run = log.open("bench.run");
        long it = 0;
        while (!app->finished()) {
            Scope iteration(log, "bench.iteration");
            const double b =
                timed(log, "core.region.begin", [&] { region->begin(); });
            const double d = timed(log, "wdmerger.advance_dump",
                                   [&] { app->advanceDump(); });
            std::vector<double> row(wd::numDiagVars);
            const double g = timed(log, "wdmerger.read_diagnostics", [&] {
                for (int v = 0; v < wd::numDiagVars; ++v)
                    row[static_cast<std::size_t>(v)] =
                        app->diagnostic(static_cast<wd::DiagVar>(v));
            });
            const double e =
                timed(log, "core.region.end", [&] { region->end(); });
            bool stop = false;
            const double s = timed(log, "core.region.should_stop",
                                   [&] { stop = region->shouldStop(); });
            t.doneAtUs.push_back(nowUs() - t0);
            t.exposedUs.push_back(b + e + s);
            t.stepUs.push_back(d);
            t.gatherUs.push_back(g);
            if (stop && t.firstStop < 0)
                t.firstStop = it;
            rows.push_back(std::move(row));
            probePool(log, it, ep);
            ++it;
        }
        t.finalDrainUs = timed(log, "core.region.final_drain", [&] {
            t.regionOverheadS = region->overheadSeconds();
        });
        log.close(run);
        const double end_us = nowUs() - t0;
        ep.wallS += 1e-6 * end_us;

        ep.iterations += it;
        recordLoop(ep, t);
        const long k = std::max(trainingDoneIteration(*region), t.firstStop);
        ep.featureIters += k + 1;
        ep.featureS += 1e-6 * publishedAtUs(t, k, false, end_us);

        // Analysis iteration i observes the diagnostic recorded after
        // dump i + 1, as in wd::runWdMerger.
        std::vector<FeatureOut> raw, live;
        for (int v = 0; v < wd::numDiagVars; ++v) {
            raw.push_back(extractFeature(
                region->analysis(static_cast<std::size_t>(v)), 0.0));
            FeatureOut f = raw.back();
            f.value = (f.value + 1.0) * config.dumpInterval;
            f.truth = truthDelayTime(
                app->history(static_cast<wd::DiagVar>(v)),
                config.dumpInterval, in.options.smoothWindow);
            f.name = configs[static_cast<std::size_t>(v)].name;
            f.scored = true;
            live.push_back(f);
        }
        ep.features.insert(ep.features.end(), live.begin(), live.end());
        ep.values["app.steps"] += static_cast<double>(app->sphSteps());
        ep.probeBytes += static_cast<double>(it) * wd::numDiagVars *
                         sizeof(double);

        // ---- replay of the analyses
        const AnalysisReplay rep =
            replayAndCompare(ep, configs, rows, 0, coeffs, raw,
                             std::vector<double>(configs.size(), 0.0),
                             replay_log);
        all_records.insert(all_records.end(), rep.records.begin(),
                           rep.records.end());
    }
    // ---- the store the ensemble would write with --store (members
    // in order), replayed, read back and queried.
    const std::string path = cfg.scratchDir + "/wd_dtd.replay.tdfs";
    removeStore(path);
    replayStoreWriter(ep, all_records, coeffs, StoreOptions(), path,
                      replay_log);
    const ReadBack rb =
        readBackStore(path, kQueries, query_rng, replay_log, ep.tally);
    ep.tally.check(hashRecords(rb.records, true) ==
                       hashRecords(all_records, true),
                   "replay.store_records");
    ep.storeBytes = static_cast<double>(rb.fileBytes);
    recordReadBack(ep, rb);
    removeStore(path);

    // Single delay times can latch onto an earlier gradient change
    // (a Mass delay of 11 against a truth of 33 has been seen), so
    // the stated tolerance applies to the ensemble, as a DTD uses it.
    double err = 0.0;
    for (const FeatureOut &f : ep.features)
        err += featureErrorPct(f);
    err /= static_cast<double>(ep.features.size());
    ep.tally.check(err <= kDelayMeanTolPct, "feature.ensemble_within_tolerance",
                   "mean delay-time error " + std::to_string(err) + "%");
    ep.storeContentHash = hashRecords(all_records, true);
    double rounds = 0.0;
    for (const FeatureOut &f : ep.features)
        rounds += static_cast<double>(f.rounds);
    ep.values["core.analysis.train_rounds"] = rounds;
    return ep;
}

} // namespace

bool
parseWorkload(const std::string &name, Workload &out)
{
    for (Workload w : {Workload::CloverInsitu, Workload::BlastRanks,
                       Workload::WdDtd}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::CloverInsitu:
        return "clover_insitu";
    case Workload::BlastRanks:
        return "blast_ranks";
    case Workload::WdDtd:
        return "wd_dtd";
    }
    return "?";
}

CloverInputs
cloverInputs(std::uint64_t seed)
{
    SeedRng rng(seed);
    CloverInputs in;
    // The 2D Sedov blast is self-similar: the run takes the same
    // cycle count at any energy, so the seed moves the physics
    // without moving the cost.
    in.energy = 2.0 * (0.9 + 0.2 * rng.uniform());
    in.thresholdPct[0] = 20.0 + 20.0 * rng.uniform();
    in.thresholdPct[1] = 20.0 + 20.0 * rng.uniform();

    const long steps = in.iterations;
    const long span = std::min<long>(24, in.size - 2);
    const long t_begin = std::max<long>(4, steps / 10);
    const long t_end = std::max(t_begin + 16, (steps * 3) / 5);

    // bench/async_pipeline.cc's break-point, delay-time and
    // peak-value analyses, plus a second break-point with a wider
    // spatial lag.
    AnalysisConfig bp;
    bp.name = "breakpoint";
    bp.space = IterParam(1, span, 1);
    bp.time = IterParam(t_begin, t_end, 1);
    bp.feature = FeatureKind::BreakpointRadius;
    bp.searchEnd = in.size;
    bp.minLocation = 1;
    bp.ar.axis = LagAxis::Space;
    bp.ar.order = 3;
    bp.ar.lag = 2;
    bp.ar.batchSize = 16;
    in.analyses.push_back(bp);

    AnalysisConfig dt = bp;
    dt.name = "delay";
    dt.feature = FeatureKind::DelayTime;
    dt.featureLocation = std::min<long>(6, span);
    dt.ar.axis = LagAxis::Time;
    dt.ar.order = 4;
    dt.ar.lag = 1;
    in.analyses.push_back(dt);

    AnalysisConfig pk = bp;
    pk.name = "peak";
    pk.feature = FeatureKind::PeakValue;
    pk.featureLocation = std::min<long>(3, span);
    in.analyses.push_back(pk);

    AnalysisConfig bp2 = bp;
    bp2.name = "breakpoint-wide";
    bp2.ar.order = 4;
    bp2.ar.lag = 3;
    bp2.ar.batchSize = 32;
    in.analyses.push_back(bp2);
    return in;
}

BlastInputs
blastInputs(std::uint64_t seed)
{
    SeedRng rng(seed);
    BlastInputs in;
    in.config.size = 48;
    in.config.sedovEnergy = 2.0 * (0.9 + 0.2 * rng.uniform());
    in.thresholdPct = 5.0 + 10.0 * rng.uniform();

    // 48^3 runs 355 cycles at any blast energy (self-similar Sedov
    // solution); the analysis is bench/table4_early_termination.cc's
    // (bench_common.hh's blastAnalysis at a 0.4 training fraction
    // over half the probe line, stopping on convergence).
    const long total = 355;
    AnalysisConfig &ac = in.analysis;
    ac.name = "blast-breakpoint";
    ac.space = IterParam(1, in.config.size / 2, 1);
    const long t_begin = std::max<long>(4, total / 20);
    const long t_end = std::max<long>(t_begin + 8, (total * 2) / 5);
    ac.time = IterParam(t_begin, t_end, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.searchEnd = in.config.size;
    ac.minLocation = 1;
    ac.stopWhenConverged = true;
    ac.ar.order = 3;
    ac.ar.lag = std::max<long>(1, total / 20);
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 32;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return in;
}

WdInputs
wdInputs(std::uint64_t seed)
{
    SeedRng rng(seed);
    WdInputs in;
    in.options.instrument = true;
    in.options.trainFraction = 0.6;
    // Flat-in-log separations as in examples/ensemble_dtd.cpp,
    // stratified so that every ensemble carries one member per
    // quarter of the log range (the ensemble's cost then barely
    // depends on the seed).
    const int members = 4;
    const double a_min = 2.25;
    const double a_max = 2.6;
    for (int k = 0; k < members; ++k) {
        const double frac =
            (static_cast<double>(k) + rng.uniform()) / members;
        wd::WdMergerConfig c;
        c.resolution = 6;
        c.separation = a_min * std::pow(a_max / a_min, frac);
        c.tEnd = 60.0;
        in.runs.push_back(c);
    }
    return in;
}

Episode
runEpisode(const EpisodeConfig &config)
{
    ::mkdir(config.scratchDir.c_str(), 0755);
    switch (config.workload) {
    case Workload::CloverInsitu:
        return runClover(config);
    case Workload::BlastRanks:
        return runBlast(config);
    case Workload::WdDtd:
        return runWd(config);
    }
    return Episode();
}

bool
sameOutputs(const Episode &a, const Episode &b)
{
    if (a.features.size() != b.features.size() ||
        a.iterations != b.iterations ||
        a.featureIters != b.featureIters ||
        a.storeContentHash != b.storeContentHash)
        return false;
    for (std::size_t i = 0; i < a.features.size(); ++i) {
        const FeatureOut &x = a.features[i];
        const FeatureOut &y = b.features[i];
        if (x.value != y.value || x.truth != y.truth ||
            x.convergedIteration != y.convergedIteration ||
            x.rounds != y.rounds)
            return false;
    }
    for (const char *count :
         {"app.steps", "core.analysis.train_rounds",
          "store.writer.records", "store.writer.blocks"}) {
        const auto ia = a.values.find(count);
        const auto ib = b.values.find(count);
        if ((ia == a.values.end()) != (ib == b.values.end()) ||
            (ia != a.values.end() && ia->second != ib->second))
            return false;
    }
    return true;
}

double
featureErrorPct(const FeatureOut &f)
{
    if (!f.scored)
        return 0.0;
    const double base = std::fabs(f.truth) > 0.0 ? std::fabs(f.truth) : 1.0;
    return 100.0 * std::fabs(f.value - f.truth) / base;
}

} // namespace perfbench
