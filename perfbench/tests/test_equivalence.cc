/**
 * @file
 * The benchmark measures what the library's own harnesses run: its
 * hand-driven loops for blast_ranks and wd_dtd give bitwise the
 * results of blast::runBlast / wd::runWdMerger with the same
 * options, its layer replays reproduce the live runs, and one seed
 * always yields the same exact outputs.
 *
 *   python3 perfbench/run.py --test
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/stat.h>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "blastapp/runner.hh"
#include "par/thread_comm.hh"
#include "store/reader.hh"
#include "wdmerger/runner.hh"

#include "checks.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

const std::string kDir = ".bench_build/perfbench/test";

EpisodeConfig
config(Workload w, std::uint64_t seed)
{
    tdfe::setLogQuiet(true);
    EpisodeConfig c;
    c.workload = w;
    c.seed = seed;
    c.scratchDir = kDir;
    ::mkdir(".bench_build", 0755);
    ::mkdir(".bench_build/perfbench", 0755);
    return c;
}

std::vector<tdfe::FeatureRecord>
readAll(const std::string &path)
{
    std::vector<tdfe::FeatureRecord> out;
    auto reader = tdfe::FeatureStoreReader::open(path);
    if (!reader)
        return out;
    tdfe::FeatureRecord rec;
    auto cursor = reader->cursor();
    while (cursor.next(rec))
        out.push_back(rec);
    return out;
}

void
expectClean(const Episode &ep)
{
    EXPECT_EQ(ep.tally.checkFailures, 0);
    EXPECT_EQ(ep.tally.dropped, 0);
    for (const std::string &m : ep.tally.messages)
        ADD_FAILURE() << m;
}

} // namespace

TEST(Equivalence, BlastLoopMatchesRunBlast)
{
    const std::uint64_t seed = 3;
    const Episode ep = runEpisode(config(Workload::BlastRanks, seed));
    expectClean(ep);
    ASSERT_EQ(ep.features.size(), 1u);

    const BlastInputs in = blastInputs(seed);
    tdfe::setGlobalThreadCount(in.threads);
    const std::string path = kDir + "/blast_reference.tdfs";
    std::remove(path.c_str());
    std::vector<tdfe::blast::RunResult> results(
        static_cast<std::size_t>(in.ranks));
    tdfe::ThreadCommWorld world(in.ranks);
    world.run([&](tdfe::Communicator &comm) {
        tdfe::blast::RunOptions opt;
        opt.instrument = true;
        opt.analysis = in.analysis;
        opt.analysis.threshold = ep.features[0].threshold;
        opt.syncInterval = in.syncInterval;
        opt.storePath = path;
        results[static_cast<std::size_t>(comm.rank())] =
            tdfe::blast::runBlast(in.config, &comm, opt);
    });
    for (const tdfe::blast::RunResult &r : results) {
        EXPECT_EQ(r.iterations, ep.iterations);
        EXPECT_EQ(r.featureValue, ep.features[0].value);
        EXPECT_EQ(r.convergedIteration, ep.features[0].convergedIteration);
    }
    const auto records = readAll(path);
    EXPECT_EQ(records.size(),
              static_cast<std::size_t>(ep.iterations * in.ranks));
    EXPECT_EQ(hashRecords(records, true), ep.storeContentHash);
    std::remove(path.c_str());
}

TEST(Equivalence, WdLoopMatchesRunWdMerger)
{
    const std::uint64_t seed = 5;
    const Episode ep = runEpisode(config(Workload::WdDtd, seed));
    expectClean(ep);

    const WdInputs in = wdInputs(seed);
    tdfe::setGlobalThreadCount(4);
    ASSERT_EQ(ep.features.size(), in.runs.size() * tdfe::wd::numDiagVars);
    const std::string path = kDir + "/wd_reference.tdfs";
    std::vector<tdfe::FeatureRecord> records;
    double sph_steps = 0.0;
    for (std::size_t m = 0; m < in.runs.size(); ++m) {
        tdfe::wd::WdRunOptions opt = in.options;
        opt.storePath = path;
        std::remove(path.c_str());
        const tdfe::wd::WdRunResult r =
            tdfe::wd::runWdMerger(in.runs[m], nullptr, opt);
        for (int v = 0; v < tdfe::wd::numDiagVars; ++v) {
            const FeatureOut &f =
                ep.features[m * tdfe::wd::numDiagVars +
                            static_cast<std::size_t>(v)];
            EXPECT_EQ(r.delayTime[static_cast<std::size_t>(v)], f.value);
            EXPECT_EQ(r.convergedIteration[static_cast<std::size_t>(v)],
                      f.convergedIteration);
        }
        sph_steps += static_cast<double>(r.sphSteps);
        const auto part = readAll(path);
        records.insert(records.end(), part.begin(), part.end());
    }
    EXPECT_EQ(sph_steps, ep.values.at("app.steps"));
    EXPECT_EQ(hashRecords(records, true), ep.storeContentHash);
    std::remove(path.c_str());
}

TEST(Equivalence, ReplaysReproduceTheLiveRun)
{
    // The in-run checks compare each replay with the live run:
    // features, rounds and convergence (replay.analysis), record
    // content (replay.store_records) and store bytes
    // (replay.store_bytes, replay.merge_bytes).
    const Episode clover = runEpisode(config(Workload::CloverInsitu, 7));
    expectClean(clover);
    EXPECT_EQ(clover.tally.made.at("replay.analysis"), 4);
    EXPECT_EQ(clover.tally.made.at("replay.store_records"), 1);
    EXPECT_EQ(clover.tally.made.at("replay.store_bytes"), 1);
    EXPECT_EQ(clover.tally.made.at("store.tail_exactly_once_in_order"), 1);

    const Episode blast = runEpisode(config(Workload::BlastRanks, 7));
    expectClean(blast);
    EXPECT_EQ(blast.tally.made.at("replay.analysis"), 1);
    EXPECT_EQ(blast.tally.made.at("replay.store_bytes"), 1);
    EXPECT_EQ(blast.tally.made.at("replay.merge_bytes"), 1);
}

TEST(Seeds, OneSeedRepeatsExactlyAndAnotherRunsClean)
{
    const Episode a = runEpisode(config(Workload::CloverInsitu, 11));
    const Episode b = runEpisode(config(Workload::CloverInsitu, 11));
    expectClean(a);
    EXPECT_TRUE(sameOutputs(a, b));
    EXPECT_EQ(a.probeBytes, b.probeBytes);

    const Episode c = runEpisode(config(Workload::CloverInsitu, 12));
    expectClean(c);
    EXPECT_NE(cloverInputs(11).energy, cloverInputs(12).energy);
}
