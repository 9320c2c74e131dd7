/**
 * @file
 * Crash-safe checkpoint/restart: long-running HPC jobs are routinely
 * killed at queue limits and resumed from application checkpoints.
 * The resilient harness does the whole loop: periodic CRC-framed
 * checkpoint generations written atomically (tmp + fsync + rename,
 * rotated keep-N), an injected mid-run "kill", and an auto-resume
 * supervisor that restores the newest valid generation and carries
 * on. The example verifies the paper-facing invariant: the crashed
 * and resumed run extracts the same feature over the same number of
 * iterations as an uninterrupted one, and — with --store — the
 * stitched feature store is record-identical too.
 *
 * Flags (beyond the shared --threads/--store family):
 *   --ckpt <prefix>       checkpoint path prefix
 *                         (default blast_region, cwd)
 *   --ckpt-every <n>      iterations between generations (default 5)
 *   --ckpt-keep <n>       generations kept (default 3)
 *   --ckpt-durability <p> none | flush | fsync
 *   --keep-ckpt           leave the generations + manifest on disk
 *                         (scripts/check_build.sh inspects them with
 *                         `tdfstool ckpt-info`)
 *   --tear-newest         tear the final pre-crash generation
 *                         mid-payload (FaultyFile) so the resume has
 *                         to fall back to the previous good one
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "base/cli.hh"
#include "blastapp/runner.hh"
#include "ckpt/checkpoint.hh"
#include "store/file.hh"
#include "store/reader.hh"

using namespace tdfe;
using namespace tdfe::blast;

namespace
{

/** Consume a boolean flag from argv (true when present). */
bool
stripFlag(int &argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) != 0)
            continue;
        for (int j = i; j + 1 < argc; ++j)
            argv[j] = argv[j + 1];
        --argc;
        return true;
    }
    return false;
}

/** Shared analysis of the reference and the resilient run. */
RunOptions
instrumentedOptions(long total_iters)
{
    RunOptions o;
    o.instrument = true;
    o.analysis.space = IterParam(1, 8, 1);
    o.analysis.time =
        IterParam(total_iters / 20, (total_iters * 2) / 5, 1);
    o.analysis.feature = FeatureKind::BreakpointRadius;
    o.analysis.threshold = 0.05;
    o.analysis.searchEnd = 12;
    o.analysis.minLocation = 1;
    o.analysis.ar.axis = LagAxis::Space;
    o.analysis.ar.order = 3;
    o.analysis.ar.lag = 2;
    o.analysis.ar.batchSize = 16;
    return o;
}

/** Record count of a finished store (0 when unreadable). */
std::size_t
recordCount(const std::string &path)
{
    std::string error;
    auto reader = FeatureStoreReader::open(path, &error);
    return reader ? reader->recordCount() : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    applyThreadsFlag(argc, argv);
    const StoreCliOptions storeCli = applyStoreFlags(argc, argv);
    CkptCliOptions ckptCli = applyCkptFlags(argc, argv);
    const ObsCliOptions obsCli = applyObsFlags(argc, argv);
    const bool keep_ckpt = stripFlag(argc, argv, "--keep-ckpt");
    const bool tear_newest = stripFlag(argc, argv, "--tear-newest");
    if (ckptCli.path.empty())
        ckptCli.path = "blast_region";
    if (ckptCli.every <= 0)
        ckptCli.every = 5;

    BlastConfig config;
    config.size = 12;

    // Dry run to size the analysis windows, as in the other
    // examples.
    long total = 0;
    {
        const RunResult bare =
            runBlast(config, nullptr, RunOptions());
        total = bare.iterations;
    }

    // Reference: uninterrupted instrumented run, no checkpoints.
    RunOptions ref_opts = instrumentedOptions(total);
    applyCliOptions(ref_opts, storeCli, CkptCliOptions(), obsCli);
    if (!storeCli.path.empty())
        ref_opts.storePath = storeCli.path + ".reference";
    const RunResult ref = runBlast(config, nullptr, ref_opts);
    std::printf("uninterrupted: %ld iterations, radius %.0f\n",
                ref.iterations, ref.featureValue);

    // Crashed run: the supervisor checkpoints every --ckpt-every
    // iterations, the test seam kills the attempt halfway (no final
    // checkpoint, exactly like a SIGKILL), and the retry restores
    // the newest valid generation. --tear-newest additionally tears
    // the last pre-crash generation mid-payload, so the restore must
    // fall back to the previous good one — at the cost of replaying
    // a few more iterations, never of correctness.
    RunOptions res_opts = instrumentedOptions(total);
    applyCliOptions(res_opts, storeCli, ckptCli, obsCli);
    res_opts.haltAfterIterations = total / 2;
    const std::uint64_t torn_gen = static_cast<std::uint64_t>(
        (total / 2 / ckptCli.every) * ckptCli.every);
    if (tear_newest) {
        res_opts.ckptWriteHook = [torn_gen](std::uint64_t iteration,
                                            ckpt::WriteOptions &w) {
            if (iteration != torn_gen)
                return;
            w.wrapFile = [](std::unique_ptr<store::StoreFile> f) {
                store::FaultPlan plan;
                plan.kind = store::FaultPlan::Kind::Crash;
                plan.atByte = 36 + 40; // mid-payload
                return std::unique_ptr<store::StoreFile>(
                    new store::FaultyFile(std::move(f), plan));
            };
        };
    }

    const RunResult res =
        runBlastResilient(config, nullptr, res_opts);
    std::printf("crashed at iteration %ld, resumed from %ld "
                "(%d restart%s, %ld generations written)\n",
                total / 2, res.resumedFromIteration, res.restarts,
                res.restarts == 1 ? "" : "s",
                res.checkpointsWritten);
    if (tear_newest)
        std::printf("torn generation %llu skipped: resume fell back "
                    "to an older valid one\n",
                    static_cast<unsigned long long>(torn_gen));
    std::printf("resumed: %ld iterations, radius %.0f\n",
                res.iterations, res.featureValue);

    bool identical = res.iterations == ref.iterations &&
                     res.featureValue == ref.featureValue &&
                     res.validationMse == ref.validationMse;
    if (tear_newest && res.resumedFromIteration >= 0)
        identical = identical &&
                    res.resumedFromIteration <
                        static_cast<long>(torn_gen);
    if (!storeCli.path.empty()) {
        const std::size_t ref_records =
            recordCount(storeCli.path + ".reference");
        const std::size_t res_records = recordCount(storeCli.path);
        std::printf("feature stores: reference %zu records, "
                    "stitched %zu records\n",
                    ref_records, res_records);
        identical = identical && ref_records == res_records &&
                    ref_records > 0;
    }
    std::printf("resumed run identical to uninterrupted run: %s\n",
                identical ? "yes" : "NO");

    if (!keep_ckpt) {
        for (const ckpt::Generation &g :
             ckpt::listGenerations(ckptCli.path))
            std::remove(g.path.c_str());
        std::remove((ckptCli.path + ".manifest").c_str());
    }
    finishObsOptions(obsCli);
    return identical ? 0 : 1;
}
