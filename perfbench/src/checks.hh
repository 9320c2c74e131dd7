/**
 * @file
 * Output checks and layer replays. Every check an episode makes is
 * counted here (failed_ops_frac = dropped appends plus failed
 * checks over appends plus checks); the replays re-drive the
 * core.analysis and store.writer layers with the live run's inputs
 * on the bench thread, which both times those layers in isolation
 * and proves they reproduce the live run bitwise.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/analysis.hh"
#include "store/query.hh"
#include "store/writer.hh"

#include "recorder.hh"

namespace perfbench
{

/** Counts behind `attempted`, `failed` and failed_ops_frac. */
struct Tally
{
    long checks = 0;
    long checkFailures = 0;
    long appends = 0;
    long dropped = 0;
    /** Checks made and failed, by name. */
    std::map<std::string, long> made;
    std::map<std::string, long> failedByName;
    /** First failure messages (at most a few). */
    std::vector<std::string> messages;

    /** Count one check named @p name; @return @p ok. */
    bool check(bool ok, const std::string &name,
               const std::string &detail = "");

    void merge(const Tally &other);
};

/** Hash of one record's columns. The stop flag and wall time are
 *  left out of the "content" hash: both are protocol/timing state
 *  the region stamps at append time, not analysis output. */
std::uint64_t hashRecord(const tdfe::FeatureRecord &r, bool content,
                         std::uint64_t h);

std::uint64_t hashRecords(const std::vector<tdfe::FeatureRecord> &rs,
                          bool content);

/** Whole file as bytes ("" when unreadable). */
std::string readFile(const std::string &path);

/**
 * Read a finished store back: open (span store.reader.open),
 * verify, full scan (store.reader.scan), then @p queries
 * QueryCursor queries drawn from @p rng, each compared with the
 * same filter applied to the full scan (spans store.reader.query).
 */
struct ReadBack
{
    std::vector<tdfe::FeatureRecord> records;
    std::size_t blocks = 0;
    std::size_t fileBytes = 0;
    double scanUs = 0.0;
    std::vector<double> queryUs;
    /** Blocks decoded by the queries over blocks x queries. */
    double queryDecodedFrac = 0.0;
};

ReadBack readBackStore(const std::string &path, int queries,
                       SeedRng &rng, SpanLog &log, Tally &tally);

/** Replay of recorded probe rows into fresh analyses. */
struct AnalysisReplay
{
    /** The replayed analyses, ready for feature extraction. */
    std::vector<std::unique_ptr<tdfe::CurveFitAnalysis>> analyses;
    /** One record per (iteration, analysis), as the region's store
     *  sink would append them (stop and wall time left zero). */
    std::vector<tdfe::FeatureRecord> records;
    std::vector<double> snapshotUs;
    std::vector<double> digestUs;
    std::vector<double> trainRoundUs;
};

/**
 * Drive fresh CurveFitAnalysis objects with @p rows (row i is the
 * probe data the live providers saw at iteration i; location l maps
 * to rows[i][l - @p loc_base]). Spans core.analysis.snapshot /
 * digest land in @p log. The configs' providers are replaced.
 */
AnalysisReplay replayAnalyses(
    std::vector<tdfe::AnalysisConfig> configs,
    const std::vector<std::vector<double>> &rows, long loc_base,
    std::size_t coeff_count, SpanLog &log);

/** Replay of records into a fresh FeatureStoreWriter. */
struct WriterReplay
{
    /** Every append, and the appends that sealed a block. */
    std::vector<double> appendUs;
    std::vector<double> sealAppendUs;
    double finishMs = 0.0;
    std::size_t records = 0;
    std::size_t blocks = 0;
    std::size_t bytes = 0;
    std::size_t dropped = 0;
};

WriterReplay replayWriter(const std::vector<tdfe::FeatureRecord> &records,
                          std::size_t coeff_count,
                          const tdfe::StoreOptions &options,
                          const std::string &path, SpanLog &log);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
