#include "checks.hh"

#include <algorithm>
#include <fstream>
#include <iterator>

#include "store/reader.hh"

namespace perfbench
{

using tdfe::FeatureRecord;

bool
Tally::check(bool ok, const std::string &name,
             const std::string &detail)
{
    ++checks;
    ++made[name];
    if (!ok) {
        ++checkFailures;
        ++failedByName[name];
        if (messages.size() < 8)
            messages.push_back(name + (detail.empty() ? "" : ": ") +
                               detail);
    }
    return ok;
}

void
Tally::merge(const Tally &other)
{
    checks += other.checks;
    checkFailures += other.checkFailures;
    appends += other.appends;
    dropped += other.dropped;
    for (const auto &kv : other.made)
        made[kv.first] += kv.second;
    for (const auto &kv : other.failedByName)
        failedByName[kv.first] += kv.second;
    for (const std::string &m : other.messages)
        if (messages.size() < 8)
            messages.push_back(m);
}

std::uint64_t
hashRecord(const FeatureRecord &r, bool content, std::uint64_t h)
{
    const long ints[2] = {r.iteration, r.analysis};
    h = fnv1a(ints, sizeof ints, h);
    const double dbls[3] = {r.wavefront, r.predicted, r.mse};
    h = fnv1a(dbls, sizeof dbls, h);
    h = fnv1a(r.coeffs.data(), r.coeffs.size() * sizeof(double), h);
    if (!content) {
        const long stop = r.stop ? 1 : 0;
        h = fnv1a(&stop, sizeof stop, h);
        h = fnv1a(&r.wallTime, sizeof r.wallTime, h);
    }
    return h;
}

std::uint64_t
hashRecords(const std::vector<FeatureRecord> &rs, bool content)
{
    std::uint64_t h = fnv1a(nullptr, 0);
    for (const FeatureRecord &r : rs)
        h = hashRecord(r, content, h);
    return h;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

namespace
{

/** A random but valid query over @p all (seeded): an iteration
 *  window of ~10% of the run, alternately restricted to one
 *  analysis or to records whose mse lies under a sampled value. */
tdfe::EventFilter
drawFilter(const std::vector<FeatureRecord> &all, int q, SeedRng &rng)
{
    long lo_it = all.front().iteration, hi_it = lo_it;
    long max_analysis = 0;
    for (const FeatureRecord &r : all) {
        lo_it = std::min(lo_it, r.iteration);
        hi_it = std::max(hi_it, r.iteration);
        max_analysis = std::max(max_analysis, r.analysis);
    }
    const long span = std::max<long>(1, (hi_it - lo_it) / 10);
    const long begin =
        lo_it + static_cast<long>(rng.uniform() *
                                  static_cast<double>(hi_it - lo_it + 1));
    tdfe::EventFilter f;
    f.iterRange(begin, begin + span);
    if (q % 2 == 0) {
        f.analysisIs(static_cast<long>(
            rng.uniform() * static_cast<double>(max_analysis + 1)));
    } else {
        const FeatureRecord &pick = all[static_cast<std::size_t>(
            rng.uniform() * static_cast<double>(all.size()))];
        tdfe::MetricPredicate p;
        p.column = tdfe::metricColumnIndex("mse");
        p.op = tdfe::PredOp::Le;
        p.value = pick.mse;
        f.where(p);
    }
    return f;
}

} // namespace

ReadBack
readBackStore(const std::string &path, int queries, SeedRng &rng,
              SpanLog &log, Tally &tally)
{
    ReadBack out;
    std::unique_ptr<tdfe::FeatureStoreReader> reader;
    std::string error;
    timed(log, "store.reader.open", [&] {
        reader = tdfe::FeatureStoreReader::open(path, &error);
    });
    if (!tally.check(reader != nullptr, "store.open", error))
        return out;
    out.blocks = reader->blockCount();
    out.fileBytes = reader->fileBytes();
    std::string detail;
    tally.check(reader->verify(&detail), "store.verify", detail);

    out.scanUs = timed(log, "store.reader.scan", [&] {
        FeatureRecord rec;
        auto cursor = reader->cursor();
        while (cursor.next(rec))
            out.records.push_back(rec);
    });
    tally.check(out.records.size() == reader->recordCount(),
                "store.scan_count");
    if (out.records.empty())
        return out;

    std::size_t decoded = 0;
    for (int q = 0; q < queries; ++q) {
        const tdfe::EventFilter filter = drawFilter(out.records, q, rng);
        std::vector<FeatureRecord> got;
        std::size_t blocks = 0;
        out.queryUs.push_back(timed(log, "store.reader.query", [&] {
            tdfe::QueryCursor cursor(*reader, filter);
            FeatureRecord rec;
            while (cursor.next(rec))
                got.push_back(rec);
            blocks = cursor.blocksDecoded();
        }));
        decoded += blocks;
        std::vector<FeatureRecord> want;
        for (const FeatureRecord &r : out.records)
            if (filter.matches(r))
                want.push_back(r);
        tally.check(got.size() == want.size() &&
                        hashRecords(got, false) ==
                            hashRecords(want, false),
                    "store.query_equals_scan",
                    std::to_string(got.size()) + " vs " +
                        std::to_string(want.size()) + " records");
    }
    if (queries > 0 && out.blocks > 0) {
        out.queryDecodedFrac =
            static_cast<double>(decoded) /
            static_cast<double>(out.blocks * static_cast<std::size_t>(
                                                 queries));
    }
    return out;
}

namespace
{

/** The replay's provider domain: the probe row of the iteration
 *  being snapshotted. */
struct ReplayRow
{
    const std::vector<double> *row = nullptr;
    long base = 0;
};

} // namespace

AnalysisReplay
replayAnalyses(std::vector<tdfe::AnalysisConfig> configs,
               const std::vector<std::vector<double>> &rows,
               long loc_base, std::size_t coeff_count, SpanLog &log)
{
    AnalysisReplay out;
    for (tdfe::AnalysisConfig &cfg : configs) {
        cfg.provider = [](void *domain, long loc) {
            const auto *r = static_cast<const ReplayRow *>(domain);
            return (*r->row)[static_cast<std::size_t>(loc - r->base)];
        };
        out.analyses.push_back(
            std::make_unique<tdfe::CurveFitAnalysis>(std::move(cfg)));
    }
    const std::size_t n = out.analyses.size();
    out.records.reserve(rows.size() * n);
    FeatureRecord rec;
    rec.coeffs.assign(coeff_count, 0.0);
    ReplayRow domain;
    domain.base = loc_base;
    for (std::size_t it = 0; it < rows.size(); ++it) {
        domain.row = &rows[it];
        const long iter = static_cast<long>(it);
        for (std::size_t a = 0; a < n; ++a) {
            tdfe::CurveFitAnalysis &an = *out.analyses[a];
            out.snapshotUs.push_back(
                timed(log, "core.analysis.snapshot",
                      [&] { an.snapshotIteration(iter, &domain); }));
            const std::size_t before = an.trainingRounds();
            const double us = timed(log, "core.analysis.digest",
                                    [&] { an.digestIteration(); });
            out.digestUs.push_back(us);
            if (an.trainingRounds() != before)
                out.trainRoundUs.push_back(us);
        }
        for (std::size_t a = 0; a < n; ++a) {
            rec.iteration = iter;
            rec.analysis = static_cast<long>(a);
            out.analyses[a]->fillFeatureRecord(rec);
            out.records.push_back(rec);
        }
    }
    return out;
}

WriterReplay
replayWriter(const std::vector<FeatureRecord> &records,
             std::size_t coeff_count, const tdfe::StoreOptions &options,
             const std::string &path, SpanLog &log)
{
    WriterReplay out;
    tdfe::StoreSchema schema;
    schema.coeffCount = coeff_count;
    tdfe::FeatureStoreWriter writer(path, schema, options);
    out.appendUs.reserve(records.size());
    for (const FeatureRecord &r : records) {
        const std::size_t sealed = writer.blocksSealed();
        const double us = timed(log, "store.writer.append",
                                [&] { writer.append(r); });
        out.appendUs.push_back(us);
        if (writer.blocksSealed() != sealed)
            out.sealAppendUs.push_back(us);
    }
    out.finishMs =
        1e-3 * timed(log, "store.writer.finish",
                     [&] { out.bytes = writer.finish(); });
    out.records = writer.recordCount();
    out.blocks = writer.blocksSealed();
    out.dropped = writer.droppedRecords();
    return out;
}

} // namespace perfbench
