/**
 * @file
 * insitu_bench: runs one workload for a fixed time and prints every
 * metric by name with its unit, then one JSON line with all of them.
 *
 *   insitu_bench --workload clover_insitu --seed 1 --seconds 20
 *                --trace 0|1 [--trace-out file] [--scratch dir]
 *
 * --trace 0 measures the end-to-end metrics: episodes run back to
 * back until --seconds elapse; timings are medians over episodes
 * (for the exposed percentiles: of each episode's percentile), and
 * deterministic outputs come from the first measured episode and
 * must repeat exactly in every other. --trace 1 alternates untraced and traced
 * episodes of the same loop; the traced ones give the per-layer
 * metrics and the Chrome trace, the pair gives the tracing overhead.
 * One warm-up episode runs first and only its checks count.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "base/logging.hh"

#include "recorder.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Args
{
    Workload workload = Workload::CloverInsitu;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceOut;
    std::string scratch = ".bench_build/perfbench/run";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "insitu_bench: %s\nusage: insitu_bench --workload "
                 "clover_insitu|blast_ranks|wd_dtd --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--scratch DIR]\n",
                 why);
    std::exit(2);
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        double num = 0.0;
        if (flag == "--workload") {
            if (!parseWorkload(value, a.workload))
                usage("unknown workload");
            have_workload = true;
        } else if (flag == "--seed") {
            if (!parseNumber(value, num) || num < 0 ||
                num != std::floor(num))
                usage("--seed takes a non-negative integer");
            a.seed = static_cast<std::uint64_t>(num);
        } else if (flag == "--seconds") {
            if (!parseNumber(value, num) || num <= 0 || num > 600)
                usage("--seconds takes a number in (0, 600]");
            a.seconds = num;
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") && std::strcmp(value, "1"))
                usage("--trace takes 0 or 1");
            a.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else if (flag == "--scratch") {
            a.scratch = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

std::vector<double>
pooled(const std::vector<Episode> &eps, const std::string &key)
{
    std::vector<double> out;
    for (const Episode &e : eps) {
        const auto it = e.samples.find(key);
        if (it != e.samples.end())
            out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
}

std::vector<double>
perEpisode(const std::vector<Episode> &eps, const std::string &key)
{
    std::vector<double> out;
    for (const Episode &e : eps) {
        const auto it = e.values.find(key);
        if (it != e.values.end())
            out.push_back(it->second);
    }
    return out;
}

std::vector<double>
spans(const std::vector<Episode> &eps, const std::string &name)
{
    std::vector<double> out;
    for (const Episode &e : eps) {
        const std::vector<double> d = spanDurations(e.logs, name);
        out.insert(out.end(), d.begin(), d.end());
    }
    return out;
}

void
endToEnd(const std::vector<Episode> &eps, MetricSet &m)
{
    std::vector<double> setup, wall, feature, overhead, reduction;
    std::vector<double> exposed50, exposed99;
    std::size_t samples = 0;
    for (const Episode &e : eps) {
        setup.push_back(e.setupS);
        wall.push_back(e.wallS);
        feature.push_back(e.featureS);
        overhead.push_back(e.solverSumUs > 0.0
                               ? 100.0 * e.exposedSumUs / e.solverSumUs
                               : 0.0);
        reduction.push_back(e.storeBytes > 0.0
                                ? e.probeBytes / e.storeBytes
                                : 0.0);
        // Percentiles per episode, then the median episode: a host
        // stall that hits one episode moves its tail, not the run's.
        exposed50.push_back(quantile(e.exposedUs, 0.50));
        exposed99.push_back(quantile(e.exposedUs, 0.99));
        samples += e.exposedUs.size();
    }
    const Episode &first = eps.front();
    double err = 0.0;
    int scored = 0;
    for (const FeatureOut &f : first.features) {
        if (f.scored) {
            err += featureErrorPct(f);
            ++scored;
        }
    }
    err = scored ? err / scored : 0.0;

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);

    m.set("setup_s", median(setup), "s");
    m.set("wall_s", median(wall), "s");
    m.set("time_to_feature_s", median(feature), "s");
    m.set("feature_iter_frac",
          static_cast<double>(first.featureIters) /
              static_cast<double>(first.iterations),
          "fraction");
    m.set("exposed_us_p50", median(exposed50), "us");
    m.set("exposed_us_p99", median(exposed99), "us");
    m.set("overhead_pct", median(overhead), "%");
    m.set("feature_accuracy_pct", 100.0 - err, "%");
    m.set("feature_error_pct", err, "%");
    m.set("data_reduction_x", median(reduction), "x");
    m.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
          "MB");
    m.set("iterations_per_episode", static_cast<double>(first.iterations),
          "count");
    m.set("exposed_samples", static_cast<double>(samples), "count");
    m.set("episodes", static_cast<double>(eps.size()), "count");
}

void
perLayer(Workload w, const std::vector<Episode> &traced,
         const std::vector<Episode> &untraced, MetricSet &m)
{
    auto p = [](std::vector<double> v, double q) {
        return quantile(std::move(v), q);
    };
    const Episode &first = traced.front();
    auto value = [&](const char *key) {
        const auto it = first.values.find(key);
        return it == first.values.end() ? 0.0 : it->second;
    };

    m.set("base.pool.dispatch_us_p50",
          p(pooled(traced, "base.pool.dispatch_us"), 0.5), "us");
    m.set("base.pool.dispatch_us_p99",
          p(pooled(traced, "base.pool.dispatch_us"), 0.99), "us");
    m.set("base.pool.submit_start_us_p50",
          p(pooled(traced, "base.pool.submit_start_us"), 0.5), "us");

    m.set("app.construct_s", median(perEpisode(traced, "app.construct_s")),
          "s");
    m.set("app.step_us_p50", p(pooled(traced, "app.step_us"), 0.5), "us");
    m.set("app.step_us_p99", p(pooled(traced, "app.step_us"), 0.99), "us");
    m.set("app.probe_gather_us_p50",
          p(pooled(traced, "app.probe_gather_us"), 0.5), "us");
    m.set("app.steps", value("app.steps"), "count");

    m.set("core.region.begin_us_p50",
          p(spans(traced, "core.region.begin"), 0.5), "us");
    m.set("core.region.end_us_p50", p(spans(traced, "core.region.end"), 0.5),
          "us");
    m.set("core.region.end_us_p99",
          p(spans(traced, "core.region.end"), 0.99), "us");
    m.set("core.region.should_stop_us_p50",
          p(spans(traced, "core.region.should_stop"), 0.5), "us");
    m.set("core.region.should_stop_us_p99",
          p(spans(traced, "core.region.should_stop"), 0.99), "us");
    m.set("core.region.final_drain_us",
          median(pooled(traced, "core.region.final_drain_us")), "us");
    double region_us = 0.0, exposed_us = 0.0;
    for (const Episode &e : traced) {
        region_us += e.regionOverheadUs;
        exposed_us += e.exposedSumUs;
    }
    m.set("core.region.overhead_ratio",
          exposed_us > 0.0 ? region_us / exposed_us : 0.0, "ratio");

    m.set("core.analysis.snapshot_us_p50",
          p(pooled(traced, "core.analysis.snapshot_us"), 0.5), "us");
    m.set("core.analysis.digest_us_p50",
          p(pooled(traced, "core.analysis.digest_us"), 0.5), "us");
    m.set("core.analysis.train_round_us_p50",
          p(pooled(traced, "core.analysis.train_round_us"), 0.5), "us");
    m.set("core.analysis.train_round_us_p99",
          p(pooled(traced, "core.analysis.train_round_us"), 0.99), "us");
    m.set("core.analysis.extract_us",
          median(perEpisode(traced, "core.analysis.extract_us")), "us");
    m.set("core.analysis.train_rounds", value("core.analysis.train_rounds"),
          "count");

    m.set("store.writer.append_us_p50",
          p(pooled(traced, "store.writer.append_us"), 0.5), "us");
    m.set("store.writer.seal_append_us_p50",
          p(pooled(traced, "store.writer.seal_append_us"), 0.5), "us");
    m.set("store.writer.finish_ms",
          median(perEpisode(traced, "store.writer.finish_ms")), "ms");
    m.set("store.writer.records", value("store.writer.records"), "count");
    m.set("store.writer.blocks", value("store.writer.blocks"), "count");
    m.set("store.writer.bytes", value("store.writer.bytes"), "bytes");
    m.set("store.reader.scan_mrec_per_s",
          median(pooled(traced, "store.reader.scan_mrec_per_s")),
          "Mrec/s");
    m.set("store.reader.query_us_p50",
          p(pooled(traced, "store.reader.query_us"), 0.5), "us");
    m.set("store.reader.query_blocks_decoded_frac",
          median(pooled(traced, "store.reader.query_blocks_decoded_frac")),
          "fraction");

    std::vector<double> traced_wall, plain_wall, unaccounted;
    for (const Episode &e : traced) {
        traced_wall.push_back(e.wallS);
        unaccounted.push_back(unaccountedPct(e.logs));
    }
    for (const Episode &e : untraced)
        plain_wall.push_back(e.wallS);
    m.set("bench.trace_overhead_pct",
          100.0 * (median(traced_wall) / median(plain_wall) - 1.0), "%");
    m.set("bench.unaccounted_pct", median(unaccounted), "%");

    // The layers only one workload has; named after their module.
    switch (w) {
    case Workload::CloverInsitu:
        m.set("clover2d.timestep_us_p50",
              p(spans(traced, "clover2d.timestep"), 0.5), "us");
        m.set("clover2d.hydro_cycle_us_p50",
              p(spans(traced, "clover2d.hydro_cycle"), 0.5), "us");
        m.set("clover2d.hydro_cycle_us_p99",
              p(spans(traced, "clover2d.hydro_cycle"), 0.99), "us");
        m.set("clover2d.gather_probes_us_p50",
              p(spans(traced, "clover2d.gather_probes"), 0.5), "us");
        m.set("store.writer.exposed_ms",
              median(perEpisode(traced, "store.writer.exposed_ms")), "ms");
        m.set("store.live.tail_poll_us_p50",
              p(pooled(traced, "store.live.tail_poll_us"), 0.5), "us");
        m.set("store.live.tail_lag_records_p50",
              p(pooled(traced, "store.live.tail_lag_records"), 0.5),
              "records");
        m.set("store.live.publishes", value("store.live.publishes"),
              "count");
        break;
    case Workload::BlastRanks:
        m.set("blastapp.time_increment_us_p50",
              p(spans(traced, "blastapp.time_increment"), 0.5), "us");
        m.set("blastapp.leapfrog_ms_p50",
              1e-3 * p(spans(traced, "blastapp.leapfrog"), 0.5), "ms");
        m.set("blastapp.gather_probes_us_p50",
              p(spans(traced, "blastapp.gather_probes"), 0.5), "us");
        m.set("blastapp.rank_skew_pct",
              median(perEpisode(traced, "blastapp.rank_skew_pct")), "%");
        m.set("blastapp.cycles", value("app.steps"), "count");
        m.set("par.merge_ms", median(perEpisode(traced, "par.merge_ms")),
              "ms");
        m.set("store.writer.exposed_ms",
              median(perEpisode(traced, "store.writer.exposed_ms")), "ms");
        break;
    case Workload::WdDtd:
        m.set("wdmerger.construct_s",
              median(perEpisode(traced, "app.construct_s")), "s");
        m.set("wdmerger.advance_dump_ms_p50",
              1e-3 * p(spans(traced, "wdmerger.advance_dump"), 0.5), "ms");
        m.set("wdmerger.advance_dump_ms_p99",
              1e-3 * p(spans(traced, "wdmerger.advance_dump"), 0.99), "ms");
        m.set("wdmerger.sph_steps", value("app.steps"), "count");
        break;
    }
}

void
printSelfTimes(const std::vector<Episode> &traced)
{
    std::map<std::string, double> total;
    for (const Episode &e : traced)
        for (const auto &kv : selfTimes(e.logs))
            total[kv.first] += kv.second;
    std::vector<std::pair<double, std::string>> order;
    for (const auto &kv : total)
        order.push_back({kv.second, kv.first});
    std::sort(order.rbegin(), order.rend());
    std::printf("\nself time per span, ms per traced episode:\n");
    for (const auto &kv : order) {
        std::printf("  %-36s %12.3f\n", kv.second.c_str(),
                    1e-3 * kv.first / static_cast<double>(traced.size()));
    }
}

void
printJson(const MetricSet &m, const Tally &t)
{
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                t.checkFailures == 0 && t.dropped == 0 ? "true" : "false",
                t.checks + t.appends, t.checkFailures + t.dropped);
    bool first = true;
    for (const MetricSet::Metric &x : m.all()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", x.name.c_str(), x.value,
                    x.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    tdfe::setLogQuiet(true);
    // Keep freed episode memory in the heap instead of returning it
    // to the kernel: otherwise whether an episode's arrays come back
    // as fresh zero pages (page faults inside set-up and the loop)
    // or as reused heap depends on allocator history, which swings
    // blast_ranks' set-up between 1 and 5 ms from episode to episode.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    EpisodeConfig ec;
    ec.workload = args.workload;
    ec.seed = args.seed;
    ec.scratchDir = args.scratch;

    Tally tally;
    // Warm-up: page in the binary, spawn the pool, fill caches.
    {
        const Episode warm = runEpisode(ec);
        tally.merge(warm.tally);
    }

    std::vector<Episode> plain, traced;
    const double t0 = nowUs();
    const std::size_t min_each = args.trace ? 2 : 3;
    for (std::size_t n = 0;; ++n) {
        const bool enough =
            plain.size() >= min_each &&
            (!args.trace || traced.size() >= min_each) &&
            1e-6 * (nowUs() - t0) >= args.seconds;
        if (enough)
            break;
        ec.traced = args.trace && n % 2 == 1;
        Episode ep = runEpisode(ec);
        tally.merge(ep.tally);
        if (!ec.traced && !plain.empty())
            tally.check(sameOutputs(plain.front(), ep),
                        "episodes.deterministic");
        (ec.traced ? traced : plain).push_back(std::move(ep));
    }
    for (const Episode &ep : traced)
        tally.check(sameOutputs(plain.front(), ep),
                    "episodes.deterministic");

    MetricSet m;
    endToEnd(plain, m);
    if (args.trace) {
        perLayer(args.workload, traced, plain, m);
        std::string out = args.traceOut;
        if (out.empty())
            out = args.scratch + "/" + workloadName(args.workload) +
                  ".trace.json";
        tally.check(writeChromeTrace(out, traced.back().logs),
                    "trace.written", out);
        std::printf("trace: %s\n", out.c_str());
        printSelfTimes(traced);
    }
    m.set("failed_ops_frac",
          static_cast<double>(tally.checkFailures + tally.dropped) /
              static_cast<double>(
                  std::max<long>(1, tally.checks + tally.appends)),
          "fraction");

    std::printf("\n%s seed %llu: %zu untraced, %zu traced episodes; "
                "%ld checks, %ld appends\n",
                workloadName(args.workload),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), tally.checks, tally.appends);
    for (const auto &kv : tally.made) {
        const auto f = tally.failedByName.find(kv.first);
        std::printf("  check %-36s %6ld made %6ld failed\n",
                    kv.first.c_str(), kv.second,
                    f == tally.failedByName.end() ? 0L : f->second);
    }
    for (const std::string &msg : tally.messages)
        std::printf("  FAILED %s\n", msg.c_str());
    std::printf("\nuntraced episodes, wall and setup (s):\n");
    for (const Episode &ep : plain)
        std::printf("  %.4f %.6f\n", ep.wallS, ep.setupS);
    std::printf("\nfeatures of the first measured episode:\n");
    for (const FeatureOut &f : plain.front().features) {
        std::printf("  %-18s %12.6g truth %12.6g  error %7.2f%%%s  "
                    "converged %ld, %zu rounds\n",
                    f.name.c_str(), f.value, f.truth, featureErrorPct(f),
                    f.scored ? "" : " (not scored)", f.convergedIteration,
                    f.rounds);
    }
    std::printf("\n");
    for (const MetricSet::Metric &x : m.all())
        std::printf("%-44s %16.6g %s\n", x.name.c_str(), x.value,
                    x.unit.c_str());
    printJson(m, tally);
    return 0;
}
