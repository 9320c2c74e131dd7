/**
 * @file
 * Parallel-backbone baseline: times the clover2d step loop and the
 * SPH dump loop of one wdmerger member (resolution 6, 176 particles,
 * the paper's Case 2) across a sweep of thread counts, checks that
 * each state digest is bitwise identical at every count (the
 * backbone's determinism guarantee), and appends one training round
 * of the in-situ hot path. Writes the results as JSON via
 * bench_to_json — BENCH_PR1.json in the repo root is the first
 * recorded baseline of this harness (see PERF.md for the protocol
 * and schema).
 */

#include "bench/bench_common.hh"

#include <string>
#include <thread>
#include <vector>

#include "base/thread_pool.hh"
#include "clover2d/solver.hh"
#include "core/trainer.hh"
#include "wdmerger/app.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

struct StepResult
{
    double secPerStep = 0.0;
    double digest = 0.0;
};

/**
 * Time @p steps clover cycles at 256^2-style sizes after @p warmup
 * cycles, returning the best of @p reps repetitions plus a digest of
 * the final state (identical digests across thread counts certify
 * the deterministic reductions).
 */
StepResult
runClover(int size, int warmup, int steps, int reps)
{
    StepResult best;
    best.secPerStep = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        clover::CloverConfig cfg;
        cfg.nx = cfg.ny = size;
        clover::CloverSolver2D solver(cfg);
        solver.depositCornerEnergy(2.0);
        for (int s = 0; s < warmup; ++s)
            solver.advance();
        Timer timer;
        for (int s = 0; s < steps; ++s)
            solver.advance();
        const double per = timer.elapsed() / steps;
        best.secPerStep = std::min(best.secPerStep, per);

        double digest = 0.0;
        for (int j = 0; j < size; j += 7)
            for (int i = 0; i < size; i += 7)
                digest += solver.density(i, j) * 1e3 +
                          solver.energy(i, j);
        best.digest = digest;
    }
    return best;
}

/**
 * The same protocol for one wdmerger member at resolution 6: time
 * @p steps dump intervals (each several SPH steps: density, forces,
 * Barnes-Hut gravity) after @p warmup, best of @p reps, plus a
 * digest of the final particle state.
 */
StepResult
runWd(int warmup, int steps, int reps)
{
    StepResult best;
    best.secPerStep = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
        wd::WdMergerConfig cfg;
        cfg.resolution = 6;
        cfg.tEnd = static_cast<double>(warmup + steps) *
                   cfg.dumpInterval;
        wd::WdMergerApp app(cfg);
        for (int s = 0; s < warmup; ++s)
            app.advanceDump();
        Timer timer;
        for (int s = 0; s < steps; ++s)
            app.advanceDump();
        const double per = timer.elapsed() / steps;
        best.secPerStep = std::min(best.secPerStep, per);

        const ParticleSet &p = app.system().particles();
        double digest = 0.0;
        for (std::size_t i = 0; i < p.size(); ++i)
            digest += (p.x[i] + p.y[i] + p.z[i]) * 1e3 + p.vx[i] +
                      p.u[i] + p.rho[i];
        best.digest = digest;
    }
    return best;
}

/**
 * Run @p run at every thread count in @p threads, print one table
 * row per count and append one BenchRecord named
 * `<name>_t<threads>`. @return true when every digest matches the
 * first count's.
 */
template <typename Run>
bool
sweep(const std::string &name,
      const std::vector<std::int64_t> &threads,
      Run &&run, std::vector<BenchRecord> &records)
{
    AsciiTable table({"Threads", "s/step", "speedup", "digest ok"});
    double base = 0.0;
    double base_digest = 0.0;
    bool digests_ok = true;
    for (const auto t : threads) {
        setGlobalThreadCount(static_cast<int>(t));
        const StepResult r = run();
        if (t == threads.front()) {
            base = r.secPerStep;
            base_digest = r.digest;
        }
        const bool match = r.digest == base_digest;
        digests_ok = digests_ok && match;
        const double speedup = base / r.secPerStep;
        table.addRow({std::to_string(t),
                      AsciiTable::fmt(r.secPerStep, 6),
                      AsciiTable::fmt(speedup, 2),
                      match ? "yes" : "NO"});

        BenchRecord rec;
        rec.name = name + "_t" + std::to_string(t);
        rec.metrics["threads"] = static_cast<double>(t);
        rec.metrics["sec_per_step"] = r.secPerStep;
        rec.metrics["speedup_vs_first"] = speedup;
        rec.metrics["digest"] = r.digest;
        rec.metrics["digest_matches_first"] = match ? 1.0 : 0.0;
        records.push_back(rec);
    }
    table.print();
    if (!digests_ok)
        std::printf("!! %s state digests drifted across thread "
                    "counts\n",
                    name.c_str());
    return digests_ok;
}

/** Mean seconds per AR training round (the zero-allocation path). */
double
runTrainRound(int rounds)
{
    ArConfig cfg;
    cfg.order = 4;
    cfg.batchSize = 32;
    ArModel model(cfg);
    ArTrainer trainer(model);
    MiniBatch batch(cfg.batchSize, cfg.order);
    double v = 0.37;
    Timer timer;
    for (int r = 0; r < rounds; ++r) {
        batch.clear();
        while (!batch.full()) {
            v = v * 1.7 - static_cast<long>(v * 1.7) + 0.1;
            batch.push({v, v * 0.9, v * 0.8, v * 0.7}, v * 2.0);
        }
        trainer.trainRound(batch);
    }
    return timer.elapsed() / rounds;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Parallel backbone baseline: clover2d step loop "
                   "across thread counts + training hot path");
    args.addInt("size", 256, "clover2d interior cells per axis");
    args.addInt("steps", 40,
                "timed cycles (wdmerger: dumps) per repetition");
    args.addInt("warmup", 5, "untimed warm-up cycles (dumps)");
    args.addInt("reps", 3, "repetitions (best is reported)");
    args.addString("threads", "1,2,4",
                   "thread counts to sweep (comma-separated)");
    args.addString("json", "",
                   "write results to this JSON file (empty: skip)");
    args.parse(argc, argv);
    setLogQuiet(true);

    const int size = static_cast<int>(args.getInt("size"));
    const int steps = static_cast<int>(args.getInt("steps"));
    const int warmup = static_cast<int>(args.getInt("warmup"));
    const int reps = static_cast<int>(args.getInt("reps"));
    const auto threads =
        ArgParser::parseIntList(args.getString("threads"));

    banner("Parallel backbone: clover2d " + std::to_string(size) +
               "^2 step loop, wdmerger res 6 dump loop",
           "best of " + std::to_string(reps) + " reps x " +
               std::to_string(steps) + " steps; digests must match "
               "across thread counts");

    std::vector<BenchRecord> records;
    const bool clover_ok = sweep(
        "clover2d_step_" + std::to_string(size) + "sq", threads,
        [&] { return runClover(size, warmup, steps, reps); }, records);

    std::printf("-- wdmerger res 6 (176 SPH particles): s/step is "
                "seconds per dump\n");
    const bool wd_ok = sweep(
        "wdmerger_dump_res6", threads,
        [&] { return runWd(warmup, steps, reps); }, records);
    const bool digests_ok = clover_ok && wd_ok;

    setGlobalThreadCount(1);
    const double train = runTrainRound(2000);
    std::printf("-- AR training round (batch 32, order 4): %.3g s\n",
                train);
    BenchRecord trec;
    trec.name = "ar_train_round_b32_o4";
    trec.metrics["sec_per_round"] = train;
    records.push_back(trec);

    const std::string json = args.getString("json");
    if (!json.empty()) {
        std::map<std::string, std::string> meta;
        meta["bench"] = "par_backbone";
        meta["clover_size"] = std::to_string(size);
        meta["steps"] = std::to_string(steps);
        meta["reps"] = std::to_string(reps);
        meta["hardware_threads"] = std::to_string(
            std::thread::hardware_concurrency());
        meta["digests_stable"] = digests_ok ? "true" : "false";
        if (!bench_to_json(json, meta, records)) {
            std::printf("!! failed to write %s\n", json.c_str());
            return 1;
        }
        std::printf("-- wrote %s\n", json.c_str());
    }
    return digests_ok ? 0 : 1;
}
