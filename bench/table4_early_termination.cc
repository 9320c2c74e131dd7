/**
 * @file
 * Paper Table IV: early-termination performance — for each velocity
 * threshold, the extracted region radius, the iteration at which the
 * region of interest was identified (absolute and as % of the full
 * run), and the execution time of the terminated run (absolute and
 * as % of the full run's time).
 *
 * Expected shape: identification lands at a modest fraction of the
 * full run, with execution-time fractions tracking the iteration
 * fractions, and higher thresholds never taking longer than lower
 * ones.
 */

#include "bench/bench_common.hh"

using namespace tdfe;
using namespace tdfe::bench;

int
main(int argc, char **argv)
{
    ArgParser args("Table IV: early termination per threshold");
    args.addString("sizes", "24,36",
                   "domain sizes (paper: 30,60,90)");
    args.addFlag("paper", "use the paper's domain sizes");
    addThreadsOption(args);
    addStoreOptions(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    const StoreCliOptions store = storeOptions(args);
    setLogQuiet(true);

    auto sizes = ArgParser::parseIntList(args.getString("sizes"));
    if (args.getFlag("paper"))
        sizes = {30, 60, 90};

    const std::vector<double> thresholds_pct = {
        0.1, 0.2, 0.5, 0.75, 1.0, 2.0, 5.0, 10.0, 20.0};

    for (const auto size_l : sizes) {
        const int size = static_cast<int>(size_l);
        BlastTruth truth(size);

        // Reference wall time of the bare full run.
        blast::RunOptions bare;
        Timer t;
        blast::runBlast(truth.config, nullptr, bare);
        const double full_seconds = t.elapsed();
        const long full_iters = truth.run.iterations;

        banner("Table IV: early termination, domain " +
                   std::to_string(size),
               std::to_string(full_iters) +
                   " iterations for the full simulation, " +
                   AsciiTable::fmt(full_seconds, 3) + " s bare");

        AsciiTable table({"Threshold(%)", "Region radius",
                          "# Iterations when ROI identified",
                          "Execution time (s)"});
        for (const double pct : thresholds_pct) {
            const double thr =
                pct / 100.0 * truth.run.initialVelocity;
            blast::RunOptions opt;
            opt.instrument = true;
            opt.honorStop = true;
            opt.analysis = blastAnalysis(truth, 0.4, thr, 1,
                                         size / 2, true);
            // --store keeps one feature trace per (size,
            // threshold) cell for post-hoc inspection.
            if (!store.path.empty()) {
                applyCliOptions(opt, store, CkptCliOptions(),
                                ObsCliOptions());
                opt.storePath = store.path + ".s" +
                                std::to_string(size) + "t" +
                                AsciiTable::fmt(pct, 2);
            }
            Timer rt;
            const blast::RunResult r =
                blast::runBlast(truth.config, nullptr, opt);
            const double secs = rt.elapsed();

            const double iter_pct =
                100.0 * static_cast<double>(r.iterations) /
                static_cast<double>(full_iters);
            const double time_pct = 100.0 * secs / full_seconds;
            table.addRow(
                {AsciiTable::fmt(pct, 2),
                 std::to_string(
                     static_cast<long>(r.featureValue + 0.5)),
                 std::to_string(r.iterations) + " (" +
                     AsciiTable::fmt(iter_pct, 1) + "%)",
                 AsciiTable::fmt(secs, 4) + " (" +
                     AsciiTable::fmt(time_pct, 1) + "%)"});
        }
        table.print();
    }
    return 0;
}
