/**
 * @file
 * Paper Table VII: wdmerger execution time bare ("Orig"),
 * instrumented ("No-stop"), with early termination ("Stop"), and
 * the derived overhead and acceleration, across rank counts and
 * domain resolutions.
 *
 * Expected shape: overhead in the low percent range; acceleration
 * from early termination substantial (the model converges long
 * before the run ends).
 */

#include "bench/bench_common.hh"

#include "base/thread_pool.hh"
#include "par/thread_comm.hh"
#include "wdmerger/runner.hh"

using namespace tdfe;
using namespace tdfe::bench;
using namespace tdfe::wd;

namespace
{

double
timedRun(const WdMergerConfig &cfg, int ranks,
         const WdRunOptions &opt)
{
    Timer timer;
    if (ranks == 1) {
        runWdMerger(cfg, nullptr, opt);
        return timer.elapsed();
    }
    ThreadCommWorld world(ranks);
    timer.reset();
    world.run([&](Communicator &comm) {
        runWdMerger(cfg, &comm, opt);
    });
    return timer.elapsed();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Table VII: wdmerger overhead and early-stop "
                   "acceleration");
    args.addString("resolutions", "6,8",
                   "star resolutions (paper: 16,32,48)");
    args.addString("ranks", "1,2,4",
                   "rank counts (paper: 8,16,32; thread-emulated)");
    args.addDouble("fraction", 0.25, "training fraction");
    args.addDouble("tol", 0.05,
                   "relative validation-error convergence tolerance "
                   "(coarse resolutions have noisier diagnostics)");
    addThreadsOption(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    setLogQuiet(true);

    const auto resolutions =
        ArgParser::parseIntList(args.getString("resolutions"));
    const auto ranks =
        ArgParser::parseIntList(args.getString("ranks"));

    banner("Table VII: Orig / No-stop / Stop, overhead and "
           "acceleration",
           "ranks are thread-emulated and share one " +
               std::to_string(globalThreadCount()) + "-thread pool");

    std::vector<std::string> header{"Ranks x OMP"};
    for (const auto res : resolutions) {
        header.push_back("res " + std::to_string(res) + " Orig");
        header.push_back("No-stop");
        header.push_back("Ovh");
        header.push_back("Stop");
        header.push_back("Acc");
    }
    AsciiTable table(header);

    for (const auto r : ranks) {
        std::vector<std::string> row{std::to_string(r) + "x1"};
        for (const auto res : resolutions) {
            WdMergerConfig cfg;
            cfg.resolution = static_cast<int>(res);

            WdRunOptions bare;
            WdRunOptions nonstop;
            nonstop.instrument = true;
            nonstop.trainFraction = args.getDouble("fraction");
            nonstop.ar.convergeTol = args.getDouble("tol");
            WdRunOptions stop = nonstop;
            stop.honorStop = true;

            const double t_orig =
                timedRun(cfg, static_cast<int>(r), bare);
            const double t_nonstop =
                timedRun(cfg, static_cast<int>(r), nonstop);
            const double t_stop =
                timedRun(cfg, static_cast<int>(r), stop);

            const double ovh =
                (t_nonstop - t_orig) / std::max(t_orig, 1e-12);
            const double acc =
                (t_orig - t_stop) / std::max(t_orig, 1e-12);
            row.push_back(AsciiTable::fmt(t_orig, 2));
            row.push_back(AsciiTable::fmt(t_nonstop, 2));
            row.push_back(AsciiTable::pct(ovh, 2));
            row.push_back(AsciiTable::fmt(t_stop, 2));
            row.push_back(AsciiTable::pct(acc, 1));
        }
        table.addRow(row);
    }
    table.print();
    return 0;
}
