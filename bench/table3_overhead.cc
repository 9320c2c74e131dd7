/**
 * @file
 * Paper Table III: execution time of the blast app bare ("origin")
 * and instrumented without early stop ("non-stop"), and the
 * resulting overhead, across domain sizes and rank counts.
 *
 * Expected shape: overhead stays in the low single-digit percent
 * range across every configuration.
 */

#include "bench/bench_common.hh"

#include <map>
#include <memory>

#include "base/thread_pool.hh"
#include "par/thread_comm.hh"

using namespace tdfe;
using namespace tdfe::bench;

namespace
{

struct Cell
{
    double origin = 0.0;
    double nonstop = 0.0;
};

/** One recorded probe run per size (analysis windows need totals). */
const BlastTruth &
probeFor(int size)
{
    static std::map<int, std::unique_ptr<BlastTruth>> cache;
    auto it = cache.find(size);
    if (it == cache.end())
        it = cache.emplace(size,
                           std::make_unique<BlastTruth>(size)).first;
    return *it->second;
}

Cell
measure(int size, int ranks)
{
    Cell cell;
    blast::BlastConfig cfg;
    cfg.size = size;

    const BlastTruth &probe = probeFor(size);
    const AnalysisConfig shared = blastAnalysis(
        probe, 0.4, 0.05 * probe.run.initialVelocity);

    auto run_mode = [&](bool instrument) -> double {
        Timer timer;
        if (ranks == 1) {
            blast::RunOptions opt;
            opt.instrument = instrument;
            if (instrument)
                opt.analysis = shared;
            timer.reset();
            blast::runBlast(cfg, nullptr, opt);
            return timer.elapsed();
        }
        ThreadCommWorld world(ranks);
        timer.reset();
        world.run([&](Communicator &comm) {
            blast::RunOptions opt;
            opt.instrument = instrument;
            if (instrument)
                opt.analysis = shared;
            blast::runBlast(cfg, &comm, opt);
        });
        return timer.elapsed();
    };

    cell.origin = run_mode(false);
    cell.nonstop = run_mode(true);
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("Table III: in-situ overhead across sizes and "
                   "ranks");
    args.addString("sizes", "24,36,48",
                   "domain sizes (paper: 30,60,90)");
    args.addString("ranks", "1,2,4",
                   "rank counts (paper: 1,8,27; thread-emulated)");
    args.addFlag("paper", "use the paper's sizes and rank counts");
    addThreadsOption(args);
    args.parse(argc, argv);
    applyThreadsOption(args);
    setLogQuiet(true);

    auto sizes = ArgParser::parseIntList(args.getString("sizes"));
    auto ranks = ArgParser::parseIntList(args.getString("ranks"));
    if (args.getFlag("paper")) {
        sizes = {30, 60, 90};
        ranks = {1, 8, 27};
    }

    banner("Table III: execution time and in-situ overhead",
           "sizes shown in header; ranks are thread-emulated and "
           "share one " +
               std::to_string(globalThreadCount()) +
               "-thread pool");

    std::vector<std::string> header{"Ranks"};
    for (const auto s : sizes) {
        header.push_back(std::to_string(s) + "^3 origin(s)");
        header.push_back("non-stop(s)");
        header.push_back("overhead");
    }
    AsciiTable table(header);
    for (const auto r : ranks) {
        std::vector<std::string> row{std::to_string(r) + "x1"};
        for (const auto s : sizes) {
            const Cell c = measure(static_cast<int>(s),
                                   static_cast<int>(r));
            const double ovh = (c.nonstop - c.origin) /
                               std::max(c.origin, 1e-12);
            row.push_back(AsciiTable::fmt(c.origin, 3));
            row.push_back(AsciiTable::fmt(c.nonstop, 3));
            row.push_back(AsciiTable::pct(ovh, 2));
        }
        table.addRow(row);
    }
    table.print();
    return 0;
}
