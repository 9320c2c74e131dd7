/**
 * @file
 * Experiment harness for the WD-merger case: runs the app bare
 * ("Orig"), instrumented ("No-stop"), or instrumented with early
 * termination ("Stop") and returns the measurements behind the
 * paper's Tables V-VII and Figs. 7-8.
 */

#ifndef TDFE_WDMERGER_RUNNER_HH
#define TDFE_WDMERGER_RUNNER_HH

#include <array>
#include <vector>

#include "core/ar_model.hh"
#include "par/run_harness.hh"
#include "wdmerger/app.hh"

namespace tdfe
{

namespace wd
{

/** Harness behaviour (the shared knobs are documented on
 *  HarnessOptions; an iteration is one dump). */
struct WdRunOptions : HarnessOptions
{
    /** Training window ends at this fraction of the full run. */
    double trainFraction = 0.25;
    /** AR model settings shared by the four analyses. */
    ArConfig ar;
    /** Iterations between collective stop syncs. */
    long syncInterval = 5;
    /** Smoothing window for the delay-time detector. */
    std::size_t smoothWindow = 5;

    WdRunOptions()
    {
        // Each analysis sees one sample per dump, so mini-batches
        // must stay small for several training rounds to fit into
        // the paper's 10-50% training windows, and each round works
        // its batch hard (low momentum, many epochs) because data
        // is scarce.
        ar.order = 4;
        ar.lag = 1;
        ar.axis = LagAxis::Time;
        ar.batchSize = 4;
        ar.convergeTol = 2e-2;
        ar.convergePatience = 2;
        ar.minBatches = 3;
        ar.sgd.learningRate = 0.08;
        ar.sgd.momentum = 0.5;
        ar.sgd.epochsPerBatch = 24;
    }
};

/** Everything measured in one run (the shared measurements are
 *  documented on HarnessResult). */
struct WdRunResult : HarnessResult
{
    long dumps = 0;
    long sphSteps = 0;
    double mergeTime = -1.0;
    double detonationTime = -1.0;
    /** Full diagnostic histories (index k = time k*dumpInterval). */
    std::array<std::vector<double>, numDiagVars> history;
    /** Delay time extracted by each analysis (time units). */
    std::array<double, numDiagVars> delayTime{};
    /** One-step curve-fit error (%) against the recorded series. */
    std::array<double, numDiagVars> fitErrorPct{};
    /** Convergence iteration per analysis (-1: never). */
    std::array<long, numDiagVars> convergedIteration{};
    /** One-step fitted curves aligned with fittedIters (Fig. 7). */
    std::array<std::vector<double>, numDiagVars> fitted;
    std::array<std::vector<long>, numDiagVars> fittedIters;
};

/**
 * Run one WD-merger experiment.
 *
 * @param config Application parameters.
 * @param comm Optional communicator (collective call: all ranks
 *        must invoke identically).
 * @param options Harness behaviour.
 */
WdRunResult runWdMerger(const WdMergerConfig &config,
                        Communicator *comm,
                        const WdRunOptions &options);

/**
 * Auto-resume supervisor around runWdMerger (see runResilient;
 * requires options.ckptPath, per-attempt store segments stitched
 * into options.storePath, single-rank only).
 */
WdRunResult runWdMergerResilient(const WdMergerConfig &config,
                                 Communicator *comm,
                                 const WdRunOptions &options);

} // namespace wd

} // namespace tdfe

#endif // TDFE_WDMERGER_RUNNER_HH
