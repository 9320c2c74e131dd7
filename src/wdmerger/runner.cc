#include "wdmerger/runner.hh"

#include <algorithm>
#include <memory>

#include "core/predictor.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"

namespace tdfe
{

namespace wd
{

WdRunResult
runWdMerger(const WdMergerConfig &config, Communicator *comm,
            const WdRunOptions &options)
{
    WdRunResult result;
    WdMergerApp app(config, comm);

    const long total_dumps = static_cast<long>(
        config.tEnd / config.dumpInterval + 0.5);

    std::unique_ptr<Region> region;
    if (options.instrument) {
        region = std::make_unique<Region>("wdmerger", &app, comm);
        region->setSyncInterval(options.syncInterval);

        const long span =
            static_cast<long>(options.ar.order) * options.ar.lag;
        long train_end = static_cast<long>(
            options.trainFraction * static_cast<double>(total_dumps));
        train_end = std::max(train_end, span + 4);

        for (int v = 0; v < numDiagVars; ++v) {
            AnalysisConfig ac;
            ac.name = diagName(static_cast<DiagVar>(v));
            ac.provider = [](void *domain, long loc) {
                return static_cast<WdMergerApp *>(domain)
                    ->diagnostic(static_cast<DiagVar>(loc));
            };
            ac.space = IterParam(v, v, 1);
            ac.time = IterParam(span, train_end, 1);
            ac.feature = FeatureKind::DelayTime;
            ac.smoothWindow = options.smoothWindow;
            ac.featureLocation = v;
            ac.minLocation = v;
            ac.stopWhenConverged = true;
            ac.ar = options.ar;
            region->addAnalysis(std::move(ac));
        }
    }

    HarnessHooks sim;
    sim.finished = [&] { return app.finished(); };
    sim.step = [&] {
        static obs::Counter steps("solver.steps_total");
        obs::SpanTimer step("solver.step", "solver");
        app.advanceDump();
        steps.add();
    };
    sim.iteration = [&] { return app.dumpIndex(); };
    sim.save = [&](BinaryWriter &w) { app.save(w); };
    sim.load = [&](BinaryReader &r) { app.load(r); };
    runHarness(options, "wdmerger", region.get(), comm,
               options.ar.order + 1, sim, result);

    result.dumps = app.dumpIndex();
    result.sphSteps = app.sphSteps();
    result.mergeTime = app.mergeTime();
    result.detonationTime = app.detonationTime();
    for (int v = 0; v < numDiagVars; ++v)
        result.history[v] = app.history(static_cast<DiagVar>(v));

    if (region) {
        for (int v = 0; v < numDiagVars; ++v) {
            const CurveFitAnalysis &a =
                region->analysis(static_cast<std::size_t>(v));
            result.convergedIteration[v] = a.convergedIteration();

            // Analysis iteration i observes the diagnostic recorded
            // after dump i+1, i.e. time (i+1)*dumpInterval.
            const double feature = a.extractFeature();
            result.delayTime[v] =
                (feature + 1.0) * config.dumpInterval;

            // The curve-fit error is scored on the one-step fitted
            // curve over the entire recorded series, exactly the
            // comparison the paper plots in Fig. 7 and tabulates in
            // Table V.
            const Predictor pred(a.model(), a.observed());
            const FittedSeries fit = pred.oneStepSeries(v);
            if (!fit.predicted.empty()) {
                result.fitErrorPct[v] =
                    errorRatePct(fit.predicted, fit.actual);
                result.fitted[v] = fit.predicted;
                result.fittedIters[v] = fit.iters;
            }
        }
    }

    return result;
}

WdRunResult
runWdMergerResilient(const WdMergerConfig &config, Communicator *comm,
                     const WdRunOptions &options)
{
    return runResilient(options, comm, "wdmerger",
                        [&](const WdRunOptions &attempt) {
                            return runWdMerger(config, comm, attempt);
                        });
}

} // namespace wd

} // namespace tdfe
