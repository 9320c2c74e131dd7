#include "blastapp/runner.hh"

#include <memory>

#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tdfe
{

namespace blast
{

RunResult
runBlast(const BlastConfig &config, Communicator *comm,
         const RunOptions &options)
{
    Domain domain(config, comm);
    RunResult result;

    std::unique_ptr<Region> region;
    if (options.instrument) {
        region = std::make_unique<Region>("blast", &domain, comm);
        region->setSyncInterval(options.syncInterval);
        region->setRankOfLocation([&domain](long loc) {
            return domain.rankOfLocation(loc);
        });
        AnalysisConfig ac = options.analysis;
        ac.provider = [](void *d, long loc) {
            return static_cast<Domain *>(d)->xd(loc);
        };
        region->addAnalysis(std::move(ac));
    }

    const bool gather = options.instrument || options.recordTrace;
    HarnessHooks sim;
    sim.finished = [&] { return domain.finished(); };
    sim.step = [&] {
        {
            static obs::Counter steps("solver.steps_total");
            obs::SpanTimer step("solver.step", "solver");
            TimeIncrement(domain);
            LagrangeLeapFrog(domain);
            steps.add();
        }
        if (gather)
            domain.gatherProbes();
        if (options.recordTrace)
            result.trace.push_back(domain.probes());
    };
    sim.iteration = [&] { return domain.cycle(); };
    sim.save = [&](BinaryWriter &w) { domain.save(w); };
    sim.load = [&](BinaryReader &r) { domain.load(r); };
    runHarness(options, "blast", region.get(), comm,
               options.analysis.ar.order + 1, sim, result);

    result.iterations = domain.cycle();
    result.initialVelocity = domain.initialVelocity();
    if (region) {
        const CurveFitAnalysis &a = region->analysis(0);
        result.convergedIteration = a.convergedIteration();
        result.validationMse = a.lastValidationMse();
        if (a.config().feature == FeatureKind::BreakpointRadius) {
            result.breakPoint = a.breakPoint();
            result.featureValue =
                static_cast<double>(result.breakPoint.radius);
        } else {
            result.featureValue = a.extractFeature();
        }
    }
    return result;
}

RunResult
runBlastResilient(const BlastConfig &config, Communicator *comm,
                  const RunOptions &options)
{
    return runResilient(options, comm, "blast",
                        [&](const RunOptions &attempt) {
                            return runBlast(config, comm, attempt);
                        });
}

} // namespace blast

} // namespace tdfe
