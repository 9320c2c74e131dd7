#include "sph/sph_system.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/math_util.hh"
#include "base/serial.hh"
#include "base/thread_pool.hh"
#include "par/comm.hh"
#include "sph/kernel.hh"

namespace tdfe
{

namespace
{

/** Internal-energy floor keeping the EOS well defined. */
constexpr double uFloor = 1e-10;

/** Occupied cells per parallel chunk of the pair loops. */
constexpr std::size_t binGrain = 2;

/** Particles per parallel chunk of the flat per-particle loops. */
constexpr std::size_t particleGrain = 2048;

} // namespace

SphSystem::SphSystem(const SphConfig &config, Communicator *comm)
    : cfg(config), comm(comm)
{
    TDFE_ASSERT(cfg.h > 0.0, "smoothing length must be positive");
    TDFE_ASSERT(cfg.gamma > 1.0, "gamma must exceed 1");
    if (cfg.softening <= 0.0)
        cfg.softening = cfg.h;
    if (cfg.directGravity)
        gravity = std::make_unique<DirectGravity>();
    else
        gravity = std::make_unique<BarnesHutGravity>(cfg.theta);
}

void
SphSystem::mySlice(std::size_t &begin, std::size_t &end) const
{
    const std::size_t n = part.size();
    if (!comm || comm->size() == 1) {
        begin = 0;
        end = n;
        return;
    }
    const std::size_t r = static_cast<std::size_t>(comm->rank());
    const std::size_t nr = static_cast<std::size_t>(comm->size());
    begin = n * r / nr;
    end = n * (r + 1) / nr;
}

void
SphSystem::mergeSlices(std::vector<double> &field, std::size_t begin,
                       std::size_t end)
{
    (void)begin;
    (void)end;
    if (comm && comm->size() > 1)
        comm->allreduceVec(field.data(), field.size(), ReduceOp::Sum);
}

void
SphSystem::computeDensity()
{
    const std::size_t n = part.size();
    TDFE_ASSERT(n > 0, "empty particle set");
    const double support = CubicSplineKernel::support(cfg.h);
    const double support2 = support * support;

    cells.build(part.x.data(), part.y.data(), part.z.data(), n,
                support);

    const int rank = comm ? comm->rank() : 0;
    const int nranks = comm ? comm->size() : 1;

    std::fill(part.rho.begin(), part.rho.end(), 0.0);
    // Occupied cells partition the particles, so tasks own disjoint
    // slices of part.rho.
    cells.forEachBlockParallel(
        rank, nranks, binGrain,
        [&](const std::vector<std::size_t> &members,
            const std::vector<std::size_t> &cand) {
            for (const std::size_t i : members) {
                double rho = 0.0;
                for (const std::size_t j : cand) {
                    const double dx = part.x[i] - part.x[j];
                    const double dy = part.y[i] - part.y[j];
                    const double dz = part.z[i] - part.z[j];
                    const double r2 = dx * dx + dy * dy + dz * dz;
                    if (r2 >= support2)
                        continue;
                    rho += part.m[j] *
                           CubicSplineKernel::w(std::sqrt(r2),
                                                cfg.h);
                }
                part.rho[i] = rho;
            }
        });
    mergeSlices(part.rho, 0, n);

    const double gm1 = cfg.gamma - 1.0;
    parallelForRange(n, particleGrain,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) {
                             part.u[i] = std::max(part.u[i], uFloor);
                             part.p[i] =
                                 gm1 * part.rho[i] * part.u[i];
                             part.cs[i] = std::sqrt(
                                 cfg.gamma * part.p[i] / part.rho[i]);
                         }
                     });
}

void
SphSystem::computeForces()
{
    const std::size_t n = part.size();
    const double support = CubicSplineKernel::support(cfg.h);
    const double support2 = support * support;
    const double eta2 = 0.01 * cfg.h * cfg.h;

    const int rank = comm ? comm->rank() : 0;
    const int nranks = comm ? comm->size() : 1;

    std::fill(part.ax.begin(), part.ax.end(), 0.0);
    std::fill(part.ay.begin(), part.ay.end(), 0.0);
    std::fill(part.az.begin(), part.az.end(), 0.0);
    std::fill(part.du.begin(), part.du.end(), 0.0);
    std::fill(part.phi.begin(), part.phi.end(), 0.0);

    cells.forEachBlockParallel(
        rank, nranks, binGrain,
        [&](const std::vector<std::size_t> &members,
            const std::vector<std::size_t> &cand) {
            for (const std::size_t i : members) {
                const double pi_term = part.p[i] / sqr(part.rho[i]);
                double ax = 0.0, ay = 0.0, az = 0.0, du = 0.0;
                for (const std::size_t j : cand) {
                    if (j == i)
                        continue;
                    const double dx = part.x[i] - part.x[j];
                    const double dy = part.y[i] - part.y[j];
                    const double dz = part.z[i] - part.z[j];
                    const double r2 = dx * dx + dy * dy + dz * dz;
                    if (r2 >= support2 || r2 == 0.0)
                        continue;
                    const double r = std::sqrt(r2);
                    const double grad =
                        CubicSplineKernel::gradFactor(r, cfg.h);

                    const double dvx = part.vx[i] - part.vx[j];
                    const double dvy = part.vy[i] - part.vy[j];
                    const double dvz = part.vz[i] - part.vz[j];
                    const double vdotr =
                        dvx * dx + dvy * dy + dvz * dz;

                    // Monaghan artificial viscosity.
                    double visc = 0.0;
                    if (vdotr < 0.0) {
                        const double mu =
                            cfg.h * vdotr / (r2 + eta2);
                        const double cbar =
                            0.5 * (part.cs[i] + part.cs[j]);
                        const double rbar =
                            0.5 * (part.rho[i] + part.rho[j]);
                        visc = (-cfg.alpha * cbar * mu +
                                cfg.beta * mu * mu) / rbar;
                    }

                    const double pj_term =
                        part.p[j] / sqr(part.rho[j]);
                    const double coeff = part.m[j] *
                                         (pi_term + pj_term + visc) *
                                         grad;

                    ax -= coeff * dx;
                    ay -= coeff * dy;
                    az -= coeff * dz;
                    du += 0.5 * part.m[j] *
                          (pi_term + pj_term + visc) * grad * vdotr;
                }
                part.ax[i] = ax;
                part.ay[i] = ay;
                part.az[i] = az;
                part.du[i] = du;
            }
        });

    std::size_t lo, hi;
    mySlice(lo, hi);
    gravity->accumulate(part, cfg.softening, lo, hi);

    mergeSlices(part.ax, 0, n);
    mergeSlices(part.ay, 0, n);
    mergeSlices(part.az, 0, n);
    mergeSlices(part.du, 0, n);
    mergeSlices(part.phi, 0, n);

    forcesFresh = true;
}

double
SphSystem::computeDt() const
{
    const std::size_t n = part.size();
    // Per-chunk CFL minima combined by min: thread-count invariant.
    return parallelReduce(
        n, particleGrain, 1e30,
        [&](std::size_t b, std::size_t e) {
            double dt = 1e30;
            for (std::size_t i = b; i < e; ++i) {
                const double a =
                    std::sqrt(sqr(part.ax[i]) + sqr(part.ay[i]) +
                              sqr(part.az[i]));
                // Signal velocity: sound crossing plus the viscous
                // term; bulk advection is exact in a Lagrangian
                // method and does not constrain dt.
                const double sig =
                    part.cs[i] * (1.0 + 0.6 * cfg.alpha) + 1e-12;
                dt = std::min(dt, cfg.cfl * cfg.h / sig);
                if (a > 0.0)
                    dt = std::min(dt,
                                  cfg.cfl * std::sqrt(cfg.h / a));
            }
            return dt;
        },
        [](double a, double b) { return std::min(a, b); });
}

void
SphSystem::step(double dt)
{
    TDFE_ASSERT(dt > 0.0, "non-positive dt");
    const std::size_t n = part.size();

    if (!forcesFresh) {
        computeDensity();
        computeForces();
    }

    // Kick (half) + drift.
    parallelForRange(n, particleGrain,
                     [&](std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) {
                             part.vx[i] += 0.5 * dt * part.ax[i];
                             part.vy[i] += 0.5 * dt * part.ay[i];
                             part.vz[i] += 0.5 * dt * part.az[i];
                             part.u[i] = std::max(
                                 part.u[i] + 0.5 * dt * part.du[i],
                                 uFloor);
                             part.x[i] += dt * part.vx[i];
                             part.y[i] += dt * part.vy[i];
                             part.z[i] += dt * part.vz[i];
                         }
                     });

    computeDensity();
    computeForces();

    // Closing kick.
    const double damp =
        cfg.damping > 0.0 ? std::max(0.0, 1.0 - cfg.damping * dt)
                          : 1.0;
    parallelForRange(
        n, particleGrain, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                part.vx[i] =
                    (part.vx[i] + 0.5 * dt * part.ax[i]) * damp;
                part.vy[i] =
                    (part.vy[i] + 0.5 * dt * part.ay[i]) * damp;
                part.vz[i] =
                    (part.vz[i] + 0.5 * dt * part.az[i]) * damp;
                part.u[i] = std::max(
                    part.u[i] + 0.5 * dt * part.du[i], uFloor);
            }
        });

    t += dt;
    ++cycleCount;
    // Closing-kick velocities changed; viscosity terms in the stored
    // forces are slightly stale, which leapfrog tolerates.
}

double
SphSystem::advance()
{
    if (!forcesFresh) {
        computeDensity();
        computeForces();
    }
    const double dt = computeDt();
    step(dt);
    return dt;
}

double
SphSystem::totalMass() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < part.size(); ++i)
        acc += part.m[i];
    return acc;
}

double
SphSystem::totalKineticEnergy() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < part.size(); ++i) {
        acc += 0.5 * part.m[i] *
               (sqr(part.vx[i]) + sqr(part.vy[i]) + sqr(part.vz[i]));
    }
    return acc;
}

double
SphSystem::totalInternalEnergy() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < part.size(); ++i)
        acc += part.m[i] * part.u[i];
    return acc;
}

double
SphSystem::totalPotentialEnergy() const
{
    // phi holds the full pairwise potential per particle; the sum
    // double-counts pairs, hence the factor 1/2.
    double acc = 0.0;
    for (std::size_t i = 0; i < part.size(); ++i)
        acc += 0.5 * part.m[i] * part.phi[i];
    return acc;
}

double
SphSystem::totalEnergy() const
{
    return totalKineticEnergy() + totalInternalEnergy() +
           totalPotentialEnergy();
}

double
SphSystem::angularMomentumZ() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < part.size(); ++i) {
        acc += part.m[i] *
               (part.x[i] * part.vy[i] - part.y[i] * part.vx[i]);
    }
    return acc;
}

namespace
{

/** The double SoA fields a checkpoint carries, in a fixed order.
 *  body ids are setup data (the application rebuilds them); the
 *  cell list and gravity tree are derived and rebuilt lazily. */
std::vector<std::vector<double> *>
checkpointFields(ParticleSet &p)
{
    return {&p.x,  &p.y,  &p.z,  &p.vx, &p.vy,  &p.vz,
            &p.ax, &p.ay, &p.az, &p.m,  &p.u,   &p.du,
            &p.rho, &p.p, &p.cs, &p.phi};
}

} // namespace

void
SphSystem::save(BinaryWriter &w) const
{
    w.writeTag("sphsys");
    auto &mutable_part = const_cast<ParticleSet &>(part);
    for (const std::vector<double> *field :
         checkpointFields(mutable_part))
        w.writeVec(*field);
    w.writeF64(t);
    w.writeI64(cycleCount);
    // forcesFresh decides whether the next step's opening kick can
    // reuse the stored accelerations — part of the KDK state.
    w.writeBool(forcesFresh);
}

void
SphSystem::load(BinaryReader &r)
{
    r.expectTag("sphsys");
    for (std::vector<double> *field : checkpointFields(part)) {
        std::vector<double> v = r.readVec();
        if (!r.ok())
            return;
        if (v.size() != field->size()) {
            TDFE_FATAL("SPH checkpoint field has ", v.size(),
                       " particles, system has ", field->size(),
                       " (different setup?)");
        }
        *field = std::move(v);
    }
    t = r.readF64();
    cycleCount = static_cast<long>(r.readI64());
    forcesFresh = r.readBool();
}

} // namespace tdfe
