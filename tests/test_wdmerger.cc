/**
 * @file
 * Tests of the WD-merger application: binary assembly, inspiral,
 * merger, detonation, and the four diagnostics.
 */

#include <cstdint>
#include <gtest/gtest.h>

#include "base/thread_pool.hh"
#include "wdmerger/app.hh"

namespace
{

using namespace tdfe;
using namespace tdfe::wd;

WdMergerConfig
tinyConfig()
{
    WdMergerConfig cfg;
    cfg.resolution = 6;
    cfg.tEnd = 45.0;
    cfg.relaxSteps = 40;
    return cfg;
}

TEST(WdMergerApp, BinaryAssembly)
{
    WdMergerConfig cfg = tinyConfig();
    WdMergerApp app(cfg);

    EXPECT_FALSE(app.finished());
    EXPECT_NEAR(app.system().totalMass(), cfg.m1 + cfg.m2, 1e-9);
    EXPECT_NEAR(app.bodySeparation(), cfg.separation, 0.05);
    // Orbiting binary carries positive angular momentum.
    EXPECT_GT(app.system().angularMomentumZ(), 0.0);
    // One diagnostic row is recorded at t = 0.
    EXPECT_EQ(app.history(DiagVar::Mass).size(), 1u);
    EXPECT_EQ(app.dumpIndex(), 1);
    EXPECT_STREQ(diagName(DiagVar::Temperature), "Temperature");
}

TEST(WdMergerApp, FullScenarioMergesAndDetonates)
{
    WdMergerConfig cfg = tinyConfig();
    WdMergerApp app(cfg);
    while (!app.finished())
        app.advanceDump();

    EXPECT_TRUE(app.merged());
    EXPECT_TRUE(app.detonated());
    EXPECT_GT(app.mergeTime(), 5.0);
    EXPECT_LT(app.mergeTime(), 40.0);
    EXPECT_GT(app.detonationTime(), app.mergeTime());

    const auto &mass = app.history(DiagVar::Mass);
    const auto &lz = app.history(DiagVar::AngularMomentum);
    const auto &temp = app.history(DiagVar::Temperature);
    const auto &energy = app.history(DiagVar::Energy);
    ASSERT_EQ(mass.size(), 46u); // t=0 plus one per dump
    ASSERT_EQ(lz.size(), temp.size());
    ASSERT_EQ(energy.size(), mass.size());

    // Bound mass drops after detonation (ejecta).
    EXPECT_LT(mass.back(), mass.front() - 0.05);
    // Angular momentum decays during inspiral.
    const std::size_t pre =
        static_cast<std::size_t>(app.mergeTime()) - 2;
    EXPECT_LT(lz[pre], lz[1]);
    // Detonation heats the remnant.
    EXPECT_GT(temp.back(), 1.5 * temp.front());
    // Detonation energy raises the total energy.
    EXPECT_GT(energy.back(), energy.front());
}

TEST(WdMergerApp, DiagnosticsShowInflectionNearDetonation)
{
    WdMergerConfig cfg = tinyConfig();
    WdMergerApp app(cfg);
    while (!app.finished())
        app.advanceDump();
    ASSERT_TRUE(app.detonated());

    // The strongest gradient change of each diagnostic should land
    // near the merger/detonation window.
    for (const DiagVar v :
         {DiagVar::Temperature, DiagVar::Mass, DiagVar::Energy}) {
        const auto &h = app.history(v);
        double best = -1.0;
        std::size_t best_idx = 0;
        for (std::size_t i = 1; i + 1 < h.size(); ++i) {
            const double change =
                std::abs((h[i + 1] - h[i]) - (h[i] - h[i - 1]));
            if (change > best) {
                best = change;
                best_idx = i;
            }
        }
        const double t_feature =
            static_cast<double>(best_idx) * cfg.dumpInterval;
        EXPECT_NEAR(t_feature, app.detonationTime(), 5.0)
            << diagName(v);
    }
}

TEST(WdMergerApp, DeterministicAcrossRuns)
{
    WdMergerConfig cfg = tinyConfig();
    cfg.tEnd = 12.0;
    WdMergerApp a(cfg), b(cfg);
    while (!a.finished())
        a.advanceDump();
    while (!b.finished())
        b.advanceDump();
    const auto &ha = a.history(DiagVar::Energy);
    const auto &hb = b.history(DiagVar::Energy);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i)
        EXPECT_DOUBLE_EQ(ha[i], hb[i]);
}

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t
fnv1a(const void *bytes, std::size_t len, std::uint64_t h)
{
    const auto *b = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
std::uint64_t
fnv1a(const std::vector<T> &v, std::uint64_t h)
{
    return fnv1a(v.data(), v.size() * sizeof(T), h);
}

/** Digest of a short resolution-6 run: every particle field plus
 *  the four diagnostic histories, byte for byte. */
std::uint64_t
shortRunDigest()
{
    WdMergerConfig cfg = tinyConfig();
    cfg.tEnd = 12.0;
    WdMergerApp app(cfg);
    while (!app.finished())
        app.advanceDump();

    const ParticleSet &p = app.system().particles();
    std::uint64_t h = 14695981039346656037ull;
    for (const std::vector<double> *field :
         {&p.x, &p.y, &p.z, &p.vx, &p.vy, &p.vz, &p.ax, &p.ay, &p.az,
          &p.m, &p.u, &p.du, &p.rho, &p.p, &p.cs, &p.phi})
        h = fnv1a(*field, h);
    h = fnv1a(p.body, h);
    for (int v = 0; v < numDiagVars; ++v)
        h = fnv1a(app.history(static_cast<DiagVar>(v)), h);
    return h;
}

// The SPH step's results must not depend on the thread count, and
// restructuring its bookkeeping (neighbour caches, tree walk, chunk
// grains) must leave every per-particle sum, operand by operand,
// as it was: the constant is the digest of the reference build.
// Fast-math builds (TDFE_NATIVE) reassociate sums, so only the
// thread check applies to them. GCC leaves __FAST_MATH__ undefined
// when -fno-finite-math-only follows -ffast-math, as it does there;
// __ASSOCIATIVE_MATH__ still marks the reassociation.
TEST(WdMergerApp, ShortRunDigestIsPinnedAtEveryThreadCount)
{
    const int before = globalThreadCount();
    std::vector<std::uint64_t> digests;
    for (const int t : {1, 2, 4}) {
        setGlobalThreadCount(t);
        digests.push_back(shortRunDigest());
    }
    setGlobalThreadCount(before);
    EXPECT_EQ(digests[1], digests[0]) << "2 threads";
    EXPECT_EQ(digests[2], digests[0]) << "4 threads";
#if !defined(__FAST_MATH__) && !defined(__ASSOCIATIVE_MATH__)
    EXPECT_EQ(digests[0], 0xc4880e29e757d258ull)
        << std::hex << digests[0];
#endif
}

} // namespace
