/**
 * @file
 * Tests of the gravity solvers: direct-sum sanity, Barnes-Hut
 * accuracy against the direct reference, and bitwise equality of the
 * flattened tree walk with a reference depth-first stack walk.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

#include "base/math_util.hh"
#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "sph/gravity.hh"

namespace
{

using namespace tdfe;

ParticleSet
randomCloud(std::size_t n, std::uint64_t seed)
{
    ParticleSet p;
    p.resize(n);
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        p.x[i] = rng.normal(0.0, 1.0);
        p.y[i] = rng.normal(0.0, 1.0);
        p.z[i] = rng.normal(0.0, 1.0);
        p.m[i] = rng.uniform(0.5, 1.5);
    }
    return p;
}

TEST(DirectGravity, TwoBodyInverseSquare)
{
    ParticleSet p;
    p.resize(2);
    p.x[0] = 0.0;
    p.x[1] = 2.0;
    p.m[0] = 3.0;
    p.m[1] = 5.0;

    DirectGravity solver;
    solver.accumulate(p, 0.0);

    // a_0 = m_1 / r^2 toward +x; a_1 = m_0 / r^2 toward -x.
    EXPECT_NEAR(p.ax[0], 5.0 / 4.0, 1e-12);
    EXPECT_NEAR(p.ax[1], -3.0 / 4.0, 1e-12);
    EXPECT_NEAR(p.ay[0], 0.0, 1e-12);
    // phi_0 = -m_1 / r.
    EXPECT_NEAR(p.phi[0], -2.5, 1e-12);
    EXPECT_NEAR(p.phi[1], -1.5, 1e-12);
}

TEST(DirectGravity, NewtonThirdLawMomentumBalance)
{
    ParticleSet p = randomCloud(60, 91);
    DirectGravity solver;
    solver.accumulate(p, 0.05);
    double fx = 0.0, fy = 0.0, fz = 0.0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        fx += p.m[i] * p.ax[i];
        fy += p.m[i] * p.ay[i];
        fz += p.m[i] * p.az[i];
    }
    EXPECT_NEAR(fx, 0.0, 1e-9);
    EXPECT_NEAR(fy, 0.0, 1e-9);
    EXPECT_NEAR(fz, 0.0, 1e-9);
}

TEST(BarnesHut, MatchesDirectSummation)
{
    ParticleSet direct = randomCloud(400, 92);
    ParticleSet tree = direct;

    DirectGravity ref;
    ref.accumulate(direct, 0.05);
    BarnesHutGravity bh(0.5);
    bh.accumulate(tree, 0.05);
    EXPECT_GT(bh.nodeCount(), 400u);

    double worst = 0.0;
    for (std::size_t i = 0; i < direct.size(); ++i) {
        const double mag =
            std::sqrt(sqr(direct.ax[i]) + sqr(direct.ay[i]) +
                      sqr(direct.az[i]));
        const double err =
            std::sqrt(sqr(direct.ax[i] - tree.ax[i]) +
                      sqr(direct.ay[i] - tree.ay[i]) +
                      sqr(direct.az[i] - tree.az[i]));
        worst = std::max(worst, err / (mag + 1e-12));
        EXPECT_NEAR(tree.phi[i] / direct.phi[i], 1.0, 0.02);
    }
    EXPECT_LT(worst, 0.03);
}

TEST(BarnesHut, HandlesCoincidentParticles)
{
    // Co-located particles exercise the depth-limited overflow path.
    ParticleSet p;
    p.resize(4);
    for (std::size_t i = 0; i < 3; ++i) {
        p.x[i] = 1.0;
        p.m[i] = 1.0;
    }
    p.x[3] = -1.0;
    p.m[3] = 1.0;

    BarnesHutGravity bh(0.5);
    bh.accumulate(p, 0.01);
    // The lone particle must feel ~3 units of mass at distance 2
    // along +x.
    EXPECT_NEAR(p.ax[3], 3.0 / 4.0, 0.02);
    EXPECT_NEAR(p.ay[3], 0.0, 1e-9);
}

TEST(BarnesHut, ThetaZeroLimitIsNearExact)
{
    ParticleSet direct = randomCloud(100, 93);
    ParticleSet tree = direct;
    DirectGravity ref;
    ref.accumulate(direct, 0.1);
    BarnesHutGravity bh(0.1);
    bh.accumulate(tree, 0.1);
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_NEAR(tree.ax[i], direct.ax[i],
                    1e-3 * (std::abs(direct.ax[i]) + 1.0));
    }
}

TEST(GravitySlicing, PartialRangesComposeToFullResult)
{
    ParticleSet full = randomCloud(120, 94);
    ParticleSet sliced = full;

    BarnesHutGravity bh(0.5);
    bh.accumulate(full, 0.05);

    BarnesHutGravity bh2(0.5);
    bh2.accumulate(sliced, 0.05, 0, 60);
    bh2.accumulate(sliced, 0.05, 60, 120);

    for (std::size_t i = 0; i < full.size(); ++i)
        EXPECT_NEAR(sliced.ax[i], full.ax[i],
                    1e-12 + 1e-12 * std::abs(full.ax[i]));
}

/**
 * Reference Barnes-Hut: the same tree build and acceptance test as
 * BarnesHutGravity, walked depth-first from an explicit stack
 * (children pushed 0 -> 7, so popped 7 -> 0). The stack is a growable
 * vector, so it also serves sets whose walk keeps many siblings
 * pending. The production walk must reproduce its results bit for
 * bit: same nodes, same order, same arithmetic.
 */
class StackWalkReference
{
  public:
    explicit StackWalkReference(double theta) : theta(theta) {}

    void
    accumulate(ParticleSet &p, double softening)
    {
        const std::size_t n = p.size();
        double lo = p.x[0], hi = p.x[0];
        for (std::size_t i = 0; i < n; ++i) {
            lo = std::min({lo, p.x[i], p.y[i], p.z[i]});
            hi = std::max({hi, p.x[i], p.y[i], p.z[i]});
        }
        const double cx = 0.5 * (lo + hi);
        const double half = 0.5 * (hi - lo) + 1e-9;
        nodes.clear();
        alloc(cx, cx, cx, half);
        for (std::size_t i = 0; i < n; ++i)
            insert(0, static_cast<int>(i), p, 0);
        finalize(0, p);
        for (std::size_t i = 0; i < n; ++i) {
            double ax = 0.0, ay = 0.0, az = 0.0, phi = 0.0;
            evaluate(p, i, softening, ax, ay, az, phi);
            p.ax[i] += ax;
            p.ay[i] += ay;
            p.az[i] += az;
            p.phi[i] = phi;
        }
    }

    std::size_t maxStack = 0;

  private:
    struct Node
    {
        double cx, cy, cz, half;
        double mass = 0.0, mx = 0.0, my = 0.0, mz = 0.0;
        std::array<int, 8> child{-1, -1, -1, -1, -1, -1, -1, -1};
        int particle = -1;
        int count = 0;
        double extraMass = 0.0, ex = 0.0, ey = 0.0, ez = 0.0;
    };

    int
    alloc(double cx, double cy, double cz, double half)
    {
        Node node;
        node.cx = cx;
        node.cy = cy;
        node.cz = cz;
        node.half = half;
        nodes.push_back(node);
        return static_cast<int>(nodes.size()) - 1;
    }

    int
    childFor(int node_idx, int pi, const ParticleSet &p)
    {
        const Node n = nodes[node_idx];
        const int oct = (p.x[pi] >= n.cx ? 1 : 0) |
                        (p.y[pi] >= n.cy ? 2 : 0) |
                        (p.z[pi] >= n.cz ? 4 : 0);
        if (n.child[oct] < 0) {
            const double q = n.half * 0.5;
            const int c = alloc(n.cx + (oct & 1 ? q : -q),
                                n.cy + (oct & 2 ? q : -q),
                                n.cz + (oct & 4 ? q : -q), q);
            nodes[node_idx].child[oct] = c;
        }
        return nodes[node_idx].child[oct];
    }

    void
    insert(int node_idx, int pi, const ParticleSet &p, int depth)
    {
        Node &node = nodes[node_idx];
        if (++node.count == 1) {
            node.particle = pi;
            return;
        }
        if (depth >= 48) {
            node.extraMass += p.m[pi];
            node.ex += p.m[pi] * p.x[pi];
            node.ey += p.m[pi] * p.y[pi];
            node.ez += p.m[pi] * p.z[pi];
            return;
        }
        if (node.particle >= 0) {
            const int resident = node.particle;
            nodes[node_idx].particle = -1;
            insert(childFor(node_idx, resident, p), resident, p,
                   depth + 1);
        }
        insert(childFor(node_idx, pi, p), pi, p, depth + 1);
    }

    void
    finalize(int node_idx, const ParticleSet &p)
    {
        double mass = nodes[node_idx].extraMass;
        double mx = nodes[node_idx].ex, my = nodes[node_idx].ey,
               mz = nodes[node_idx].ez;
        const int i = nodes[node_idx].particle;
        if (i >= 0) {
            mass += p.m[i];
            mx += p.m[i] * p.x[i];
            my += p.m[i] * p.y[i];
            mz += p.m[i] * p.z[i];
        } else {
            for (const int c : nodes[node_idx].child) {
                if (c < 0)
                    continue;
                finalize(c, p);
                const Node &ch = nodes[c];
                mass += ch.mass;
                mx += ch.mass * ch.mx;
                my += ch.mass * ch.my;
                mz += ch.mass * ch.mz;
            }
        }
        Node &node = nodes[node_idx];
        node.mass = mass;
        if (mass > 0.0) {
            node.mx = mx / mass;
            node.my = my / mass;
            node.mz = mz / mass;
        }
    }

    void
    evaluate(const ParticleSet &p, std::size_t i, double softening,
             double &ax, double &ay, double &az, double &phi)
    {
        const double eps2 = softening * softening;
        std::vector<int> stack{0};
        while (!stack.empty()) {
            const Node &node = nodes[stack.back()];
            stack.pop_back();
            if (node.mass <= 0.0)
                continue;
            const double dx = node.mx - p.x[i];
            const double dy = node.my - p.y[i];
            const double dz = node.mz - p.z[i];
            const double r2 = dx * dx + dy * dy + dz * dz;
            if (node.particle == static_cast<int>(i))
                continue;
            const double size = 2.0 * node.half;
            if (node.particle >= 0 ||
                size * size < theta * theta * r2) {
                const double d2 = r2 + eps2;
                const double inv_r = 1.0 / std::sqrt(d2);
                const double inv_r3 = inv_r * inv_r * inv_r;
                ax += node.mass * dx * inv_r3;
                ay += node.mass * dy * inv_r3;
                az += node.mass * dz * inv_r3;
                phi -= node.mass * inv_r;
                continue;
            }
            for (const int c : node.child) {
                if (c >= 0)
                    stack.push_back(c);
            }
            maxStack = std::max(maxStack, stack.size());
        }
    }

    double theta;
    std::vector<Node> nodes;
};

/** Fast-math builds (TDFE_NATIVE: -ffast-math -fno-finite-math-only,
 *  under which GCC defines __ASSOCIATIVE_MATH__ but not
 *  __FAST_MATH__) may round two copies of the same expression
 *  differently, so only the default build compares walks bitwise. */
#if defined(__FAST_MATH__) || defined(__ASSOCIATIVE_MATH__)
constexpr bool bitwiseBuild = false;
#else
constexpr bool bitwiseBuild = true;
#endif

/** Bitwise equality of two doubles (distinguishes -0.0, any NaN). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Run both walks on @p p and require bit-identical outputs. */
void
expectMatchesStackWalk(const ParticleSet &p, double theta,
                       double softening, const char *what)
{
    ParticleSet ref = p, tree = p;
    StackWalkReference(theta).accumulate(ref, softening);
    BarnesHutGravity(theta).accumulate(tree, softening);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
        mismatches += !sameBits(ref.ax[i], tree.ax[i]) ||
                      !sameBits(ref.ay[i], tree.ay[i]) ||
                      !sameBits(ref.az[i], tree.az[i]) ||
                      !sameBits(ref.phi[i], tree.phi[i]);
    }
    EXPECT_EQ(mismatches, 0u) << what << " theta " << theta;
}

/** Gaussian clumps of very different widths plus far outliers: deep,
 *  lopsided subtrees next to shallow ones. */
ParticleSet
clusteredCloud(std::uint64_t seed)
{
    ParticleSet p;
    p.resize(330);
    Rng rng(seed);
    const double centre[3][3] = {
        {0.0, 0.0, 0.0}, {3.0, -1.0, 0.5}, {-2.0, 2.5, -1.5}};
    const double width[3] = {1e-3, 0.05, 0.8};
    for (std::size_t i = 0; i < 300; ++i) {
        const std::size_t c = i % 3;
        p.x[i] = rng.normal(centre[c][0], width[c]);
        p.y[i] = rng.normal(centre[c][1], width[c]);
        p.z[i] = rng.normal(centre[c][2], width[c]);
        p.m[i] = rng.uniform(0.1, 2.0);
    }
    for (std::size_t i = 300; i < p.size(); ++i) {
        p.x[i] = rng.uniform(-20.0, 20.0);
        p.y[i] = rng.uniform(-20.0, 20.0);
        p.z[i] = rng.uniform(-20.0, 20.0);
        p.m[i] = rng.uniform(0.1, 2.0);
    }
    return p;
}

/** Groups of exactly coincident particles: each group bottoms out at
 *  the depth limit (48) and carries its surplus as extraMass. One
 *  particle has zero mass. */
ParticleSet
coincidentGroups()
{
    ParticleSet p;
    p.resize(40);
    Rng rng(95);
    for (std::size_t i = 0; i < p.size(); ++i) {
        const std::size_t g = i % 5;
        if (g < 3) {
            p.x[i] = 0.3 * static_cast<double>(g);
            p.y[i] = -0.2 * static_cast<double>(g);
            p.z[i] = 0.1;
        } else {
            p.x[i] = rng.uniform(-1.0, 1.0);
            p.y[i] = rng.uniform(-1.0, 1.0);
            p.z[i] = rng.uniform(-1.0, 1.0);
        }
        p.m[i] = rng.uniform(0.5, 1.5);
    }
    p.m[7] = 0.0;
    return p;
}

/**
 * 7 particles in octants 0..6 of each of 22 nested cubes, every
 * next cube being octant 7 of the last, plus 3 in the innermost
 * one: 157 particles in the unit cube. A depth-first walk from a
 * particle in the innermost cube opens all 22 levels and leaves 7
 * siblings pending at each.
 */
ParticleSet
nestedCorner()
{
    std::vector<std::array<double, 3>> pts;
    double c = 0.5, half = 0.5;
    for (int level = 0; level < 22; ++level) {
        const double q = 0.5 * half;
        for (int oct = 0; oct < 7; ++oct) {
            pts.push_back({c + (oct & 1 ? q : -q),
                           c + (oct & 2 ? q : -q),
                           c + (oct & 4 ? q : -q)});
        }
        c += q;
        half = q;
    }
    pts.front() = {0.0, 0.0, 0.0}; // pin the bounding cube to [0,1]
    pts.push_back({1.0, 1.0, 1.0});
    pts.push_back({c + 0.5 * half, c + 0.5 * half, c + 0.5 * half});
    pts.push_back({c - 0.5 * half, c + 0.5 * half, c - 0.5 * half});

    ParticleSet p;
    p.resize(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        p.x[i] = pts[i][0];
        p.y[i] = pts[i][1];
        p.z[i] = pts[i][2];
        p.m[i] = 1.0;
    }
    return p;
}

TEST(BarnesHut, DeepOneSidedNestingNeedsNoFixedStack)
{
    const ParticleSet set = nestedCorner();
    ASSERT_EQ(set.size(), 157u);

    // The reference walk really keeps more nodes pending than a
    // 128-entry stack holds.
    ParticleSet ref = set;
    StackWalkReference walk(0.6);
    walk.accumulate(ref, 1e-4);
    EXPECT_GT(walk.maxStack, 128u);

    // The flat walk needs no stack (FlatWalkIsBitwiseTheStackWalk
    // compares it with the reference bit for bit).
    ParticleSet tree = set;
    BarnesHutGravity bh(0.6);
    bh.accumulate(tree, 1e-4);

    ParticleSet direct = set;
    DirectGravity().accumulate(direct, 1e-4);
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_NEAR(tree.phi[i] / direct.phi[i], 1.0, 0.05) << i;
}

TEST(BarnesHut, FlatWalkIsBitwiseTheStackWalk)
{
    if (!bitwiseBuild)
        GTEST_SKIP() << "fast-math build: not bitwise comparable";
    const int before = globalThreadCount();
    for (const int threads : {1, 4}) {
        setGlobalThreadCount(threads);
        for (const double theta : {0.3, 0.6, 1.0}) {
            expectMatchesStackWalk(randomCloud(400, 96), theta, 0.05,
                                   "random");
            expectMatchesStackWalk(clusteredCloud(97), theta, 1e-4,
                                   "clustered");
            expectMatchesStackWalk(coincidentGroups(), theta, 0.01,
                                   "coincident");
            expectMatchesStackWalk(nestedCorner(), theta, 1e-4,
                                   "nested");
        }
    }
    setGlobalThreadCount(before);
}

} // namespace
