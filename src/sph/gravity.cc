#include "sph/gravity.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace tdfe
{

namespace
{

/** Target particles per parallel chunk (each costs O(n) or a tree
 *  walk, so chunks are small). */
constexpr std::size_t gravGrain = 16;

} // namespace

void
DirectGravity::accumulate(ParticleSet &p, double softening,
                          std::size_t begin, std::size_t end)
{
    const std::size_t n = p.size();
    end = std::min(end, n);
    if (end <= begin)
        return;
    const double eps2 = softening * softening;
    parallelForRange(
        end - begin, gravGrain, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = begin + b; i < begin + e; ++i) {
                double ax = 0.0, ay = 0.0, az = 0.0, phi = 0.0;
                for (std::size_t j = 0; j < n; ++j) {
                    if (i == j)
                        continue;
                    const double dx = p.x[j] - p.x[i];
                    const double dy = p.y[j] - p.y[i];
                    const double dz = p.z[j] - p.z[i];
                    const double r2 =
                        dx * dx + dy * dy + dz * dz + eps2;
                    const double inv_r = 1.0 / std::sqrt(r2);
                    const double inv_r3 = inv_r * inv_r * inv_r;
                    ax += p.m[j] * dx * inv_r3;
                    ay += p.m[j] * dy * inv_r3;
                    az += p.m[j] * dz * inv_r3;
                    phi -= p.m[j] * inv_r;
                }
                p.ax[i] += ax;
                p.ay[i] += ay;
                p.az[i] += az;
                p.phi[i] = phi;
            }
        });
}

BarnesHutGravity::BarnesHutGravity(double theta) : theta(theta)
{
    TDFE_ASSERT(theta > 0.0 && theta < 1.5, "unreasonable theta");
}

int
BarnesHutGravity::allocNode(double cx, double cy, double cz,
                            double half)
{
    Node node;
    node.cx = cx;
    node.cy = cy;
    node.cz = cz;
    node.half = half;
    std::fill(std::begin(node.child), std::end(node.child), -1);
    nodes.push_back(node);
    return static_cast<int>(nodes.size()) - 1;
}

void
BarnesHutGravity::insert(int node_idx, int particle_idx,
                         const ParticleSet &p, int depth)
{
    Node &node = nodes[node_idx];
    ++node.count;

    if (node.count == 1) {
        node.particle = particle_idx;
        return;
    }

    // Convert a leaf into an internal node by pushing the resident
    // particle down, then insert the new one. Depth-limited: beyond
    // it, particles co-locate and only their aggregate moments are
    // kept (identity no longer matters for monopole evaluation).
    constexpr int maxDepth = 48;
    if (depth >= maxDepth) {
        const double pm = p.m[particle_idx];
        node.extraMass += pm;
        node.ex += pm * p.x[particle_idx];
        node.ey += pm * p.y[particle_idx];
        node.ez += pm * p.z[particle_idx];
        return;
    }

    auto child_for = [&](int pi) {
        const Node &n = nodes[node_idx];
        const int oct = (p.x[pi] >= n.cx ? 1 : 0) |
                        (p.y[pi] >= n.cy ? 2 : 0) |
                        (p.z[pi] >= n.cz ? 4 : 0);
        if (nodes[node_idx].child[oct] < 0) {
            const double q = n.half * 0.5;
            const double ncx = n.cx + (oct & 1 ? q : -q);
            const double ncy = n.cy + (oct & 2 ? q : -q);
            const double ncz = n.cz + (oct & 4 ? q : -q);
            const int c = allocNode(ncx, ncy, ncz, q);
            nodes[node_idx].child[oct] = c;
        }
        return nodes[node_idx].child[oct];
    };

    if (node.particle >= 0) {
        const int resident = node.particle;
        nodes[node_idx].particle = -1;
        insert(child_for(resident), resident, p, depth + 1);
    }
    insert(child_for(particle_idx), particle_idx, p, depth + 1);
}

void
BarnesHutGravity::finalize(int node_idx, const ParticleSet &p)
{
    Node &node = nodes[node_idx];
    double mass = node.extraMass;
    double mx = node.ex, my = node.ey, mz = node.ez;

    if (node.particle >= 0) {
        const int i = node.particle;
        mass += p.m[i];
        mx += p.m[i] * p.x[i];
        my += p.m[i] * p.y[i];
        mz += p.m[i] * p.z[i];
    } else {
        for (int c : node.child) {
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
    node.mass = mass;
    if (mass > 0.0) {
        node.mx = mx / mass;
        node.my = my / mass;
        node.mz = mz / mass;
    }
}

void
BarnesHutGravity::flatten(int node_idx)
{
    const Node &node = nodes[node_idx];
    if (node.mass <= 0.0)
        return;
    const std::size_t k = walk.size();
    const double size = 2.0 * node.half;
    walk.push_back(WalkNode{node.mx, node.my, node.mz, node.mass,
                            size * size, node.particle, 0});
    // A leaf is always accepted (or skipped as the target's own),
    // so only internal nodes descend.
    if (node.particle < 0) {
        for (int c = 7; c >= 0; --c) {
            if (node.child[c] >= 0)
                flatten(node.child[c]);
        }
    }
    walk[k].next = static_cast<int>(walk.size());
}

void
BarnesHutGravity::evaluate(const ParticleSet &p, std::size_t i,
                           double softening, double &ax, double &ay,
                           double &az, double &phi) const
{
    const double eps2 = softening * softening;
    const double theta2 = theta * theta;
    const int self = static_cast<int>(i);
    const int end = static_cast<int>(walk.size());
    int k = 0;
    while (k < end) {
        const WalkNode &node = walk[k];
        const double dx = node.mx - p.x[i];
        const double dy = node.my - p.y[i];
        const double dz = node.mz - p.z[i];
        const double r2 = dx * dx + dy * dy + dz * dz;

        if (node.particle == self) {
            k = node.next;
            continue;
        }
        if (node.particle >= 0 || node.size2 < theta2 * r2) {
            const double d2 = r2 + eps2;
            const double inv_r = 1.0 / std::sqrt(d2);
            const double inv_r3 = inv_r * inv_r * inv_r;
            ax += node.mass * dx * inv_r3;
            ay += node.mass * dy * inv_r3;
            az += node.mass * dz * inv_r3;
            phi -= node.mass * inv_r;
            k = node.next;
            continue;
        }
        ++k;
    }
}

void
BarnesHutGravity::accumulate(ParticleSet &p, double softening,
                             std::size_t begin, std::size_t end)
{
    const std::size_t n = p.size();
    end = std::min(end, n);
    TDFE_ASSERT(n > 0, "gravity on an empty particle set");

    // Bounding cube.
    double lo = p.x[0], hi = p.x[0];
    for (std::size_t i = 0; i < n; ++i) {
        lo = std::min({lo, p.x[i], p.y[i], p.z[i]});
        hi = std::max({hi, p.x[i], p.y[i], p.z[i]});
    }
    const double cx = 0.5 * (lo + hi);
    const double half = 0.5 * (hi - lo) + 1e-9;

    nodes.clear();
    nodes.reserve(2 * n);
    allocNode(cx, cx, cx, half);
    for (std::size_t i = 0; i < n; ++i)
        insert(0, static_cast<int>(i), p, 0);
    finalize(0, p);
    walk.clear();
    flatten(0);

    if (end <= begin)
        return;

    parallelForRange(
        end - begin, gravGrain, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = begin + b; i < begin + e; ++i) {
                double ax = 0.0, ay = 0.0, az = 0.0, phi = 0.0;
                evaluate(p, i, softening, ax, ay, az, phi);
                p.ax[i] += ax;
                p.ay[i] += ay;
                p.az[i] += az;
                p.phi[i] = phi;
            }
        });
}

} // namespace tdfe
