/**
 * @file
 * Self-gravity solvers: a Barnes-Hut octree (production) and a
 * direct O(N^2) summation (reference for accuracy tests). Both fill
 * accelerations and potentials with Plummer softening.
 */

#ifndef TDFE_SPH_GRAVITY_HH
#define TDFE_SPH_GRAVITY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sph/particles.hh"

namespace tdfe
{

/** Common interface of the gravity solvers. */
class GravitySolver
{
  public:
    virtual ~GravitySolver() = default;

    /**
     * Accumulate gravitational accelerations into p.ax/ay/az and
     * write potentials into p.phi for particles in [begin, end).
     *
     * @param p Particle set (positions/masses in, accel/phi out).
     * @param softening Plummer softening length.
     * @param begin First target particle.
     * @param end One past the last target (SIZE_MAX: all).
     */
    virtual void accumulate(ParticleSet &p, double softening,
                            std::size_t begin = 0,
                            std::size_t end = SIZE_MAX) = 0;
};

/** Direct pairwise summation, O(N^2); the accuracy reference. */
class DirectGravity : public GravitySolver
{
  public:
    void accumulate(ParticleSet &p, double softening,
                    std::size_t begin = 0,
                    std::size_t end = SIZE_MAX) override;
};

/**
 * Barnes-Hut octree with the standard opening-angle criterion
 * (s / d < theta accepts the node as a monopole).
 *
 * After each build the tree is flattened into walk records laid out
 * in the visit order of a depth-first walk (pre-order, children
 * 7 -> 0), each carrying the index one past its subtree. The
 * per-particle walk is then a forward scan: opening a node is `++k`
 * and accepting it (or skipping the target's own leaf) jumps to
 * `next`. No stack is kept, so tree depth is bounded only by the
 * build's depth limit.
 */
class BarnesHutGravity : public GravitySolver
{
  public:
    /** @param theta Opening angle (smaller = more accurate). */
    explicit BarnesHutGravity(double theta = 0.6);

    void accumulate(ParticleSet &p, double softening,
                    std::size_t begin = 0,
                    std::size_t end = SIZE_MAX) override;

    /** @return nodes allocated in the last tree build. */
    std::size_t nodeCount() const { return nodes.size(); }

  private:
    struct Node
    {
        /** Geometric centre and half-width of the cube. */
        double cx, cy, cz, half;
        /** Mass and centre of mass. */
        double mass = 0.0;
        double mx = 0.0, my = 0.0, mz = 0.0;
        /** Child indices (-1: empty). */
        int child[8];
        /** Particle index for leaves (-1: internal/empty). */
        int particle = -1;
        /** Number of particles under this node. */
        int count = 0;
        /** Overflow mass from depth-limited co-located particles. */
        double extraMass = 0.0;
        double ex = 0.0, ey = 0.0, ez = 0.0;
    };

    /** One node of the flattened walk. Massless subtrees are left
     *  out: the walk skips them whole. */
    struct WalkNode
    {
        /** Centre of mass and mass. */
        double mx, my, mz, mass;
        /** Squared cube edge, (2 half)^2. */
        double size2;
        /** Particle index for leaves (-1: internal). */
        int particle;
        /** Index one past this node's subtree. */
        int next;
    };

    int allocNode(double cx, double cy, double cz, double half);
    void insert(int node, int particle_idx, const ParticleSet &p,
                int depth);
    void finalize(int node, const ParticleSet &p);
    void flatten(int node);
    void evaluate(const ParticleSet &p, std::size_t i,
                  double softening, double &ax, double &ay,
                  double &az, double &phi) const;

    double theta;
    std::vector<Node> nodes;
    std::vector<WalkNode> walk;
};

} // namespace tdfe

#endif // TDFE_SPH_GRAVITY_HH
