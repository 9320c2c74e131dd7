/**
 * @file
 * Uniform-grid cell list for O(N) SPH neighbour search. Cells are
 * sized to the kernel support so neighbours of a particle lie in its
 * 27 surrounding cells.
 *
 * Traversal is organised per *cell block*: the candidate set of the
 * 27 surrounding cells is gathered once per occupied cell and build,
 * and reused for every member particle and every traversal until the
 * next build(), amortizing the hash lookups that would otherwise
 * dominate the pair loops.
 */

#ifndef TDFE_SPH_CELL_LIST_HH
#define TDFE_SPH_CELL_LIST_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/thread_pool.hh"

namespace tdfe
{

/** Sparse hashed cell grid with cell-block traversal. */
class CellList
{
  public:
    /**
     * Bin @p n particles at coordinates (x,y,z) into cells of edge
     * @p cell_size.
     */
    void build(const double *x, const double *y, const double *z,
               std::size_t n, double cell_size);

    /**
     * Visit every occupied cell assigned to @p rank (cells are dealt
     * round-robin across @p nranks). @p fn receives the member
     * particle indices of the cell and the candidate indices
     * gathered from the 27 surrounding cells.
     */
    template <typename Fn>
    void
    forEachBlock(int rank, int nranks, Fn &&fn)
    {
        for (std::size_t b = 0; b < used; ++b) {
            if (ownedBy(b, rank, nranks))
                fn(bins[b].members, candidates(b));
        }
    }

    /**
     * Parallel forEachBlock: occupied cells fan out across the
     * global pool in chunks of @p grain. Cells partition the
     * particles, so @p fn invocations touch disjoint member sets;
     * @p fn must only write per-member state. Each cell's candidate
     * list is gathered by the task that first visits the cell after
     * build() and reused by every later traversal (the density pass
     * fills it, the force pass reads it); a cell belongs to exactly
     * one chunk, so no two tasks touch the same cache entry.
     * Candidate order is that of the 27-cell scan, so per-particle
     * results are identical for any thread count.
     */
    template <typename Fn>
    void
    forEachBlockParallel(int rank, int nranks, std::size_t grain,
                         Fn &&fn)
    {
        parallelForRange(used, grain,
                         [&](std::size_t bb, std::size_t be) {
                             for (std::size_t b = bb; b < be; ++b) {
                                 if (ownedBy(b, rank, nranks))
                                     fn(bins[b].members,
                                        candidates(b));
                             }
                         });
    }

    /**
     * Visit all candidate neighbours of one point: every particle in
     * the 27 cells around it (per-particle path, used by tests and
     * one-off queries).
     */
    template <typename Fn>
    void
    forEachCandidate(double px, double py, double pz, Fn &&fn) const
    {
        forEachNeighbourCell(cellCoord(px), cellCoord(py),
                             cellCoord(pz), [&](const Bin &nb) {
                                 for (const std::size_t idx :
                                      nb.members)
                                     fn(idx);
                             });
    }

    /** @return number of occupied cells. */
    std::size_t occupiedCells() const { return used; }

  private:
    struct Bin
    {
        std::int64_t ci = 0, cj = 0, ck = 0;
        std::vector<std::size_t> members;
        /** Every particle of the 27 surrounding cells, valid once
         *  `gathered` is set. */
        std::vector<std::size_t> cand;
        bool gathered = false;
    };

    static bool
    ownedBy(std::size_t b, int rank, int nranks)
    {
        return static_cast<int>(b % static_cast<std::size_t>(
                                        nranks)) == rank;
    }

    /** Visit the occupied cells among the 27 around (ci,cj,ck), in
     *  the fixed dk, dj, di scan order. */
    template <typename Fn>
    void
    forEachNeighbourCell(std::int64_t ci, std::int64_t cj,
                         std::int64_t ck, Fn &&fn) const
    {
        for (std::int64_t dk = -1; dk <= 1; ++dk) {
            for (std::int64_t dj = -1; dj <= 1; ++dj) {
                for (std::int64_t di = -1; di <= 1; ++di) {
                    const auto it =
                        index.find(key(ci + di, cj + dj, ck + dk));
                    if (it != index.end())
                        fn(bins[it->second]);
                }
            }
        }
    }

    /** @return the candidate list of occupied cell @p b, gathered
     *  on first use after build(). */
    const std::vector<std::size_t> &
    candidates(std::size_t b)
    {
        Bin &bin = bins[b];
        if (bin.gathered)
            return bin.cand;
        bin.cand.clear();
        forEachNeighbourCell(bin.ci, bin.cj, bin.ck,
                             [&](const Bin &nb) {
                                 bin.cand.insert(bin.cand.end(),
                                                 nb.members.begin(),
                                                 nb.members.end());
                             });
        bin.gathered = true;
        return bin.cand;
    }

    std::int64_t
    cellCoord(double v) const
    {
        return static_cast<std::int64_t>(std::floor(v * invCell));
    }

    static std::uint64_t
    key(std::int64_t i, std::int64_t j, std::int64_t k)
    {
        // Pack three 21-bit signed coordinates.
        const std::uint64_t bias = 1u << 20;
        return ((static_cast<std::uint64_t>(i + bias) & 0x1fffff)
                << 42) |
               ((static_cast<std::uint64_t>(j + bias) & 0x1fffff)
                << 21) |
               (static_cast<std::uint64_t>(k + bias) & 0x1fffff);
    }

    double invCell = 1.0;
    /** bins[0, used) are the occupied cells of the last build(); the
     *  rest are spares whose (empty) vectors keep their capacity. */
    std::vector<Bin> bins;
    std::size_t used = 0;
    std::unordered_map<std::uint64_t, std::size_t> index;
};

} // namespace tdfe

#endif // TDFE_SPH_CELL_LIST_HH
