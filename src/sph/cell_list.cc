#include "sph/cell_list.hh"

#include "base/logging.hh"

namespace tdfe
{

void
CellList::build(const double *x, const double *y, const double *z,
                std::size_t n, double cell_size)
{
    TDFE_ASSERT(cell_size > 0.0, "cell size must be positive");
    invCell = 1.0 / cell_size;
    // Empty the live bins but keep every vector's capacity: the
    // next builds of a moving particle set need about as much.
    for (std::size_t b = 0; b < used; ++b) {
        bins[b].members.clear();
        bins[b].gathered = false;
    }
    used = 0;
    index.clear();
    index.reserve(n / 2 + 1);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t ci = cellCoord(x[i]);
        const std::int64_t cj = cellCoord(y[i]);
        const std::int64_t ck = cellCoord(z[i]);
        const std::uint64_t k = key(ci, cj, ck);
        auto it = index.find(k);
        if (it == index.end()) {
            it = index.emplace(k, used).first;
            if (used == bins.size())
                bins.emplace_back();
            Bin &bin = bins[used++];
            bin.ci = ci;
            bin.cj = cj;
            bin.ck = ck;
        }
        bins[it->second].members.push_back(i);
    }
}

} // namespace tdfe
