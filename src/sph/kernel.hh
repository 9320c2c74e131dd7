/**
 * @file
 * Cubic-spline SPH smoothing kernel (Monaghan & Lattanzio 1985),
 * the standard kernel for compressible astrophysical SPH. Defined
 * inline: the pair loops call it once per neighbour pair.
 */

#ifndef TDFE_SPH_KERNEL_HH
#define TDFE_SPH_KERNEL_HH

#include <cmath>

namespace tdfe
{

/**
 * 3D cubic spline with compact support 2h:
 *
 *   W(r,h) = sigma/h^3 * { 1 - 1.5 q^2 + 0.75 q^3        0 <= q < 1
 *                          0.25 (2 - q)^3                1 <= q < 2
 *                          0                             q >= 2 }
 *
 * with q = r/h and sigma = 1/pi.
 */
class CubicSplineKernel
{
  public:
    /** Kernel value W(r, h). */
    static double
    w(double r, double h)
    {
        const double q = r / h;
        const double norm = sigma3d / (h * h * h);
        if (q < 1.0)
            return norm * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
        if (q < 2.0) {
            const double two_q = 2.0 - q;
            return norm * 0.25 * two_q * two_q * two_q;
        }
        return 0.0;
    }

    /**
     * Scalar gradient factor g(r,h) such that
     * grad W = g(r,h) * (r_i - r_j)  (vector from j to i).
     * g = (dW/dr) / r, finite at r -> 0.
     */
    static double
    gradFactor(double r, double h)
    {
        const double q = r / h;
        const double norm = sigma3d / (h * h * h * h * h);
        if (q < 1.0) {
            // dW/dr = norm_h4 * (-3q + 2.25q^2); divide by r = q*h.
            return norm * (-3.0 + 2.25 * q);
        }
        if (q < 2.0) {
            const double two_q = 2.0 - q;
            // dW/dr = -0.75 norm_h4 (2-q)^2; divide by r.
            if (r <= 0.0)
                return 0.0;
            return -0.75 * sigma3d / (h * h * h * h) * two_q * two_q /
                   r;
        }
        return 0.0;
    }

    /** Support radius (2h). */
    static double support(double h) { return 2.0 * h; }

  private:
    static constexpr double sigma3d = 1.0 / M_PI;
};

} // namespace tdfe

#endif // TDFE_SPH_KERNEL_HH
