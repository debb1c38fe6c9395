/**
 * @file
 * Calibrated performance/energy models of the paper's baseline
 * general-purpose platforms: the Intel Xeon E5-2630 v4 running NEST
 * (or GeNN's CPU mode) and the NVIDIA Titan X (Pascal) running GeNN
 * (Section VI-A).
 *
 * The authors' testbed is not available, so the neuron-computation
 * phase of one simulation time step is modelled as
 *
 *     CPU: t = N * nsPerNeuron(benchmark)
 *     GPU: t = kernelLaunchOverhead + N * nsPerNeuron(benchmark)
 *
 * with per-benchmark coefficients calibrated so the geomean Figure 13
 * ratios of the paper are reproduced (87.4x / 8.19x for the 12-neuron
 * Flexon array, 122.5x / 9.83x for the 72-neuron folded array). The
 * per-benchmark spread follows the solver (RKF45 costs ~6x Euler in
 * derivative evaluations) and model complexity, mirroring Table I.
 *
 * The CPU column is nsPerNeuron = a 4 ns dense LLIF update x a
 * NEST-overhead factor x a per-benchmark complexity ratio.
 */

#ifndef FLEXON_HWMODEL_BASELINES_HH
#define FLEXON_HWMODEL_BASELINES_HH

#include <cstddef>

#include "nets/table1.hh"

namespace flexon {

/** Which baseline platform. */
enum class Platform {
    CpuXeon,    ///< Intel Xeon E5-2630 v4 (12 cores, 2.2 GHz), NEST
    GpuTitanX,  ///< NVIDIA Titan X (Pascal), GeNN
};

/** Printable platform name. */
const char *platformName(Platform p);

/**
 * Modelled neuron-computation time for one simulation step of a
 * benchmark with `neurons` neurons, in seconds.
 */
double neuronPhaseSeconds(Platform p, const BenchmarkSpec &spec,
                          size_t neurons);

/** Sustained package power while simulating, in watts. */
double platformPowerW(Platform p);

/**
 * Modelled per-phase share of one full simulation step (Figure 3).
 * Shares sum to 1; the split depends on the solver and on whether
 * the benchmark is GPU-native (Table I).
 */
struct PhaseShares
{
    double stimulus;
    double neuron;
    double synapse;
};

PhaseShares phaseShares(Platform p, const BenchmarkSpec &spec);

} // namespace flexon

#endif // FLEXON_HWMODEL_BASELINES_HH
