/**
 * @file
 * Host-speed gauge: a fixed reference kernel timed in short slices
 * interleaved with the measured work, so a run knows how fast the
 * host ran while it measured.
 *
 * The benchmark runs on a few vCPUs of a shared machine whose
 * neighbours slow every workload at once, in stretches that last
 * seconds to minutes (README.md, "Noise"). Host-time metrics are
 * therefore reported in reference-host time: each measured time is
 * divided by the gauge's slowdown, the median slice time taken around
 * it over kReferenceSliceS. A change to the simulator cannot move the
 * gauge, because the kernel calls no simulator code.
 *
 * The kernel is eight independent xorshift chains in registers. Of
 * the kernels tried (README.md, "Noise"), this one slowed most nearly
 * in step with the simulator; kernels with a working set of a few MB,
 * a large code footprint or a serial chain through memory slowed
 * about half as much.
 */

#ifndef PERFBENCH_GAUGE_HH
#define PERFBENCH_GAUGE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench
{

class HostGauge
{
  public:
    /**
     * Median slice seconds on the reference host (README.md, "Noise").
     * It only sets the scale of the normalised metrics; a comparison
     * of two commits does not depend on it.
     */
    static constexpr double kReferenceSliceS = 0.42e-3;

    /**
     * Power the slice-time ratio is raised to. Across the benchmark's
     * own runs the simulator's host time grew as the gauge's to a
     * power of 1.5 to 2, and 1.0 to 1.4 in standalone tests (README.md,
     * "Noise"); 1.5 corrects most of it without overshooting.
     */
    static constexpr double kSensitivity = 1.5;

    /** Run @p n slices of the kernel and record each one's seconds. */
    void sample(unsigned n = 1);

    /** Seconds spent in sample() so far. */
    double totalSeconds() const { return totalS_; }

    /** Number of slices recorded so far. */
    std::size_t count() const { return slices_.size(); }

    /**
     * Median of slices [@p from, @p to) over kReferenceSliceS, raised
     * to kSensitivity: 1.25 means the host ran the simulator 25% slower
     * than the reference host. 1 when the range is empty.
     */
    double slowdown(std::size_t from, std::size_t to) const;

  private:
    std::array<std::uint64_t, 8> state_{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<double> slices_;
    double totalS_ = 0.0;
    std::uint64_t sink_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_GAUGE_HH
