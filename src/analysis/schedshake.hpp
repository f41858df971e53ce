// Deterministic schedule fuzzer ("schedshake") for the pipelined executor.
//
// TSan and the racecheck auditor can only judge the interleavings that
// actually run, and an idle machine reliably produces the same friendly
// ones: workers cross each barrier together and claim work items in near
// lock-step. schedshake perturbs that. The executor and SpinBarrier
// declare *interleave points* — barrier entry/exit, the work-item claim
// loop, item bodies — and when a fuzz run is configured, each point rolls
// a per-thread deterministic RNG to decide whether to yield, pause-spin or
// briefly sleep there. The streams are pure functions of (seed, team tid),
// so a failing seed replays the same perturbation decisions exactly;
// tools/cake_schedshake prints the seed of any failure for replay.
//
// Enabled only in CAKE_RACECHECK builds; otherwise every entry point is a
// constexpr no-op and release objects carry no schedshake symbol (same nm
// contract as racecheck.hpp / checked.hpp).
#pragma once

#include <cstdint>

#if defined(CAKE_RACECHECK) && CAKE_RACECHECK
#define CAKE_SCHEDSHAKE_ENABLED 1
#else
#define CAKE_SCHEDSHAKE_ENABLED 0
#endif

namespace cake {
namespace schedshake {

/// Declared interleave points. The point identity is part of the RNG roll,
/// so e.g. barrier entries and item claims perturb independently.
enum class Point : int {
    kBarrierArrive = 0,
    kBarrierDepart,
    kPhaseClaim,   ///< about to claim a work item off the phase counter
    kPackItem,     ///< about to run a pack work item
    kComputeItem,  ///< about to run a compute work item
    kFlushItem,    ///< about to write a computed band back to user C
};

#if CAKE_SCHEDSHAKE_ENABLED

/// Arm the fuzzer: every interleave point perturbs with probability
/// `intensity_percent`/100, with decisions drawn from per-thread streams
/// derived from `seed`. Threads re-derive their stream on the first point
/// they hit after each configure() call.
void configure(std::uint64_t seed, int intensity_percent);

/// Disarm the fuzzer; interleave points return to plain fall-through.
void disable();

[[nodiscard]] bool active() noexcept;

/// Perturbations injected since the last configure() (for tests).
[[nodiscard]] std::uint64_t injected_count() noexcept;

void interleave_point(Point point);

#else  // !CAKE_SCHEDSHAKE_ENABLED

constexpr void configure(std::uint64_t /*seed*/, int /*intensity_percent*/)
{
}
constexpr void disable() {}
[[nodiscard]] constexpr bool active() noexcept { return false; }
[[nodiscard]] constexpr std::uint64_t injected_count() noexcept { return 0; }
constexpr void interleave_point(Point /*point*/) {}

#endif  // CAKE_SCHEDSHAKE_ENABLED

}  // namespace schedshake
}  // namespace cake
