/**
 * @file
 * The event traffic the kernel is sized for.
 *
 * EventQueue is a small indexed heap because the simulator never keeps
 * more than a handful of events pending: one per busy core, the
 * timeslice and sampling timers, and a manager quantum. The pool's
 * high-water mark (entriesAllocated) is the most entries ever in use at
 * once, the firing one included. These tests pin it for every DaCapo
 * benchmark at 1 GHz on the golden machine seed, exact and sampled,
 * and under fig10's managed-sampling recipe. Measured on every
 * benchmark: 6 exact, 7 sampled, 8 managed-sampled (the manager's
 * quantum timer is the eighth). A change that lets pending events
 * pile up fails here on any host, before it shows as a slowdown.
 */

#include <gtest/gtest.h>

#include "exp/experiment.hh"
#include "exp/sweep/sweep.hh"
#include "power/vf_table.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace {

/** The most entries the kernel's pool may ever hold in these runs. */
constexpr std::size_t kMaxEventEntries = 8;

exp::RunOptions
goldenOptions(exp::SimMode mode)
{
    exp::RunOptions ro;
    ro.seed = exp::sweep::SweepSpec::replicateSeeds(42, 1)[0];
    ro.mode = mode;
    return ro;
}

void
expectFixedTraffic(exp::SimMode mode)
{
    const exp::RunOptions ro = goldenOptions(mode);
    for (const wl::WorkloadParams &params : wl::dacapoSuite()) {
        const auto out = exp::runFixed(params, Frequency::ghz(1.0), ro);
        EXPECT_GT(out.eventEntries, 0u) << params.name;
        EXPECT_LE(out.eventEntries, kMaxEventEntries) << params.name;
    }
}

} // namespace

TEST(EventTraffic, ExactDaCapoCellsKeepFewEventsPending)
{
    expectFixedTraffic(exp::SimMode::Exact);
}

TEST(EventTraffic, SampledDaCapoCellsKeepFewEventsPending)
{
    expectFixedTraffic(exp::SimMode::Sampled);
}

TEST(EventTraffic, ManagedSampledDaCapoCellsKeepFewEventsPending)
{
    // fig10's managed-sampling recipe.
    exp::RunOptions ro = goldenOptions(exp::SimMode::Sampled);
    ro.sampling.detailWindow = 10 * kTicksPerUs;
    ro.sampling.gapWindow = 980 * kTicksPerUs;
    ro.sampling.maxGapWindow = 7840 * kTicksPerUs;
    ro.sampling.driftThresholdPermille = 200;
    for (const wl::WorkloadParams &params : wl::dacapoSuite()) {
        const auto out = exp::runManaged(params, mgr::ManagerConfig{},
                                         power::VfTable::haswell(), ro);
        EXPECT_GT(out.eventEntries, 0u) << params.name;
        EXPECT_LE(out.eventEntries, kMaxEventEntries) << params.name;
    }
}
