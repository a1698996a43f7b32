/**
 * @file
 * Experiment harness: canonical ways to run a benchmark and collect
 * everything the paper's evaluation needs.
 */

#ifndef DVFS_EXP_EXPERIMENT_HH
#define DVFS_EXP_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "fault/auditor.hh"
#include "fault/fault_plan.hh"
#include "mgr/energy_manager.hh"
#include "power/power_model.hh"
#include "power/vf_table.hh"
#include "pred/record.hh"
#include "sim/sampling.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

namespace dvfs::exp {

/** Simulation fidelity of a run. */
enum class SimMode {
    Exact,    ///< cycle-accurate throughout (the golden oracle)
    Sampled,  ///< detailed windows + analytically fast-forwarded gaps
};

/** Printable name of a simulation mode ("exact"/"sampled"). */
const char *simModeName(SimMode m);

/**
 * Parse a mode name, case-insensitively; fatals on anything but
 * "exact"/"sampled", naming @p flag (the CLI flag the value came
 * from) in the message.
 */
SimMode parseSimMode(const std::string &name,
                     const std::string &flag = "--mode");

/**
 * What the fault plan and invariant auditor of a hardened run
 * (RunOptions::hardened set) saw; empty otherwise. Fingerprint-neutral.
 * The watchdog needs no field: when it fires it stops the run, and a
 * run that does not finish is fatal.
 */
struct RunAudit {
    std::vector<fault::Violation> violations;
    std::uint64_t audits = 0;            ///< periodic audit passes run
    std::uint64_t faultFingerprint = 0;  ///< FaultPlan::fingerprint()
    std::uint64_t faultsInjected = 0;
};

/** Everything collected from one fixed-frequency ground-truth run. */
struct FixedRunOutput {
    Frequency freq;
    Tick totalTime = 0;
    pred::RunRecord record;
    power::EnergyBreakdown energy;
    std::uint32_t collections = 0;
    Tick gcTime = 0;
    std::uint64_t allocatedBytes = 0;
    uarch::PerfCounters totals;
    std::uint64_t events = 0;
    /** Event-queue pool high-water mark (fingerprint-neutral). */
    std::size_t eventEntries = 0;

    /** Mode the run executed under (new fields: fingerprint-neutral). */
    SimMode mode = SimMode::Exact;

    /** Sampling provenance; all-zero for exact runs. */
    sim::SampleStats sampling;

    RunAudit audit;
};

/**
 * Options shared by both canonical run harnesses (fixed, managed).
 *
 * One options struct instead of one per harness: the fields are the
 * same everywhere, and the sweep engine overrides only the seed per
 * cell.
 */
struct RunOptions {
    bool keepEvents = false;     ///< retain the raw sync-event trace
    bool measureEnergy = true;   ///< attach the energy meter
    std::uint64_t seed = 42;     ///< machine seed (workload determinism)

    /**
     * Fidelity. Sampled applies to fixed and managed runs alike:
     * runManaged forks the fast-path model per operating point and
     * forces detail windows around DVFS transitions and GC
     * boundaries (DESIGN.md section 11.7).
     */
    SimMode mode = SimMode::Exact;

    /** Window placement when mode == Sampled; ignored otherwise. */
    sim::SamplingConfig sampling;

    /**
     * Unset: the plain run. Set: install a FaultPlan with this config
     * (FaultConfig::none() for a pure audit) and attach the invariant
     * auditor, after the recorder and meter and before the manager.
     * The auditor's events change only the output's event count.
     */
    std::optional<fault::FaultConfig> hardened;
};

/**
 * Run @p params at a fixed frequency on the default Table II machine.
 * Fatals, with the abort reason, if the run does not finish.
 */
FixedRunOutput runFixed(const wl::WorkloadParams &params, Frequency freq,
                        const RunOptions &opts = RunOptions());

/** Everything collected from one energy-manager-governed run. */
struct ManagedRunOutput {
    Tick totalTime = 0;
    power::EnergyBreakdown energy;
    std::vector<mgr::EnergyManager::Decision> decisions;
    std::uint32_t collections = 0;
    double averageGHz = 0.0;
    std::uint64_t transitions = 0;
    /** Event-queue pool high-water mark (fingerprint-neutral). */
    std::size_t eventEntries = 0;

    /**
     * Mode the run executed under, and its sampling provenance
     * (all-zero for exact runs). Both are fingerprint-neutral:
     * fingerprintRun(ManagedRunOutput) digests only the observable
     * outcome, so a gapWindow=0 sampled run fingerprints identically
     * to an exact one.
     */
    SimMode mode = SimMode::Exact;
    sim::SampleStats sampling;

    RunAudit audit;
};

/**
 * Run @p params under the energy manager (which starts the machine at
 * the table's highest frequency). Fatals like runFixed.
 */
ManagedRunOutput runManaged(const wl::WorkloadParams &params,
                            const mgr::ManagerConfig &mgr_cfg,
                            const power::VfTable &table,
                            const RunOptions &opts = RunOptions());

/** Mean of absolute values. */
double meanAbs(const std::vector<double> &xs);

} // namespace dvfs::exp

#endif // DVFS_EXP_EXPERIMENT_HH
