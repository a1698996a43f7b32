/**
 * @file
 * Continuous invariant auditing for the simulated machine.
 *
 * The InvariantAuditor rides the event queue next to the workload it
 * audits: a periodic audit event checks cross-layer invariants that a
 * silent corruption would break long before any test notices —
 * monotonic time, scheduler/core-occupancy consistency, per-thread
 * busy-time conservation, and the scaling/non-scaling decomposition
 * of every closed synchronization epoch. A deadlock/livelock watchdog
 * turns "the simulation hangs forever" (an event source such as the
 * energy manager keeps the queue alive while no thread makes
 * progress) into a structured diagnostic naming the blocked threads,
 * and stops the run.
 *
 * Violations accumulate into a queryable list (the first 64 are
 * kept).
 */

#ifndef DVFS_FAULT_AUDITOR_HH
#define DVFS_FAULT_AUDITOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "os/system.hh"
#include "pred/record.hh"

namespace dvfs::fault {

/** Auditor parameters. */
struct AuditorConfig {
    /** Spacing of periodic audit passes. */
    Tick interval = 10 * kTicksPerUs;

    /**
     * No instruction retired anywhere for this long, while threads
     * are blocked, means the machine is hung. Must comfortably exceed
     * the longest legitimate all-blocked window (a GC handshake).
     */
    Tick watchdogTimeout = 2 * kTicksPerMs;
};

/** One failed invariant check. */
struct Violation {
    Tick tick = 0;
    std::string check;    ///< short check id, e.g. "sched-occupancy"
    std::string message;  ///< what exactly went wrong
};

/** Structured hang diagnostic. */
struct WatchdogReport {
    bool fired = false;
    Tick tick = 0;          ///< when the watchdog gave up
    Tick stalledSince = 0;  ///< last observed forward progress
    std::vector<os::ThreadId> blockedThreads;
    std::string message;    ///< per-thread blocked-on detail
};

/**
 * The auditor. Construct, optionally point it at a RunRecorder for
 * epoch checks, attach(), then System::run() as usual.
 */
class InvariantAuditor : public os::SyncListener
{
  public:
    explicit InvariantAuditor(os::System &sys,
                              const AuditorConfig &cfg = AuditorConfig());

    /** Enable epoch-accounting checks against @p rec (nullable). */
    void observeEpochs(const pred::RunRecorder *rec) { _rec = rec; }

    /** Register the trace listener and schedule the first audit. */
    void attach();

    /// @name SyncListener (monotonic trace-time check)
    /// @{
    void onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
        override;
    /// @}

    /// @name Results
    /// @{
    const std::vector<Violation> &violations() const { return _violations; }
    const WatchdogReport &watchdog() const { return _watchdog; }
    bool clean() const { return _violations.empty() && !_watchdog.fired; }
    std::uint64_t audits() const { return _audits; }
    std::uint64_t checksRun() const { return _checksRun; }
    const AuditorConfig &config() const { return _cfg; }
    /// @}

  private:
    void audit();
    void scheduleNext();
    void violation(const char *check, std::string message);

    void checkMonotonicTime();
    void checkSchedulerOccupancy();
    void checkThreadConservation();
    void checkEpochAccounting();
    void checkWatchdog();

    os::System &_sys;
    AuditorConfig _cfg;
    const pred::RunRecorder *_rec = nullptr;

    std::vector<Violation> _violations;
    WatchdogReport _watchdog;
    std::uint64_t _audits = 0;
    std::uint64_t _checksRun = 0;

    Tick _lastEventTick = 0;
    Tick _lastAuditTick = 0;
    std::size_t _epochCursor = 0;

    std::uint64_t _lastInstructions = 0;
    Tick _lastProgressTick = 0;
    bool _attached = false;
};

} // namespace dvfs::fault

#endif // DVFS_FAULT_AUDITOR_HH
