/**
 * @file
 * Run records: everything a DVFS predictor may legally observe.
 *
 * The RunRecorder listens to the machine's synchronization trace and
 * builds the paper's epoch decomposition online (Section III-B): every
 * futex sleep/wake, scheduling event, spawn and exit closes the
 * current synchronization epoch. For each closed epoch the recorder
 * captures, per *active* (scheduled) thread, the hardware-counter
 * deltas accumulated during the epoch — precisely the bookkeeping the
 * paper's kernel module would perform by reading the per-core DVFS
 * counters on each intercepted futex call.
 */

#ifndef DVFS_PRED_RECORD_HH
#define DVFS_PRED_RECORD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "os/system.hh"
#include "os/trace.hh"
#include "pred/epoch_arena.hh"
#include "sim/time.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::pred {

/** One synchronization epoch. */
struct Epoch {
    Tick start = 0;
    Tick end = 0;

    /**
     * Threads scheduled on cores during this epoch, packed in the
     * owning record's (or live recorder's) arena.
     */
    ActiveThreads active;

    /** Event kind that closed the epoch. */
    os::SyncEventKind boundary = os::SyncEventKind::RunEnd;

    /**
     * Thread that went to sleep at the closing boundary (Algorithm 1's
     * stall_tid), or kNoThread.
     */
    os::ThreadId stallTid = os::kNoThread;

    Tick duration() const { return end - start; }
};

/** Whole-run facts about one thread. */
struct ThreadSummary {
    os::ThreadId tid = os::kNoThread;
    bool service = false;
    Tick spawnTick = 0;
    Tick exitTick = 0;  ///< end-of-run tick if the thread never exited
    uarch::PerfCounters totals;
};

/** A GC phase boundary (the COOP signal). */
struct GcPhaseMark {
    Tick tick = 0;
    bool begin = false;
};

/** Immutable record of one ground-truth run. */
struct RunRecord {
    Frequency baseFreq;  ///< frequency of the recorded (base) run
    Tick totalTime = 0;
    std::vector<Epoch> epochs;
    std::vector<ThreadSummary> threads;
    std::vector<GcPhaseMark> gcMarks;
    std::vector<os::SyncEvent> events;  ///< raw trace (diagnostics)

    /**
     * Storage behind every epochs[i].active. Copies of the record
     * share it: packed words never change once written, and appending
     * never moves them.
     */
    std::shared_ptr<EpochArena> arena = std::make_shared<EpochArena>();

    /** Append @p ep with @p active (ascending tid) packed into arena. */
    void
    appendEpoch(Epoch ep, std::span<const EpochThread> active)
    {
        ep.active = arena->append(active);
        epochs.push_back(ep);
    }
};

/**
 * Online builder of a RunRecord.
 *
 * Construct, register with System::addListener, run, then call
 * finalize() once.
 */
class RunRecorder : public os::SyncListener
{
  public:
    /**
     * @param sys          The machine to observe.
     * @param keep_events  Retain the raw event trace (memory-heavy;
     *                     enable for walkthroughs/tests only).
     */
    explicit RunRecorder(os::System &sys, bool keep_events = false);

    void onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
        override;

    /** Build the final record. Call after System::run(). */
    RunRecord finalize();

    /**
     * Epochs closed so far (live view for the energy manager). Their
     * active views stay valid while recording continues.
     */
    const std::vector<Epoch> &epochs() const { return _epochs; }

    /** GC phase marks so far. */
    const std::vector<GcPhaseMark> &gcMarks() const { return _gcMarks; }

  private:
    /** Close the epoch ending at @p ev (if it has nonzero length). */
    void closeEpoch(const os::SyncEvent &ev, const os::System &sys);

    os::System &_sys;
    bool _keepEvents;
    Frequency _baseFreq;

    Tick _epochStart = 0;
    std::vector<uarch::PerfCounters> _snapshots;
    /** Packed deltas behind _epochs; moves into the final record. */
    std::shared_ptr<EpochArena> _arena = std::make_shared<EpochArena>();
    /** Core occupants at the closing boundary, ascending tid. */
    std::vector<os::ThreadId> _running;

    std::vector<Epoch> _epochs;
    std::vector<GcPhaseMark> _gcMarks;
    std::vector<os::SyncEvent> _events;
    bool _finalized = false;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_RECORD_HH
