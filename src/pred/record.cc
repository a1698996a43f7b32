#include "pred/record.hh"

#include <utility>

#include "sim/log.hh"

namespace dvfs::pred {

RunRecorder::RunRecorder(os::System &sys, bool keep_events)
    : _sys(sys), _keepEvents(keep_events), _baseFreq(sys.frequency())
{
}

void
RunRecorder::onSyncEvent(const os::SyncEvent &ev, const os::System &sys)
{
    if (_keepEvents)
        _events.push_back(ev);

    switch (ev.kind) {
      case os::SyncEventKind::GcBegin:
        _gcMarks.push_back(GcPhaseMark{ev.tick, true});
        closeEpoch(ev, sys);
        break;
      case os::SyncEventKind::GcEnd:
        _gcMarks.push_back(GcPhaseMark{ev.tick, false});
        closeEpoch(ev, sys);
        break;
      default:
        closeEpoch(ev, sys);
        break;
    }
}

void
RunRecorder::closeEpoch(const os::SyncEvent &ev, const os::System &sys)
{
    const std::size_t n = sys.numThreads();
    if (_snapshots.size() < n)
        _snapshots.resize(n);

    if (ev.tick <= _epochStart)
        return;  // zero-length: deltas carry to the next real epoch

    Epoch ep;
    ep.start = _epochStart;
    ep.end = ev.tick;
    ep.boundary = ev.kind;
    ep.stallTid = (ev.kind == os::SyncEventKind::FutexWait)
                      ? ev.tid
                      : os::kNoThread;
    // The listener runs before the event's state change, so the
    // threads still marked Running — exactly the core occupants
    // (schedIn assigns the core before it emits; SchedOut, FutexWait
    // and ThreadExit emit before the core is vacated) — were
    // scheduled during the closing epoch. Reading them off the core
    // table costs at most `cores` probes instead of a walk over every
    // thread; an insertion sort restores ascending tid order, which
    // the record's fingerprint depends on.
    const os::Scheduler &sched = sys.scheduler();
    _running.clear();
    for (std::uint32_t c = 0; c < sched.cores(); ++c) {
        const os::ThreadId tid = sched.occupant(c);
        if (tid == os::kNoThread)
            continue;
        _running.push_back(tid);
        for (std::size_t j = _running.size() - 1;
             j > 0 && _running[j - 1] > tid; --j)
            std::swap(_running[j - 1], _running[j]);
    }
    // The deltas are packed straight into the arena: no per-epoch
    // allocation, and only nonzero fields take words.
    std::uint64_t *p = _arena->reserve(_running.size());
    for (const os::ThreadId tid : _running) {
        const uarch::PerfCounters &now = sys.thread(tid).counters;
        // Only counted threads have their snapshot refreshed:
        // counters committed while a thread was briefly on a core
        // between boundaries (same-tick preemptions) must carry
        // forward to the next epoch that observes the thread running,
        // or they would silently vanish from the decomposition.
        p += PackedThread::pack(p, tid, now, _snapshots[tid]);
        _snapshots[tid] = now;
    }
    ep.active = _arena->commit(p, _running.size());
    _epochs.push_back(ep);
    _epochStart = ev.tick;
}

RunRecord
RunRecorder::finalize()
{
    if (_finalized)
        fatal("RunRecorder::finalize called twice");
    _finalized = true;

    RunRecord rec;
    rec.baseFreq = _baseFreq;
    rec.totalTime = _sys.now();
    rec.epochs = std::move(_epochs);
    rec.arena = std::move(_arena);
    rec.gcMarks = std::move(_gcMarks);
    rec.events = std::move(_events);

    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        ThreadSummary s;
        s.tid = t.id;
        s.service = t.service;
        s.spawnTick = t.spawnTick;
        s.exitTick = t.exitTick != kTickNever ? t.exitTick : _sys.now();
        s.totals = t.counters;
        rec.threads.push_back(s);
    }
    return rec;
}

} // namespace dvfs::pred
