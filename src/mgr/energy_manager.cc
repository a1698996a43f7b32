#include "mgr/energy_manager.hh"

#include <algorithm>
#include <cmath>

#include "sim/log.hh"

namespace dvfs::mgr {

namespace {

/** Per-thread scaling model used inside the manager: CRIT + BURST. */
constexpr pred::ModelSpec kModel{pred::BaseEstimator::Crit, true};

} // namespace

EnergyManager::EnergyManager(os::System &sys, pred::RunRecorder &rec,
                             const power::VfTable &table,
                             const ManagerConfig &cfg)
    : _sys(sys), _rec(rec), _table(table), _cfg(cfg),
      _dep(kModel, /*across_epochs=*/true)
{
    if (_cfg.quantum == 0)
        fatal("energy manager quantum must be positive");
    if (_cfg.holdOff == 0)
        fatal("energy manager hold-off must be at least one interval");
    if (!std::isfinite(_cfg.tolerableSlowdown) ||
        _cfg.tolerableSlowdown < 0.0)
        fatal("tolerable slowdown must be finite and non-negative");
    if (!std::isfinite(_cfg.maxCredibleSlowdown) ||
        _cfg.maxCredibleSlowdown <= 0.0)
        fatal("max credible slowdown must be finite and positive");
    if (_cfg.maxBackoff == 0)
        fatal("oscillation backoff cap must be at least 1");
    if (_table.points().empty())
        fatal("energy manager needs a non-empty operating-point table");
}

void
EnergyManager::attach()
{
    // The application always starts at the highest frequency; the
    // first interval profiles it there (Section VI-A).
    _sys.setFrequency(_table.highest());
    _quantumStart = _sys.now();
    _prevFreq = _table.highest();
    _sinceChange = _cfg.holdOff;  // allow a decision at the first quantum
    _sys.eventQueue().schedule(_sys.now() + _cfg.quantum,
                               [this] { onQuantum(); });
}

bool
EnergyManager::credibleSlowdown(double slowdown) const
{
    // Tiny negatives are rounding; anything clearly below zero claims
    // a lower frequency makes the program faster and means the
    // predictor is broken.
    return std::isfinite(slowdown) && slowdown >= -0.01 &&
           slowdown <= _cfg.maxCredibleSlowdown;
}

double
EnergyManager::predictSlowdown(std::size_t epoch_first,
                               std::size_t epoch_last, Tick t_ref,
                               double r_cand, bool &used_epochs) const
{
    Tick t_p = predictQuantum(epoch_first, epoch_last, r_cand,
                              used_epochs);
    return static_cast<double>(t_p) / static_cast<double>(t_ref) - 1.0;
}

Tick
EnergyManager::predictQuantum(std::size_t epoch_first,
                              std::size_t epoch_last, double ratio,
                              bool &used_epochs) const
{
    if (epoch_last > epoch_first) {
        DVFS_ASSERT(epoch_first == _termsFirst && epoch_last == _termsLast,
                    "quantum prediction outside the compacted span");
        used_epochs = true;
        return _dep.predictTerms(_terms, ratio);
    }

    // No synchronization activity this quantum: fall back to the
    // aggregate per-thread deltas (M+CRIT-style within the quantum).
    used_epochs = false;
    Tick best = 0;
    for (std::size_t i = 0; i < _sys.numThreads(); ++i) {
        const os::Thread &t = _sys.thread(static_cast<os::ThreadId>(i));
        uarch::PerfCounters delta = t.counters;
        if (i < _lastCounters.size())
            delta = delta - _lastCounters[i];
        if (delta.busyTime == 0)
            continue;
        best = std::max(best, pred::predictSpan(delta.busyTime, delta,
                                                kModel, ratio));
    }
    return best;
}

void
EnergyManager::onQuantum()
{
    ++_quanta;
    const auto &epochs = _rec.epochs();
    const std::size_t first = _epochCursor;
    const std::size_t last = epochs.size();
    const Frequency f_cur = _sys.frequency();
    const Frequency f_max = _table.highest();

    ++_sinceChange;
    if (_sinceChange >= _cfg.holdOff * _backoff) {
        bool used_epochs = false;

        // The quantum's epochs are reduced once; every candidate below
        // reruns only the scaling arithmetic over them.
        _dep.compactEpochs(epochs, first, last, _terms);
        _termsFirst = first;
        _termsLast = last;

        // Step 1: what would this quantum have taken at the highest
        // frequency?
        const double r_max = static_cast<double>(f_cur.toMHz()) /
                             static_cast<double>(f_max.toMHz());
        Tick t_ref = predictQuantum(first, last, r_max, used_epochs);

        // Step 2: lowest candidate whose predicted slowdown stays
        // inside the bound. A prediction the manager cannot trust
        // aborts the search: degraded mode pins the machine at the
        // highest point, which always satisfies the bound.
        Frequency chosen = f_max;
        double chosen_slowdown = 0.0;
        bool fallback = false;
        if (t_ref > 0) {
            for (const auto &p : _table.points()) {
                const double r = static_cast<double>(f_cur.toMHz()) /
                                 static_cast<double>(p.freq.toMHz());
                double slowdown = predictSlowdown(first, last, t_ref, r,
                                                  used_epochs);
                if (!credibleSlowdown(slowdown)) {
                    chosen = f_max;
                    chosen_slowdown = 0.0;
                    fallback = true;
                    break;
                }
                if (slowdown <= _cfg.tolerableSlowdown) {
                    chosen = p.freq;
                    chosen_slowdown = slowdown;
                    break;  // points ascend: first hit is the lowest
                }
            }
        }

        if (fallback) {
            debugLog("quantum %llu: implausible slowdown prediction, "
                     "falling back to %u MHz",
                     static_cast<unsigned long long>(_quanta),
                     f_max.toMHz());
        }
        if (chosen != f_cur) {
            // A->B->A flips mean the quantum signal straddles the
            // decision boundary: back off exponentially so the
            // regulator settles instead of thrashing.
            if (chosen == _prevFreq)
                _backoff = std::min(_backoff * 2, _cfg.maxBackoff);
            else
                _backoff = 1;
            _prevFreq = f_cur;
            _sinceChange = 0;
        }
        _sys.setFrequency(chosen);
        _decisions.push_back(Decision{_sys.now(), chosen,
                                      chosen_slowdown, used_epochs,
                                      fallback});
    }

    // Roll the window.
    _epochCursor = last;
    _lastCounters.resize(_sys.numThreads());
    for (std::size_t i = 0; i < _sys.numThreads(); ++i)
        _lastCounters[i] = _sys.thread(static_cast<os::ThreadId>(i)).counters;
    _quantumStart = _sys.now();

    _sys.eventQueue().schedule(_sys.now() + _cfg.quantum,
                               [this] { onQuantum(); });
}

} // namespace dvfs::mgr
