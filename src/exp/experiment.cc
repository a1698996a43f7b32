#include "exp/experiment.hh"

#include <cctype>
#include <cmath>
#include <optional>

#include "fault/injector.hh"
#include "sim/log.hh"

namespace dvfs::exp {

const char *
simModeName(SimMode m)
{
    switch (m) {
      case SimMode::Exact:
        return "exact";
      case SimMode::Sampled:
        return "sampled";
    }
    return "?";
}

SimMode
parseSimMode(const std::string &name, const std::string &flag)
{
    std::string low = name;
    for (char &c : low)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (low == "exact")
        return SimMode::Exact;
    if (low == "sampled")
        return SimMode::Sampled;
    fatal("%s: unknown simulation mode '%s' (expected exact|sampled)",
          flag.c_str(), name.c_str());
}

namespace {

/**
 * The sequence both harnesses share: build the machine, enable
 * sampling, then attach the recorder, the meter and, for a hardened
 * run, the fault plan and the auditor. The caller attaches anything
 * else (the manager) before run().
 */
class Harness
{
  public:
    /**
     * @param force_detail_at_gc  Sampled runs force detail windows at
     *                            GC boundaries (managed runs need
     *                            them to observe every epoch).
     */
    Harness(const wl::WorkloadParams &params, Frequency freq,
            const power::VfTable &table, const RunOptions &opts,
            bool force_detail_at_gc)
        : inst(build(params, freq, opts, force_detail_at_gc)),
          rec(*inst.sys, opts.keepEvents), meter(*inst.sys, table),
          _opts(opts)
    {
        inst.sys->addListener(&rec);
        if (opts.measureEnergy)
            meter.attach();
        if (opts.hardened) {
            _plan.emplace(*opts.hardened);
            fault::installFaults(*inst.sys, *_plan, inst.runtime.get());
            _auditor.emplace(*inst.sys);
            _auditor->observeEpochs(&rec);
            _auditor->attach();
        }
    }

    /**
     * Run to the end and fill the fields both outputs share. Fatals,
     * naming @p what and the abort reason, if the run did not finish.
     */
    template <class Out>
    os::RunResult
    run(Out &out, const std::string &what)
    {
        os::RunResult res = inst.sys->run();
        if (!res.finished)
            fatal("%s did not finish%s%s", what.c_str(),
                  res.abortReason.empty() ? "" : ": ",
                  res.abortReason.c_str());
        if (_opts.measureEnergy)
            meter.finish();

        out.totalTime = res.totalTime;
        out.energy = meter.energy();
        out.collections = inst.runtime->collections();
        out.mode = _opts.mode;
        out.eventEntries = inst.sys->eventQueue().entriesAllocated();
        if (const sim::SamplingController *sc = inst.sys->sampling())
            out.sampling = sc->finalStats();
        if (_auditor) {
            out.audit.violations = _auditor->violations();
            out.audit.audits = _auditor->audits();
            out.audit.faultFingerprint = _plan->fingerprint();
            out.audit.faultsInjected = _plan->totalInjected();
        }
        return res;
    }

    wl::BenchInstance inst;
    pred::RunRecorder rec;
    power::EnergyMeter meter;

  private:
    static wl::BenchInstance
    build(const wl::WorkloadParams &params, Frequency freq,
          const RunOptions &opts, bool force_detail_at_gc)
    {
        os::SystemConfig sys_cfg = wl::defaultSystemConfig(freq);
        sys_cfg.seed = opts.seed;
        wl::BenchInstance inst = wl::buildBenchmark(params, sys_cfg);
        if (opts.mode == SimMode::Sampled) {
            sim::SamplingConfig sc = opts.sampling;
            if (force_detail_at_gc)
                sc.forceDetailAtGc = true;
            inst.sys->enableSampling(sc);
        }
        return inst;
    }

    const RunOptions &_opts;
    std::optional<fault::FaultPlan> _plan;
    std::optional<fault::InvariantAuditor> _auditor;
};

} // namespace

FixedRunOutput
runFixed(const wl::WorkloadParams &params, Frequency freq,
         const RunOptions &opts)
{
    const power::VfTable table = power::VfTable::haswell();
    Harness h(params, freq, table, opts, false);

    FixedRunOutput out;
    os::RunResult res = h.run(
        out, strprintf("benchmark '%s' at %s", params.name.c_str(),
                       freq.toString().c_str()));
    out.freq = freq;
    out.record = h.rec.finalize();
    out.gcTime = h.inst.runtime->gcTime();
    out.allocatedBytes = h.inst.runtime->heap().totalAllocated();
    out.totals = h.inst.sys->totalCounters();
    out.events = res.events;
    return out;
}

ManagedRunOutput
runManaged(const wl::WorkloadParams &params,
           const mgr::ManagerConfig &mgr_cfg, const power::VfTable &table,
           const RunOptions &opts)
{
    // The manager's decision epochs are always observed: GC
    // boundaries force detail windows (DVFS transitions force them
    // unconditionally inside System::setFrequency).
    Harness h(params, table.highest(), table, opts, true);
    mgr::EnergyManager manager(*h.inst.sys, h.rec, table, mgr_cfg);
    manager.attach();

    ManagedRunOutput out;
    os::RunResult res = h.run(
        out, strprintf("managed run of '%s'", params.name.c_str()));
    out.decisions = manager.decisions();
    out.averageGHz = h.inst.sys->coreDomain().averageGHz(0, res.totalTime);
    out.transitions = h.inst.sys->coreDomain().transitions();
    return out;
}

double
meanAbs(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += std::fabs(x);
    return s / static_cast<double>(xs.size());
}

} // namespace dvfs::exp
