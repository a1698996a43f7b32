/**
 * @file
 * perfbench entry point and shared helpers (see bench.hh).
 *
 * Usage: perfbench <sim-exact|sim-sampled|serve-small|serve-large>
 *                  --seed=N --seconds=S --trace=0|1 --refs=FILE
 *                  --out=FILE [--dvfsd=PATH] [--width=N]
 *        perfbench pin --refs=FILE [--width=N]
 *        perfbench calibrate [--width=N]
 *
 * Each workload writes its raw measurements (samples, counters,
 * spans) as one JSON object to --out; run.py turns them into the
 * benchmark's metrics.
 */

#include "bench.hh"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "exp/experiment.hh"
#include "exp/sweep/sweep.hh"
#include "pred/registry.hh"
#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "trace/reader.hh"
#include "uarch/cache.hh"
#include "uarch/dram.hh"
#include "wl/suite.hh"

namespace perfbench {

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

std::uint64_t
Tracer::open()
{
    if (!_on)
        return 0;
    std::lock_guard<std::mutex> lock(_mtx);
    return _next++;
}

void
Tracer::close(std::uint64_t id, const char *name, std::uint64_t parent,
              std::uint64_t key, std::int64_t start, std::int64_t end)
{
    std::lock_guard<std::mutex> lock(_mtx);
    _spans.push_back(Span{name, id, parent, key, start, end});
}

std::vector<Span>
Tracer::take()
{
    std::lock_guard<std::mutex> lock(_mtx);
    return std::move(_spans);
}

void
Json::sep(const std::string &key)
{
    if (!_body.empty())
        _body += ",";
    _body += "\"" + key + "\":";
}

namespace {

std::string
fmtNum(double v)
{
    if (v != v)  // NaN has no JSON spelling
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Json &
Json::num(const std::string &key, double v)
{
    sep(key);
    _body += fmtNum(v);
    return *this;
}

Json &
Json::str(const std::string &key, const std::string &v)
{
    sep(key);
    _body += "\"" + v + "\"";
    return *this;
}

Json &
Json::arr(const std::string &key, const std::vector<double> &v)
{
    sep(key);
    _body += "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            _body += ",";
        _body += fmtNum(v[i]);
    }
    _body += "]";
    return *this;
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    sep(key);
    _body += json;
    return *this;
}

std::string
spansJson(const std::vector<Span> &spans)
{
    // Columnar: one array per field keeps large traces compact.
    std::ostringstream os;
    os << "{\"name\":[";
    for (std::size_t i = 0; i < spans.size(); ++i)
        os << (i ? "," : "") << "\"" << spans[i].name << "\"";
    auto column = [&](const char *field, auto get) {
        os << "],\"" << field << "\":[";
        for (std::size_t i = 0; i < spans.size(); ++i)
            os << (i ? "," : "") << get(spans[i]);
    };
    column("id", [](const Span &s) { return s.id; });
    column("parent", [](const Span &s) { return s.parent; });
    column("key", [](const Span &s) { return s.key; });
    column("start_ns", [](const Span &s) { return s.startNs; });
    column("end_ns", [](const Span &s) { return s.endNs; });
    os << "]}";
    return os.str();
}

void
SimCounts::add(const dvfs::uarch::PerfCounters &c, std::uint64_t ev,
               std::uint64_t ep, std::uint64_t gcs, std::uint64_t gc_ticks,
               std::uint64_t total_ticks)
{
    totals += c;
    cells += 1;
    events += static_cast<double>(ev);
    epochs += static_cast<double>(ep);
    collections += static_cast<double>(gcs);
    gcTicks += static_cast<double>(gc_ticks);
    simTicks += static_cast<double>(total_ticks);
}

Json
SimCounts::json() const
{
    Json j;
    j.num("cells", cells)
        .num("events", events)
        .num("instructions", static_cast<double>(totals.instructions))
        .num("l1_hits", static_cast<double>(totals.l1Hits))
        .num("l2_hits", static_cast<double>(totals.l2Hits))
        .num("l3_hits", static_cast<double>(totals.l3Hits))
        .num("dram_loads", static_cast<double>(totals.dramLoads))
        .num("store_bursts", static_cast<double>(totals.storeBursts))
        .num("epochs", epochs)
        .num("collections", collections)
        .num("gc_ticks", gcTicks)
        .num("sim_ticks", simTicks);
    return j;
}

std::vector<std::uint8_t>
TraceLayer::encode(Tracer &t, const dvfs::pred::RunRecord &rec,
                   const dvfs::trace::TraceMeta &meta, std::uint64_t key)
{
    const std::int64_t t0 = nowNs();
    std::vector<std::uint8_t> image;
    {
        Scope s(t, "encodeTrace", 0, key);
        image = dvfs::trace::encodeTrace(rec, meta);
    }
    encodeS += static_cast<double>(nowNs() - t0) / 1e9;
    imageBytes += static_cast<double>(image.size());
    return image;
}

std::vector<dvfs::trace::ReplayCell>
TraceLayer::decodeAndReplay(
    Tracer &t, const dvfs::trace::ReplayEngine &engine,
    const std::vector<std::uint8_t> &image,
    const std::vector<dvfs::trace::ReplayTarget> &targets, std::uint64_t key)
{
    std::int64_t t0 = nowNs();
    std::unique_ptr<dvfs::trace::LoadedTrace> loaded;
    {
        Scope s(t, "decodeTrace", 0, key);
        loaded = std::make_unique<dvfs::trace::LoadedTrace>(
            dvfs::trace::decodeTrace(image));
    }
    decodeS += static_cast<double>(nowNs() - t0) / 1e9;
    t0 = nowNs();
    std::vector<dvfs::trace::ReplayCell> cells;
    {
        Scope s(t, "ReplayEngine::evaluate", 0, key);
        cells = engine.evaluate(*loaded, targets);
    }
    replayS += static_cast<double>(nowNs() - t0) / 1e9;
    replayCells += static_cast<double>(cells.size());
    return cells;
}

std::string
TraceLayer::json() const
{
    Json j;
    j.num("image_bytes", imageBytes)
        .num("encode_s", encodeS)
        .num("decode_s", decodeS)
        .num("replay_s", replayS)
        .num("replay_cells", replayCells);
    return j.done();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << text;
    if (!f)
        dvfs::fatal("perfbench: cannot write '%s'", path.c_str());
}

std::string
Refs::keyOf(const std::string &kind, const std::string &bench,
            std::uint32_t mhz, std::uint64_t seed)
{
    return kind + " " + bench + " " + std::to_string(mhz) + " " +
           std::to_string(seed);
}

Refs
Refs::load(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        dvfs::fatal("perfbench: cannot read references '%s'",
                    path.c_str());
    Refs refs;
    std::string line;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream is(line);
        std::string kind, bench, fp;
        std::uint32_t mhz = 0;
        std::uint64_t seed = 0;
        RefCell cell;
        if (!(is >> kind >> bench >> mhz >> seed >> cell.totalTime >> fp))
            dvfs::fatal("perfbench: malformed reference line '%s'",
                        line.c_str());
        cell.fingerprint = std::stoull(fp, nullptr, 16);
        refs.add(kind, bench, mhz, seed, cell);
    }
    return refs;
}

const RefCell *
Refs::find(const std::string &kind, const std::string &bench,
           std::uint32_t mhz, std::uint64_t seed) const
{
    auto it = _cells.find(keyOf(kind, bench, mhz, seed));
    return it == _cells.end() ? nullptr : &it->second;
}

void
Refs::add(const std::string &kind, const std::string &bench,
          std::uint32_t mhz, std::uint64_t seed, RefCell cell)
{
    _cells[keyOf(kind, bench, mhz, seed)] = cell;
}

std::string
Refs::text() const
{
    std::ostringstream os;
    os << "# kind benchmark mhz machine-seed total-ticks fingerprint\n";
    for (const auto &[key, cell] : _cells) {
        char fp[32];
        std::snprintf(fp, sizeof(fp), "0x%016llx",
                      static_cast<unsigned long long>(cell.fingerprint));
        os << key << " " << cell.totalTime << " " << fp << "\n";
    }
    return os.str();
}

std::uint64_t
goldenMachineSeed()
{
    return dvfs::exp::sweep::SweepSpec::replicateSeeds(42, 1)[0];
}

namespace {
constexpr std::size_t kAlternateSeeds = 8;
}

std::uint64_t
alternateMachineSeed(std::uint64_t workload_seed)
{
    return dvfs::exp::sweep::SweepSpec::replicateSeeds(
        4242, kAlternateSeeds)[workload_seed % kAlternateSeeds];
}

std::vector<std::uint64_t>
pinnedMachineSeeds()
{
    std::vector<std::uint64_t> seeds{goldenMachineSeed()};
    for (std::uint64_t s :
         dvfs::exp::sweep::SweepSpec::replicateSeeds(4242, kAlternateSeeds))
        seeds.push_back(s);
    return seeds;
}

namespace {

/** The CPUs the process may use, captured before any pinning. */
const cpu_set_t &
allowedCpus()
{
    static const cpu_set_t mask = [] {
        cpu_set_t m;
        CPU_ZERO(&m);
        if (sched_getaffinity(0, sizeof(m), &m) != 0)
            dvfs::fatal("perfbench: sched_getaffinity failed");
        return m;
    }();
    return mask;
}

} // namespace

CpuPin::CpuPin(unsigned rep)
{
    const cpu_set_t &all = allowedCpus();
    const int n = CPU_COUNT(&all);
    int want = static_cast<int>(rep % static_cast<unsigned>(n));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &all) || want-- > 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
        return;
    }
}

CpuPin::~CpuPin()
{
    release();
}

void
CpuPin::release()
{
    sched_setaffinity(0, sizeof(cpu_set_t), &allowedCpus());
}

double
selfPeakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/** Make @p v observable so the timed loop cannot be folded away. */
void
keep(std::uint64_t v)
{
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_xor(v, std::memory_order_relaxed);
}

/** Median of per-repetition ns/op over @p reps timed loops. */
template <typename F>
double
medianNsPerOp(int reps, std::uint64_t ops, F &&loop)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        loop();
        v.push_back(static_cast<double>(nowNs() - t0) /
                    static_cast<double>(ops));
    }
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

std::string
unitCostsJson()
{
    using namespace dvfs;
    Json j;
    // The same calls BM_CacheHierarchyLoad, BM_DramRandomReads,
    // BM_EventQueueScheduleRun and BM_DepBurstPredict time.
    {
        uarch::Dram dram;
        uarch::FreqDomain uncore("uncore", Frequency::mhz(1500));
        uarch::CacheHierarchy mem(4, uarch::HierarchyConfig{}, dram,
                                  uncore);
        sim::Rng rng(2);
        Tick t = 0;
        std::uint64_t sink = 0;
        constexpr std::uint64_t kOps = 100000;
        j.num("uarch.cache_load_ns", medianNsPerOp(5, kOps, [&] {
            for (std::uint64_t i = 0; i < kOps; ++i) {
                t += 1000;
                std::uint64_t addr = rng.nextBool(0.7)
                                         ? rng.nextBounded(64 * 1024)
                                         : rng.nextBounded(1ULL << 28);
                sink += mem.load(0, addr & ~63ULL, t, Frequency::ghz(2.0))
                            .completion;
            }
        }));
        keep(sink);
    }
    {
        uarch::Dram dram;
        sim::Rng rng(1);
        Tick t = 0;
        Tick sink = 0;
        constexpr std::uint64_t kOps = 200000;
        j.num("uarch.dram_access_ns", medianNsPerOp(5, kOps, [&] {
            for (std::uint64_t i = 0; i < kOps; ++i) {
                t += 100000;
                sink += dram.read(rng.nextBounded(1ULL << 30) & ~63ULL, t);
            }
        }));
        keep(sink);
    }
    {
        constexpr std::uint64_t kOps = 100000;
        std::uint64_t sink = 0;
        j.num("sim.event_ns", medianNsPerOp(5, kOps, [&] {
            sim::EventQueue eq;
            for (std::uint64_t i = 0; i < kOps; ++i)
                eq.schedule(static_cast<Tick>((i * 7919) % 100000 + 1),
                            [&sink] { ++sink; });
            eq.run();
        }));
        keep(sink);
    }
    {
        auto params = wl::syntheticSmall(4, 300);
        params.lockProb = 0.4;
        const auto rec = exp::runFixed(params, Frequency::ghz(1.0)).record;
        auto p = pred::PredictorRegistry::instance().make(
            "DEP", {pred::BaseEstimator::Crit, true});
        constexpr std::uint64_t kOps = 2000;
        Tick sink = 0;
        j.num("pred.predict_us", medianNsPerOp(5, kOps, [&] {
                  for (std::uint64_t i = 0; i < kOps; ++i)
                      sink += p->predict(rec, Frequency::ghz(4.0));
              }) / 1e3);
        keep(sink);
    }
    return j.done();
}

namespace {

/** A fixed amount of integer work no compiler can fold away. */
std::uint64_t
spin(std::uint64_t seed)
{
    std::uint64_t x = seed | 1;
    for (int i = 0; i < 40'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

std::string
calibrationJson(unsigned width)
{
    std::int64_t t0 = nowNs();
    keep(spin(1));
    const double single = static_cast<double>(nowNs() - t0) / 1e6;

    std::vector<std::uint64_t> out(width);
    t0 = nowNs();
    {
        std::vector<std::thread> ts;
        for (unsigned w = 0; w < width; ++w)
            ts.emplace_back([&out, w] { out[w] = spin(w + 2); });
        for (auto &t : ts)
            t.join();
    }
    const double parallel = static_cast<double>(nowNs() - t0) / 1e6;
    for (auto v : out)
        keep(v);
    Json j;
    j.num("nproc", std::thread::hardware_concurrency())
        .num("width", width)
        .num("spin_ms", single)
        .num("spin_ms_at_width", parallel)
        .num("parallel_eff", single / parallel)
        .num("delivered_cores", single / parallel * width);
    return j.done();
}

} // namespace perfbench

namespace {

perfbench::Options
parseOptions(int argc, char **argv)
{
    perfbench::Options o;
    o.workload = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto eq = a.find('=');
        if (a.rfind("--", 0) != 0 || eq == std::string::npos)
            dvfs::fatal("perfbench: expected --flag=value, got '%s'",
                        a.c_str());
        const std::string k = a.substr(2, eq - 2), v = a.substr(eq + 1);
        if (k == "seed")
            o.seed = std::stoull(v);
        else if (k == "seconds")
            o.seconds = std::stod(v);
        else if (k == "trace")
            o.trace = v == "1";
        else if (k == "width")
            o.width = static_cast<unsigned>(std::stoul(v));
        else if (k == "refs")
            o.refsPath = v;
        else if (k == "dvfsd")
            o.dvfsdPath = v;
        else if (k == "out")
            o.outPath = v;
        else
            dvfs::fatal("perfbench: unknown flag '--%s'", k.c_str());
    }
    if (o.width == 0)
        dvfs::fatal("perfbench: --width must be positive");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: perfbench <sim-exact|sim-sampled|serve-small|"
                     "serve-large|pin|calibrate> --flag=value...\n";
        return 2;
    }
    const perfbench::Options o = parseOptions(argc, argv);
    if (o.workload == "calibrate") {
        std::cout << perfbench::calibrationJson(o.width) << std::endl;
        return 0;
    }
    if (o.refsPath.empty())
        dvfs::fatal("perfbench: --refs is required");
    if (o.workload == "pin")
        return perfbench::pinReferences(o);
    if (o.outPath.empty())
        dvfs::fatal("perfbench: --out is required");
    if (o.workload == "sim-exact")
        return perfbench::runSimExact(o);
    if (o.workload == "sim-sampled")
        return perfbench::runSimSampled(o);
    if (o.workload == "serve-small")
        return perfbench::runServe(o, false);
    if (o.workload == "serve-large")
        return perfbench::runServe(o, true);
    dvfs::fatal("perfbench: unknown workload '%s'", o.workload.c_str());
}
