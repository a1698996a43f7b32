/**
 * @file
 * Shared pieces of the perfbench harness: options, clocks, the span
 * tracer, a minimal JSON writer and the pinned reference table.
 *
 * The harness measures the library from the outside: every span is
 * recorded by perfbench's own code around a call into one module's
 * public functions, never from inside the library.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "pred/record.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "uarch/perf_counters.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since the first call (one epoch for every span). */
std::int64_t nowNs();

/** Options every workload receives from the command line. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned width = 4;          ///< sweep pool / loader thread budget
    std::string refsPath;        ///< pinned exact references
    std::string dvfsdPath;       ///< daemon binary (serve-*)
    std::string outPath;         ///< raw result JSON
};

/** One recorded span: [startNs, endNs) around a call into a layer. */
struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t key = 0;     ///< cell or request id
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/**
 * In-memory span recorder. Disabled tracers hand out id 0 and record
 * nothing, so untraced runs pay one branch per call site.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : _on(on) {}

    /** Reserve a span id (0 when tracing is off). */
    std::uint64_t open();

    /** Record a finished span under a reserved id. */
    void close(std::uint64_t id, const char *name, std::uint64_t parent,
               std::uint64_t key, std::int64_t start, std::int64_t end);

    std::vector<Span> take();

  private:
    bool _on;
    std::mutex _mtx;
    std::uint64_t _next = 1;
    std::vector<Span> _spans;
};

/** RAII span: opens on construction, records on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name, std::uint64_t parent = 0,
          std::uint64_t key = 0)
        : _t(t), _name(name), _parent(parent), _key(key), _id(t.open()),
          _start(_id ? nowNs() : 0)
    {
    }
    ~Scope()
    {
        if (_id)
            _t.close(_id, _name, _parent, _key, _start, nowNs());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint64_t id() const { return _id; }

  private:
    Tracer &_t;
    const char *_name;
    std::uint64_t _parent;
    std::uint64_t _key;
    std::uint64_t _id;
    std::int64_t _start;
};

/** Append-only JSON object writer (no nesting beyond what we emit). */
class Json
{
  public:
    Json &num(const std::string &key, double v);
    Json &str(const std::string &key, const std::string &v);
    Json &arr(const std::string &key, const std::vector<double> &v);
    Json &raw(const std::string &key, const std::string &json);
    std::string done() const { return "{" + _body + "}"; }

  private:
    void sep(const std::string &key);
    std::string _body;
};

/** Simulator work of a workload's fixed-frequency cells, summed. */
struct SimCounts {
    dvfs::uarch::PerfCounters totals;
    double cells = 0, events = 0, epochs = 0, collections = 0,
           gcTicks = 0, simTicks = 0;

    void add(const dvfs::uarch::PerfCounters &c, std::uint64_t events,
             std::uint64_t epochs, std::uint64_t collections,
             std::uint64_t gc_ticks, std::uint64_t total_ticks);

    /** The counts, as fields of a JSON object callers may extend. */
    Json json() const;
};

/** Trace-layer work of a traced run, timed around each call. */
struct TraceLayer {
    double imageBytes = 0, encodeS = 0, decodeS = 0, replayS = 0,
           replayCells = 0;

    /** encodeTrace, as a span keyed @p key. */
    std::vector<std::uint8_t> encode(Tracer &t,
                                     const dvfs::pred::RunRecord &rec,
                                     const dvfs::trace::TraceMeta &meta,
                                     std::uint64_t key);

    /** decodeTrace then ReplayEngine::evaluate, as spans keyed @p key. */
    std::vector<dvfs::trace::ReplayCell>
    decodeAndReplay(Tracer &t, const dvfs::trace::ReplayEngine &engine,
                    const std::vector<std::uint8_t> &image,
                    const std::vector<dvfs::trace::ReplayTarget> &targets,
                    std::uint64_t key);

    std::string json() const;
};

/** Spans as a JSON array (for the raw result file). */
std::string spansJson(const std::vector<Span> &spans);

/** Write @p text to @p path; fatal on failure. */
void writeFile(const std::string &path, const std::string &text);

/**
 * Pinned exact (and sampled) references, one line per cell:
 * "<kind> <benchmark> <mhz> <seed> <totalTime> <fingerprint-hex>".
 * Kinds: exact, sampled, managed-exact, managed-sampled, base-sampled.
 */
struct RefCell {
    std::uint64_t totalTime = 0;
    std::uint64_t fingerprint = 0;
};

class Refs
{
  public:
    static Refs load(const std::string &path);

    /** The reference, or nullptr when the cell is not pinned. */
    const RefCell *find(const std::string &kind, const std::string &bench,
                        std::uint32_t mhz, std::uint64_t seed) const;

    void add(const std::string &kind, const std::string &bench,
             std::uint32_t mhz, std::uint64_t seed, RefCell cell);

    std::string text() const;

  private:
    static std::string keyOf(const std::string &kind,
                             const std::string &bench, std::uint32_t mhz,
                             std::uint64_t seed);
    std::map<std::string, RefCell> _cells;
};

/** The machine seed of the golden grids (sweep_bench's seed). */
std::uint64_t goldenMachineSeed();

/** Machine seed a workload seed selects from the pinned alternatives. */
std::uint64_t alternateMachineSeed(std::uint64_t workload_seed);

/** All machine seeds with pinned references. */
std::vector<std::uint64_t> pinnedMachineSeeds();

/**
 * Pins the calling thread to one CPU for one set-up repetition,
 * cycling through the CPUs it may use, and restores its mask on
 * destruction. A single-threaded set-up otherwise stays on the CPU it
 * started on. On a shared VM one slow vCPU moved a whole run's median
 * set-up time by 1.8x.
 */
class CpuPin
{
  public:
    explicit CpuPin(unsigned rep);
    ~CpuPin();
    CpuPin(const CpuPin &) = delete;
    CpuPin &operator=(const CpuPin &) = delete;

    /** Give the calling thread every CPU again (a forked child). */
    static void release();
};

/** Peak resident set of this process, in MB. */
double selfPeakRssMb();

/** The four workloads (sim.cc, serve.cc) and the reference pinning. */
int runSimExact(const Options &o);
int runSimSampled(const Options &o);
int runServe(const Options &o, bool large);
int pinReferences(const Options &o);

/** One recorded run, encoded as a .dvfstrace image. */
struct RecordedTrace {
    std::string bench;
    std::uint32_t mhz = 0;
    std::vector<std::uint8_t> image;
};

/**
 * In-process serving over @p traces: a TraceStore and Service, and
 * 2000 requests of serve-small's mix, each through encodeFrame,
 * decodeFrame and Service::handle as spans (serve.cc). Avrora traces
 * are left out of the mix, as in serve-small.
 */
std::string inProcessServeJson(Tracer &t,
                               const std::vector<RecordedTrace> &traces,
                               std::uint64_t seed);

/** Unit costs measured on the microbenches' public calls. */
std::string unitCostsJson();

/** Spin calibration: single-thread time and efficiency at width. */
std::string calibrationJson(unsigned width);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
