/**
 * @file
 * The serving workloads (serve-small, serve-large): the dvfsd binary
 * driven by perfbench's own open-loop loader.
 *
 * Request i of a phase is due at start + i/rate and its latency counts
 * from that due time. The loader is one thread driving two connections.
 * Every reply is
 * checked against an in-process Service::handle on the same frame; a
 * shed, an Error reply, a timeout or a mismatch is a failure and a
 * miss of the latency limit.
 */

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hh"
#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "net/proto.hh"
#include "net/socket.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"
#include "sim/log.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace perfbench {

namespace {

using Bytes = std::vector<std::uint8_t>;

/** SplitMix64: per-request randomness from (seed, i). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

enum Kind { Predict, WhatIf, Optimal, Upload, Stats, kKinds };
const char *const kKindNames[kKinds] = {"predict", "whatif", "optimal",
                                        "upload", "stats"};

/** Outcome of one request. */
enum Status { Ok, Shed, ErrorReply, Timeout, Mismatch };

/** dvfsd pool width in both serve workloads. */
constexpr unsigned kDaemonWorkers = 2;

/** The shape of one serve workload. */
struct Profile {
    std::vector<std::string> benchmarks;
    double lowRps = 0, highRps = 0;
    double limitMs = 0;           ///< latency limit on the p99
    std::vector<double> ladder;   ///< rates probed for max_rps_slo
    double graceS = 0;            ///< wait for replies after the last due
    unsigned setupReps = 0;       ///< set-ups per run (median reported)
    bool rotate = false;          ///< rotating large-trace working set
};

Profile
profileFor(bool large)
{
    Profile p;
    if (large) {
        p.benchmarks = {"avrora", "lusearch"};
        p.lowRps = 10;
        p.highRps = 15;
        p.limitMs = 500;
        p.ladder = {10, 20, 30, 40, 50, 60};
        p.graceS = 5;
        p.setupReps = 4;
        p.rotate = true;
    } else {
        p.benchmarks = {"pmd.scale", "sunflow", "lusearch.fix"};
        p.lowRps = 500;
        p.highRps = 2000;
        p.limitMs = 2;
        p.ladder = {1000, 2000, 4000, 8000, 12000, 16000};
        p.graceS = 2;
        p.setupReps = 12;
    }
    return p;
}

/** One recorded trace the workload serves. */
struct TraceInput {
    std::string bench;
    std::uint32_t mhz = 0;
    Bytes image;
    std::uint64_t digest = 0;
};

/**
 * The request generator. For serve-large the four avrora traces
 * rotate through a cache sized for three of them: window k queries
 * A[k], and halfway through it uploads A[k+1], which evicts A[k-2],
 * untouched for a whole window. A backlog shorter than one window
 * therefore never evicts a trace that is still queried.
 */
class Mix
{
  public:
    Mix(const Profile &p, const std::vector<TraceInput> &traces,
        std::uint64_t seed)
        : _p(p), _traces(traces), _seed(seed)
    {
        for (std::size_t t = 0; t < traces.size(); ++t)
            (traces[t].bench == "avrora" ? _big : _small).push_back(t);
        _active = seed % 4;
    }

    /** First avrora trace uploaded last at set-up (see uploadOrder). */
    std::vector<std::size_t>
    uploadOrder() const
    {
        if (!_p.rotate) {
            std::vector<std::size_t> all(_traces.size());
            for (std::size_t i = 0; i < all.size(); ++i)
                all[i] = i;
            return all;
        }
        // Leaves A[active-2], A[active-1], A[active] cached, oldest
        // first, so the first prefetch evicts A[active-2].
        std::vector<std::size_t> order;
        for (std::size_t k = 1; k < 4; ++k)
            order.push_back(_big[(_active + k) % 4]);
        for (std::size_t t : _small)
            order.push_back(t);
        order.push_back(_big[_active]);
        return order;
    }

    struct Request {
        Kind kind;
        net::Body body;
    };

    /**
     * Request @p i of a phase of @p n requests at @p rate. Call in
     * index order; finish() commits the phase's rotation.
     */
    Request
    make(std::size_t i, double rate, std::uint64_t phase_salt)
    {
        const std::uint64_t salt = mix64(_seed ^ mix64(phase_salt));
        const std::uint64_t r = mix64(salt ^ i);
        if (!_p.rotate) {
            const std::size_t t = _small[mix64(r ^ 1) % _small.size()];
            // dvfsd_load's fixed mix: 55/25/10/5/5.
            const std::uint64_t pct = stratum(0, salt, i);
            if (pct < 55)
                return predict(t, 1000 + 250 * (mix64(r ^ 2) % 13));
            if (pct < 80)
                return whatIf(t);
            if (pct < 90)
                return optimal(t, r);
            if (pct < 95)
                return upload(t);
            return {Stats, net::StatsReq{}};
        }
        const auto window = static_cast<std::size_t>(
            std::max(16.0, std::round(rate * 2.0)));
        const std::size_t k = i / window;
        const std::size_t mid = k * window + window / 2;
        if (i == (mid % 3 == 0 ? mid + 1 : mid)) {
            _prefetches = k + 1;
            return upload(_big[(_active + k + 1) % 4]);
        }
        // dvfsd_load's mix with predict and what-if swapped, so reads
        // are what-if heavy: 55 what-if, 25 predict, 10 optimal, 5
        // upload, 5 stats. Small-trace requests turn the stats share
        // into uploads, large-trace ones the upload share into stats.
        if (i % 3 == 0) {
            // A third of the requests go to the small traces. Each is
            // touched (never by Stats, never displaced by a prefetch)
            // every twelve requests, so it stays ahead of the retiring
            // large trace in LRU order. Two thirds go to the large one,
            // so the median lies inside its latency mode.
            const std::size_t t = _small[(i / 3) % _small.size()];
            const std::uint64_t pct = stratum(1, salt, i / 3);
            if (pct < 55)
                return whatIf(t);
            if (pct < 80)
                return predict(t, 1000 * (1 + mix64(r ^ 2) % 4));
            if (pct < 90)
                return optimal(t, r);
            return upload(t);
        }
        const std::size_t t = _big[(_active + k) % 4];
        const std::uint64_t pct = stratum(2, salt, i - i / 3 - 1);
        if (pct < 55)
            return whatIf(t);
        if (pct < 80)
            return predict(t, 1000 * (1 + mix64(r ^ 2) % 4));
        if (pct < 90)
            return optimal(t, r);
        return {Stats, net::StatsReq{}};
    }

    /** Advance the rotation past the prefetches the phase issued. */
    void
    finish()
    {
        _active = (_active + _prefetches) % 4;
        _prefetches = 0;
    }

  private:
    /**
     * Where request @p n of class @p cls falls in 0..99: its position
     * in a seeded shuffle of each block of 100. Every block then holds
     * the mix's exact proportions; only their order depends on the seed.
     */
    std::uint64_t
    stratum(std::size_t cls, std::uint64_t salt, std::size_t n)
    {
        Strata &st = _strata[cls];
        const std::uint64_t key = mix64(salt ^ (n / 100) ^ (cls << 60));
        if (!st.valid || st.key != key) {
            for (std::uint8_t v = 0; v < 100; ++v)
                st.perm[v] = v;
            std::uint64_t x = key;
            for (std::size_t v = 99; v > 0; --v) {
                x = mix64(x);
                std::swap(st.perm[v], st.perm[x % (v + 1)]);
            }
            st.key = key;
            st.valid = true;
        }
        return st.perm[n % 100];
    }

    Request
    predict(std::size_t t, std::uint32_t mhz) const
    {
        net::PredictReq q;
        q.traceDigest = _traces[t].digest;
        q.targetMHz = mhz;
        return {Predict, q};
    }
    Request
    whatIf(std::size_t t) const
    {
        net::WhatIfGridReq q;
        q.traceDigest = _traces[t].digest;
        q.targetsMHz = {1000, 2000, 3000, 4000};
        return {WhatIf, q};
    }
    Request
    optimal(std::size_t t, std::uint64_t r) const
    {
        net::OptimalVfReq q;
        q.traceDigest = _traces[t].digest;
        q.slowdownPermille =
            static_cast<std::uint32_t>(50 + 50 * (mix64(r ^ 3) % 4));
        return {Optimal, q};
    }
    Request
    upload(std::size_t t) const
    {
        net::UploadTraceReq q;
        q.image = _traces[t].image;
        return {Upload, q};
    }

    const Profile &_p;
    const std::vector<TraceInput> &_traces;
    std::uint64_t _seed;
    std::vector<std::size_t> _big, _small;
    std::size_t _active = 0;
    std::size_t _prefetches = 0;
    struct Strata {
        bool valid = false;
        std::uint64_t key = 0;
        std::array<std::uint8_t, 100> perm{};
    };
    Strata _strata[3];  ///< serve-small, small traces, large traces
};

// ---------------------------------------------------------------------
// The daemon process.

class Daemon
{
  public:
    Daemon(const std::string &path, unsigned workers, std::size_t cache_mb)
    {
        int out[2];
        if (pipe(out) != 0)
            fatal("perfbench: pipe failed");
        _pid = fork();
        if (_pid < 0)
            fatal("perfbench: fork failed");
        if (_pid == 0) {
            CpuPin::release();  // the daemon gets every CPU
            dup2(out[1], STDOUT_FILENO);
            close(out[0]);
            close(out[1]);
            const std::string w = "--workers=" + std::to_string(workers);
            const std::string c = "--cache-mb=" + std::to_string(cache_mb);
            // Deep per-connection queues: a host stall delays requests
            // instead of shedding them; sheds show only past capacity.
            execl(path.c_str(), path.c_str(), "--port=0", w.c_str(),
                  c.c_str(), "--max-in-flight=4096",
                  static_cast<char *>(nullptr));
            _exit(127);
        }
        close(out[1]);
        _out = out[0];
        // "dvfsd: listening on 127.0.0.1:PORT (...)"
        std::string line;
        char ch;
        while (read(_out, &ch, 1) == 1 && ch != '\n')
            line += ch;
        const auto colon = line.rfind("127.0.0.1:");
        if (colon == std::string::npos) {
            stop();
            fatal("perfbench: dvfsd did not start: '%s'", line.c_str());
        }
        _port = static_cast<std::uint16_t>(
            std::stoul(line.substr(colon + 10)));
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;
    ~Daemon() { stop(); }

    std::uint16_t port() const { return _port; }

    /** Peak resident set so far (VmHWM), in MB. */
    double
    peakRssMb() const
    {
        std::ifstream f("/proc/" + std::to_string(_pid) + "/status");
        std::string key;
        while (f >> key) {
            if (key == "VmHWM:") {
                double kb = 0;
                f >> kb;
                return kb / 1024.0;
            }
            std::getline(f, key);
        }
        return NAN;
    }

    /** SIGTERM (graceful drain) and reap. */
    void
    stop()
    {
        if (_pid <= 0)
            return;
        kill(_pid, SIGTERM);
        int status = 0;
        waitpid(_pid, &status, 0);
        _pid = -1;
        close(_out);
    }

  private:
    pid_t _pid = -1;
    int _out = -1;
    std::uint16_t _port = 0;
};

/** Blocking request/response on a fresh connection (set-up, Stats). */
net::Frame
call(std::uint16_t port, net::Body body, std::uint64_t id = 1)
{
    const int fd = net::connectTcp(port);
    const Bytes req = net::encodeFrame(net::Frame::request(id, std::move(body)));
    net::sendAll(fd, req.data(), req.size());
    std::uint8_t hdr[net::kFrameHeaderBytes];
    if (!net::recvAll(fd, hdr, sizeof(hdr)))
        fatal("perfbench: dvfsd closed the connection");
    Bytes img(hdr, hdr + sizeof(hdr));
    img.resize(sizeof(hdr) + net::peekPayloadLength(hdr, sizeof(hdr)));
    if (!net::recvAll(fd, img.data() + sizeof(hdr),
                      img.size() - sizeof(hdr)))
        fatal("perfbench: dvfsd closed the connection");
    close(fd);
    return net::decodeFrame(img);
}

// ---------------------------------------------------------------------
// The open-loop loader.

struct Record {
    std::uint64_t id = 0;  ///< request id (index in the phase + 1)
    Kind kind = Stats;
    Status status = Timeout;
    std::int64_t dueNs = 0, sentNs = 0, replyNs = 0;
    Bytes request;  ///< encoded request frame
    Bytes reply;    ///< encoded reply frame (empty on timeout)
};

struct Phase {
    std::string name;
    double rate = 0;
    std::vector<Record> recs;
};

constexpr unsigned kConnections = 2;

/** Run one open-loop phase of @p seconds at @p rate. */
Phase
runPhase(const std::string &name, std::uint16_t port, double rate,
         double seconds, double grace_s, Mix &mix, std::uint64_t salt)
{
    Phase ph;
    ph.name = name;
    ph.rate = rate;
    const auto n = static_cast<std::size_t>(
        std::max(1.0, std::round(rate * seconds)));
    ph.recs.resize(n);
    // Frames are encoded before the clock starts, so the loader's own
    // encoding never delays a send.
    for (std::size_t i = 0; i < n; ++i) {
        Mix::Request q = mix.make(i, rate, salt);
        ph.recs[i].id = i + 1;
        ph.recs[i].kind = q.kind;
        ph.recs[i].request = net::encodeFrame(
            net::Frame::request(ph.recs[i].id, std::move(q.body)));
    }
    mix.finish();

    int fds[kConnections];
    for (unsigned c = 0; c < kConnections; ++c)
        fds[c] = net::connectTcp(port);
    const std::int64_t start = nowNs() + 20'000'000;
    const double gap_ns = 1e9 / rate;
    for (std::size_t i = 0; i < n; ++i)
        ph.recs[i].dueNs =
            start + static_cast<std::int64_t>(gap_ns * static_cast<double>(i));
    const std::int64_t deadline =
        ph.recs.back().dueNs + static_cast<std::int64_t>(grace_s * 1e9);

    // One thread drives every connection: it queues each request when
    // it falls due and, between due times, writes what the sockets take
    // and reads replies. Replies on a connection come back in request
    // order (request i goes to connection i % kConnections).
    struct Conn {
        Bytes in;                     ///< reply bytes not yet framed
        std::deque<std::size_t> out;  ///< requests not fully written
        std::size_t outOff = 0;       ///< bytes of out.front() written
        std::size_t nextReply = 0;
        bool dead = false;
    };
    Conn conns[kConnections];
    for (unsigned c = 0; c < kConnections; ++c) {
        net::setNonBlocking(fds[c]);
        conns[c].nextReply = c;
    }
    std::size_t next_send = 0, replies = 0;
    std::uint8_t chunk[1 << 16];
    while (replies < n) {
        std::int64_t now = nowNs();
        for (; next_send < n && ph.recs[next_send].dueNs <= now; ++next_send) {
            ph.recs[next_send].sentNs = now;
            conns[next_send % kConnections].out.push_back(next_send);
        }
        for (Conn &k : conns) {
            const int fd = fds[&k - conns];
            while (!k.dead && !k.out.empty()) {
                const Bytes &req = ph.recs[k.out.front()].request;
                const ssize_t w = send(fd, req.data() + k.outOff,
                                       req.size() - k.outOff,
                                       MSG_NOSIGNAL | MSG_DONTWAIT);
                if (w < 0) {
                    k.dead = errno != EAGAIN && errno != EINTR;
                    break;
                }
                k.outOff += static_cast<std::size_t>(w);
                if (k.outOff == req.size()) {
                    k.out.pop_front();
                    k.outOff = 0;
                }
            }
        }
        now = nowNs();
        if (now >= deadline)
            break;  // the rest stay Timeout
        const std::int64_t until =
            next_send < n ? ph.recs[next_send].dueNs : deadline;
        pollfd p[kConnections];
        for (unsigned c = 0; c < kConnections; ++c) {
            p[c] = pollfd{conns[c].dead ? -1 : fds[c], POLLIN, 0};
            if (!conns[c].out.empty())
                p[c].events |= POLLOUT;
        }
        const std::int64_t wait = std::max<std::int64_t>(0, until - now);
        const timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                          static_cast<long>(wait % 1'000'000'000)};
        if (ppoll(p, kConnections, &ts, nullptr) <= 0)
            continue;
        for (unsigned c = 0; c < kConnections; ++c) {
            Conn &k = conns[c];
            if (!(p[c].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t got = recv(fds[c], chunk, sizeof(chunk), 0);
            if (got <= 0) {
                k.dead = got == 0 || (errno != EAGAIN && errno != EINTR);
                continue;  // a dead connection's requests time out
            }
            k.in.insert(k.in.end(), chunk, chunk + got);
            std::size_t off = 0;
            while (k.in.size() - off >= net::kFrameHeaderBytes &&
                   k.nextReply < n) {
                std::size_t len = net::kFrameHeaderBytes;
                try {
                    len += net::peekPayloadLength(k.in.data() + off,
                                                  net::kFrameHeaderBytes);
                } catch (const net::ProtoError &) {
                    k.dead = true;  // unframeable: the rest time out
                    break;
                }
                if (k.in.size() - off < len)
                    break;
                Record &r = ph.recs[k.nextReply];
                r.replyNs = nowNs();
                r.reply.assign(
                    k.in.begin() + static_cast<std::ptrdiff_t>(off),
                    k.in.begin() + static_cast<std::ptrdiff_t>(off + len));
                off += len;
                k.nextReply += kConnections;
                ++replies;
            }
            k.in.erase(k.in.begin(),
                       k.in.begin() + static_cast<std::ptrdiff_t>(off));
        }
    }
    for (unsigned c = 0; c < kConnections; ++c)
        close(fds[c]);
    return ph;
}

/**
 * Classify every reply and check it against the in-process Service.
 * Upload replies are compared with alreadyCached taken from the served
 * reply (the daemon's cache evicts, the mirror's does not); Stats
 * replies carry live counters and are checked for type only.
 */
void
verify(Phase &ph, serve::Service &mirror,
       std::map<std::string, Bytes> &memo)
{
    for (Record &r : ph.recs) {
        if (r.reply.empty()) {
            r.status = Timeout;
            continue;
        }
        net::Frame served;
        try {
            served = net::decodeFrame(r.reply);
        } catch (const std::exception &) {
            r.status = Mismatch;
            continue;
        }
        if (const auto *err = std::get_if<net::ErrorResp>(&served.body)) {
            r.status = err->code == static_cast<std::uint32_t>(
                                        net::ErrorCode::Overloaded)
                           ? Shed
                           : ErrorReply;
            if (r.status == ErrorReply)
                std::cerr << "perfbench: " << kKindNames[r.kind]
                          << " request failed: " << err->message << "\n";
            continue;
        }
        if (r.kind == Stats) {
            r.status = std::holds_alternative<net::StatsResp>(served.body)
                           ? Ok
                           : Mismatch;
            continue;
        }
        // Memo key: the payload after the request id (type + body).
        std::string key(r.request.begin() + net::kFrameHeaderBytes + 8,
                        r.request.end());
        auto it = memo.find(key);
        if (it == memo.end()) {
            net::Frame local = mirror.handle(net::decodeFrame(r.request));
            local.requestId = 0;
            it = memo.emplace(std::move(key), net::encodeFrame(local)).first;
        }
        net::Frame expect = net::decodeFrame(it->second);
        expect.requestId = served.requestId;
        auto *up = std::get_if<net::UploadTraceResp>(&expect.body);
        const auto *sup = std::get_if<net::UploadTraceResp>(&served.body);
        if (up && sup)
            up->alreadyCached = sup->alreadyCached;
        r.status = served.requestId == r.id &&
                           net::encodeFrame(expect) == r.reply
                       ? Ok
                       : Mismatch;
    }
}

std::string
phaseJson(const Phase &ph, bool with_kinds)
{
    std::vector<double> lat, late, status, kind;
    for (const Record &r : ph.recs) {
        lat.push_back(r.replyNs ? static_cast<double>(r.replyNs - r.dueNs) / 1e6
                                : NAN);
        late.push_back(r.sentNs ? static_cast<double>(r.sentNs - r.dueNs) / 1e6
                                : NAN);
        status.push_back(static_cast<double>(r.status));
        kind.push_back(static_cast<double>(r.kind));
    }
    Json j;
    j.str("name", ph.name)
        .num("rate", ph.rate)
        .num("duration_s", static_cast<double>(ph.recs.size()) / ph.rate)
        .arr("latency_ms", lat)
        .arr("lateness_ms", late)
        .arr("status", status);
    if (with_kinds)
        j.arr("kind", kind);
    return j.done();
}

/** Request spans, reconstructed from the loader's timestamps. */
void
requestSpans(Tracer &tracer, const Phase &ph)
{
    for (std::size_t i = 0; i < ph.recs.size(); ++i) {
        const Record &r = ph.recs[i];
        if (!r.replyNs)
            continue;
        const std::uint64_t id = tracer.open();
        tracer.close(id, "request", 0, i, r.dueNs, r.replyNs);
        tracer.close(tracer.open(), "lateness", id, i, r.dueNs, r.sentNs);
        tracer.close(tracer.open(), "reply_wait", id, i, r.sentNs,
                     r.replyNs);
    }
}

/**
 * Replay request frames in process: each through encodeFrame,
 * decodeFrame and Service::handle, timed as spans.
 */
std::string
replayJson(Tracer &tracer, serve::Service &service,
           const std::vector<const Record *> &recs)
{
    std::vector<double> enc_us, dec_us, handle_us, kind;
    for (const Record *r : recs) {
        const net::Frame req = net::decodeFrame(r->request);
        const std::int64_t t0 = nowNs();
        Bytes wire;
        {
            Scope s(tracer, "encodeFrame", 0, r->id);
            wire = net::encodeFrame(req);
        }
        const std::int64_t t1 = nowNs();
        net::Frame back;
        {
            Scope s(tracer, "decodeFrame", 0, r->id);
            back = net::decodeFrame(wire);
        }
        const std::int64_t t2 = nowNs();
        {
            Scope s(tracer, "Service::handle", 0, r->id);
            service.handle(back);
        }
        const std::int64_t t3 = nowNs();
        enc_us.push_back(static_cast<double>(t1 - t0) / 1e3);
        dec_us.push_back(static_cast<double>(t2 - t1) / 1e3);
        handle_us.push_back(static_cast<double>(t3 - t2) / 1e3);
        kind.push_back(static_cast<double>(r->kind));
    }
    Json j;
    j.arr("encode_us", enc_us)
        .arr("decode_us", dec_us)
        .arr("handle_us", handle_us)
        .arr("kind", kind);
    return j.done();
}

} // namespace

std::string
inProcessServeJson(Tracer &tracer,
                   const std::vector<RecordedTrace> &recorded,
                   std::uint64_t seed)
{
    std::vector<TraceInput> traces;
    serve::TraceStore store(std::size_t{1} << 40);
    for (const RecordedTrace &t : recorded) {
        traces.push_back({t.bench, t.mhz, t.image,
                          trace::tracePayloadDigest(t.image)});
        store.put(t.image);
    }
    serve::Service service(store);
    const Profile prof = profileFor(false);
    Mix mix(prof, traces, seed);
    std::vector<Record> recs(2000);
    std::vector<const Record *> ptrs;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        Mix::Request q = mix.make(i, prof.lowRps, 0);
        recs[i].id = i + 1;
        recs[i].kind = q.kind;
        recs[i].request = net::encodeFrame(
            net::Frame::request(recs[i].id, std::move(q.body)));
        ptrs.push_back(&recs[i]);
    }
    Json j;
    j.raw("replay", replayJson(tracer, service, ptrs))
        .num("cache_hits", static_cast<double>(store.stats().hits))
        .num("cache_misses", static_cast<double>(store.stats().misses));
    return j.done();
}

namespace {

} // namespace

int
runServe(const Options &o, bool large)
{
    if (o.dvfsdPath.empty())
        fatal("perfbench: --dvfsd is required for serve workloads");
    const Profile prof = profileFor(large);
    Tracer tracer(o.trace);
    const Refs refs = Refs::load(o.refsPath);
    const std::uint64_t mseed = alternateMachineSeed(o.seed);
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;

    // ---- Inputs: record the workload's traces at the machine seed
    // --seed selects, and check each cell against its exact reference.
    std::vector<TraceInput> traces;
    for (const auto &b : prof.benchmarks)
        for (std::uint32_t mhz : {1000u, 2000u, 3000u, 4000u})
            traces.push_back({b, mhz, {}, 0});
    SimCounts counts;
    TraceLayer tl;
    {
        Scope sweep(tracer, "sweepMap", 0, 0);
        std::vector<exp::FixedRunOutput> outs =
            exp::sweep::sweepMap<exp::FixedRunOutput>(
                traces.size(), o.width, [&](std::size_t i) {
                    Scope s(tracer, "runFixed", sweep.id(), i);
                    exp::RunOptions ro;
                    ro.seed = mseed;
                    ro.measureEnergy = true;
                    return exp::runFixed(
                        wl::benchmarkByName(traces[i].bench),
                        Frequency::mhz(traces[i].mhz), ro);
                });
        for (std::size_t i = 0; i < traces.size(); ++i) {
            TraceInput &t = traces[i];
            const exp::FixedRunOutput &out = outs[i];
            const RefCell *ref = refs.find("exact", t.bench, t.mhz, mseed);
            ++attempted;
            if (!ref || ref->fingerprint != exp::sweep::fingerprintRun(out)) {
                ++failed;
                problems.push_back("recorded cell " + t.bench + " " +
                                   std::to_string(t.mhz) +
                                   " differs from its reference");
            }
            t.image = tl.encode(tracer, out.record, {t.bench, mseed}, i);
            t.digest = trace::tracePayloadDigest(t.image);
            counts.add(out.totals, out.events, out.record.epochs.size(),
                       out.collections, out.gcTime, out.totalTime);
        }
    }

    // The in-process mirror every reply is checked against; it also
    // measures each trace's decoded footprint to size the daemon cache.
    serve::TraceStore mirrorStore(std::size_t{1} << 40);
    std::vector<double> footprint;
    for (const TraceInput &t : traces) {
        const auto before = mirrorStore.stats().bytes;
        mirrorStore.put(t.image);
        footprint.push_back(
            static_cast<double>(mirrorStore.stats().bytes - before));
    }
    serve::Service mirror(mirrorStore);
    std::map<std::string, Bytes> memo;

    std::size_t cache_mb = 256;
    if (prof.rotate) {
        // Room for three avrora traces and every small one: the
        // fourth avrora trace of a rotation evicts.
        std::vector<double> big;
        double small = 0;
        for (std::size_t i = 0; i < traces.size(); ++i)
            (traces[i].bench == "avrora" ? big.push_back(footprint[i])
                                         : void(small += footprint[i]));
        std::sort(big.rbegin(), big.rend());
        cache_mb = static_cast<std::size_t>(
                       std::ceil((big[0] + big[1] + big[2] + small) /
                                 (1 << 20))) +
                   1;
    }

    // ---- Set-up, repeated: boot the daemon and upload the working
    // set. The last daemon serves the measured phases. ----
    Mix mix(prof, traces, o.seed);
    std::vector<double> setup_s;
    std::unique_ptr<Daemon> daemon;
    for (unsigned rep = 0; rep < prof.setupReps; ++rep) {
        daemon.reset();
        const CpuPin pin(rep);
        Scope setup(tracer, "setup", 0, rep);
        const std::int64_t t0 = nowNs();
        {
            Scope s(tracer, "spawn dvfsd", setup.id(), 0);
            daemon = std::make_unique<Daemon>(o.dvfsdPath,
                                              kDaemonWorkers, cache_mb);
        }
        for (std::size_t t : mix.uploadOrder()) {
            Scope s(tracer, "UploadTrace", setup.id(), t);
            net::UploadTraceReq up;
            up.image = traces[t].image;
            net::Frame reply = call(daemon->port(), std::move(up));
            const auto *resp =
                std::get_if<net::UploadTraceResp>(&reply.body);
            if (!resp || resp->traceDigest != traces[t].digest)
                fatal("perfbench: set-up upload of %s failed",
                      traces[t].bench.c_str());
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    // ---- Measured phases. ----
    std::vector<Phase> phases;
    std::uint64_t salt = 0;
    auto phase = [&](const std::string &name, double rate, double secs) {
        phases.push_back(runPhase(name, daemon->port(), rate, secs,
                                  prof.graceS, mix, ++salt));
        verify(phases.back(), mirror, memo);
        return &phases.back();
    };
    std::string ladder_json = "[]";
    if (!o.trace) {
        phase("high", prof.highRps, o.seconds);
    } else {
        // Traced run: both fixed rates, the high rate untraced and
        // traced for the overhead, then the capacity ladder last (its
        // overloaded rungs may shed; they count toward nothing else).
        const double slice = o.seconds / 5.0;
        requestSpans(tracer, *phase("low", prof.lowRps, slice));
        phase("high", prof.highRps, slice);
        requestSpans(tracer, *phase("high_traced", prof.highRps, slice));
        std::ostringstream lj;
        lj << "[";
        const double rung = 2.0 * slice / static_cast<double>(prof.ladder.size());
        for (std::size_t k = 0; k < prof.ladder.size(); ++k) {
            Phase *p = phase("ladder", prof.ladder[k],
                             std::max(rung, 40.0 / prof.ladder[k]));
            lj << (k ? "," : "") << phaseJson(*p, false);
        }
        lj << "]";
        ladder_json = lj.str();
    }

    // Server-side counters, then the daemon's memory high-water mark.
    const net::Frame stats_reply = call(daemon->port(), net::StatsReq{});
    const auto *st = std::get_if<net::StatsResp>(&stats_reply.body);
    if (!st)
        fatal("perfbench: Stats query failed");
    const double daemon_rss = daemon->peakRssMb();
    daemon->stop();

    for (const Phase &ph : phases) {
        if (ph.name == "ladder")
            continue;
        for (const Record &r : ph.recs) {
            ++attempted;
            if (r.status != Ok)
                ++failed;
        }
    }

    // ---- Accuracy of the served DEP+BURST predictions against the
    // pinned exact times (one sample per distinct trace x target). ----
    std::map<std::pair<std::uint64_t, std::uint32_t>, double> served_err;
    std::map<std::uint64_t, const TraceInput *> by_digest;
    for (const TraceInput &t : traces)
        by_digest[t.digest] = &t;
    auto actual = [&](const TraceInput &t, std::uint32_t mhz) -> double {
        const RefCell *ref = refs.find("exact", t.bench, mhz, mseed);
        return ref ? static_cast<double>(ref->totalTime) : NAN;
    };
    for (const Phase &ph : phases) {
        for (const Record &r : ph.recs) {
            if (r.status != Ok || (r.kind != Predict && r.kind != WhatIf))
                continue;
            const net::Frame req = net::decodeFrame(r.request);
            const net::Frame rep = net::decodeFrame(r.reply);
            if (const auto *q = std::get_if<net::PredictReq>(&req.body)) {
                const auto &t = *by_digest.at(q->traceDigest);
                if (q->targetMHz % 1000 || q->targetMHz == t.mhz)
                    continue;
                for (const auto &c : std::get<net::PredictResp>(rep.body).cells)
                    if (c.predictor == "DEP+BURST") {
                        const double a = actual(t, q->targetMHz);
                        served_err[{q->traceDigest, q->targetMHz}] =
                            std::fabs(static_cast<double>(c.predicted) - a) /
                            a * 100.0;
                    }
            } else if (const auto *w =
                           std::get_if<net::WhatIfGridReq>(&req.body)) {
                const auto &t = *by_digest.at(w->traceDigest);
                const auto &g = std::get<net::WhatIfGridResp>(rep.body);
                for (std::size_t p = 0; p < g.predictors.size(); ++p) {
                    if (g.predictors[p] != "DEP+BURST")
                        continue;
                    for (std::size_t k = 0; k < g.targetsMHz.size(); ++k) {
                        if (g.targetsMHz[k] == t.mhz)
                            continue;
                        const double a = actual(t, g.targetsMHz[k]);
                        served_err[{w->traceDigest, g.targetsMHz[k]}] =
                            std::fabs(static_cast<double>(
                                          g.predicted[k * g.predictors.size() + p]) -
                                      a) /
                            a * 100.0;
                    }
                }
            }
        }
    }
    std::vector<double> depburst_err;
    for (const auto &[key, e] : served_err)
        depburst_err.push_back(e);

    Json server;
    server.num("requests", static_cast<double>(st->requests))
        .num("errors", static_cast<double>(st->errors))
        .num("cache_hits", static_cast<double>(st->cacheHits))
        .num("cache_misses", static_cast<double>(st->cacheMisses))
        .num("evictions", static_cast<double>(st->cacheEvictions))
        .num("shed", static_cast<double>(st->shedOverload))
        .num("batches", static_cast<double>(st->batches))
        .num("max_batch", static_cast<double>(st->maxBatch))
        .num("cache_mb", static_cast<double>(cache_mb));

    Json out;
    out.str("family", "serve")
        .num("width", o.width)
        .num("daemon_workers", kDaemonWorkers)
        .num("limit_ms", prof.limitMs)
        .arr("setup_s", setup_s)
        .arr("depburst_err_pct", depburst_err)
        .raw("counts", counts.json().done())
        .raw("server", server.done())
        .num("peak_rss_mb", daemon_rss);
    std::ostringstream pj;
    pj << "[";
    bool first_phase = true;
    for (const Phase &ph : phases) {
        if (ph.name == "ladder")
            continue;
        pj << (first_phase ? "" : ",") << phaseJson(ph, o.trace);
        first_phase = false;
    }
    pj << "]";
    out.raw("phases", pj.str()).raw("ladder", ladder_json);

    // ---- Traced run only: replay recorded request frames in process,
    // and time the trace layer on the workload's own images. ----
    if (o.trace) {
        std::vector<const Record *> low;
        for (const Phase &ph : phases)
            if (ph.name == "low")
                for (const Record &r : ph.recs)
                    low.push_back(&r);
        low.resize(std::min<std::size_t>(low.size(), 4000));
        const trace::ReplayEngine engine;
        std::vector<trace::ReplayTarget> targets;
        for (std::uint32_t mhz : {1000u, 2000u, 3000u, 4000u})
            targets.push_back({Frequency::mhz(mhz), 0});
        for (std::size_t i = 0; i < traces.size(); ++i)
            tl.decodeAndReplay(tracer, engine, traces[i].image, targets, i);
        out.raw("replay", replayJson(tracer, mirror, low))
            .raw("trace_phase", tl.json())
            .raw("unit_costs", unitCostsJson())
            .raw("spans", spansJson(tracer.take()));
    }

    for (const auto &p : problems)
        std::cerr << "perfbench: " << p << "\n";
    out.num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed));
    writeFile(o.outPath, out.done());
    return 0;
}

} // namespace perfbench
