/**
 * @file
 * The dvfsd serving stack: trace cache, request handler, socket loop.
 *
 * Three layers, tested bottom-up with the same recorded trace image:
 *
 *  - TraceStore: digest-keyed idempotent put, LRU promotion/eviction,
 *    honest counters.
 *  - Service: every request type answered, every failure a structured
 *    Error reply, and — the property dvfsd_load --verify-live enforces
 *    in production — served predictions bit-identical to a direct
 *    ReplayEngine evaluation of the same trace.
 *  - Server: real sockets end-to-end (TCP and Unix), including the
 *    failure policy: a payload-level decode error keeps the
 *    connection, a header-level one closes it after the Error reply,
 *    and fd exhaustion pauses accepts instead of killing the daemon.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hh"
#include "net/client.hh"
#include "net/socket.hh"
#include "net/wire.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "serve/trace_store.hh"
#include "power/vf_table.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "wl/suite.hh"

using namespace dvfs;
using net::Frame;
using serve::Service;
using serve::TraceStore;

namespace {

/** Record a tiny synthetic run and encode it as a .dvfstrace image. */
std::vector<std::uint8_t>
makeImage(std::uint64_t seed)
{
    auto params = wl::syntheticSmall(2, 30);
    exp::RunOptions opts;
    opts.seed = seed;
    auto out = exp::runFixed(params, Frequency::ghz(1.0), opts);
    trace::TraceMeta meta;
    meta.workload = params.name;
    meta.seed = seed;
    return trace::encodeTrace(out.record, meta);
}

const net::ErrorResp &
requireError(const Frame &reply, net::ErrorCode code)
{
    const auto *err = std::get_if<net::ErrorResp>(&reply.body);
    EXPECT_NE(err, nullptr) << "expected an Error reply";
    if (err) {
        EXPECT_EQ(err->code, static_cast<std::uint32_t>(code))
            << err->message;
    }
    static net::ErrorResp none;
    return err ? *err : none;
}

void
storeU64(std::vector<std::uint8_t> &image, std::size_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        image[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

/** Reseal a frame's header digest after editing its payload. */
void
resealDigest(std::vector<std::uint8_t> &image)
{
    storeU64(image, 16,
             net::fnv1aBytes(image.data() + net::kFrameHeaderBytes,
                             image.size() - net::kFrameHeaderBytes));
}

/** Blocking framed receive over a raw fd (the RpcClient recv dance). */
bool
recvFrame(int fd, Frame &out)
{
    std::uint8_t header[net::kFrameHeaderBytes];
    if (!net::recvAll(fd, header, sizeof(header)))
        return false;
    const std::uint32_t length =
        net::peekPayloadLength(header, sizeof(header));
    std::vector<std::uint8_t> image(header, header + sizeof(header));
    image.resize(net::kFrameHeaderBytes + length);
    if (!net::recvAll(fd, image.data() + net::kFrameHeaderBytes, length))
        return false;
    out = net::decodeFrame(image);
    return true;
}

} // namespace

TEST(TraceStore, PutIsIdempotentByDigest)
{
    TraceStore store(64u << 20);
    const auto image = makeImage(7);

    auto first = store.put(image);
    EXPECT_FALSE(first.alreadyCached);
    EXPECT_EQ(first.digest, trace::tracePayloadDigest(image));
    ASSERT_NE(first.trace, nullptr);
    EXPECT_EQ(first.trace->meta.seed, 7u);

    auto again = store.put(image);
    EXPECT_TRUE(again.alreadyCached);
    EXPECT_EQ(again.digest, first.digest);
    EXPECT_EQ(again.trace.get(), first.trace.get());

    auto stats = store.stats();
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.reuses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.bytes, 0u);
}

TEST(TraceStore, GetCountsHitsAndMisses)
{
    TraceStore store(64u << 20);
    const auto image = makeImage(7);
    const std::uint64_t digest = store.put(image).digest;

    EXPECT_NE(store.get(digest), nullptr);
    EXPECT_EQ(store.get(digest ^ 1), nullptr);

    auto stats = store.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
}

TEST(TraceStore, EvictsLeastRecentlyUsedFirst)
{
    const auto a = makeImage(1), b = makeImage(2), c = makeImage(3);

    // Scout the per-entry decoded footprints with an unbounded store.
    TraceStore scout(1u << 30);
    scout.put(a);
    const std::size_t bytes_a = scout.stats().bytes;
    scout.put(b);
    const std::size_t bytes_ab = scout.stats().bytes;

    // A store that holds exactly two entries. Recency order decides
    // the victim: touching A after B's insert must doom B, not A.
    TraceStore store(bytes_ab);
    const std::uint64_t da = store.put(a).digest;
    const std::uint64_t db = store.put(b).digest;
    ASSERT_NE(store.get(da), nullptr);  // A is now most recent
    const std::uint64_t dc = store.put(c).digest;

    EXPECT_EQ(store.get(db), nullptr) << "LRU entry was not evicted";
    EXPECT_NE(store.get(da), nullptr);
    EXPECT_NE(store.get(dc), nullptr);
    EXPECT_EQ(store.stats().evictions, 1u);
    EXPECT_EQ(store.stats().entries, 2u);

    // Even a single entry over budget stays: a cache that cannot hold
    // one trace serves nothing.
    TraceStore tiny(bytes_a / 2 + 1);
    tiny.put(a);
    EXPECT_NE(tiny.get(da), nullptr);
    EXPECT_EQ(tiny.stats().entries, 1u);
}

TEST(ServeService, ServedPredictionsMatchDirectReplay)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);

    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    EXPECT_TRUE(upReply.isResponse);
    EXPECT_EQ(upReply.requestId, 1u);
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);
    EXPECT_EQ(upr->traceDigest, trace::tracePayloadDigest(image));
    EXPECT_EQ(upr->alreadyCached, 0u);
    EXPECT_EQ(upr->baseMHz, 1000u);

    // The ground truth: a direct ReplayEngine evaluation of the trace.
    trace::ReplayEngine engine;
    const auto loaded = trace::decodeTrace(image);
    EXPECT_EQ(upr->totalTime, loaded.totalTime);

    net::PredictReq pq;
    pq.traceDigest = upr->traceDigest;
    pq.targetMHz = 4000;
    Frame pReply = service.handle(Frame::request(2, pq));
    const auto *pr = std::get_if<net::PredictResp>(&pReply.body);
    ASSERT_NE(pr, nullptr);
    EXPECT_EQ(pr->baseTotalTime, loaded.totalTime);

    auto direct = engine.evaluate(loaded, {{Frequency::mhz(4000), 0}});
    ASSERT_EQ(pr->cells.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(pr->cells[i].predictor, direct[i].predictor);
        EXPECT_EQ(pr->cells[i].predicted, direct[i].predicted);
    }

    net::WhatIfGridReq wq;
    wq.traceDigest = upr->traceDigest;
    wq.targetsMHz = {2000, 3000};
    Frame wReply = service.handle(Frame::request(3, wq));
    const auto *wr = std::get_if<net::WhatIfGridResp>(&wReply.body);
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->predictors, engine.predictorNames());
    ASSERT_EQ(wr->predicted.size(),
              wr->predictors.size() * wr->targetsMHz.size());

    auto grid = engine.evaluate(loaded, {{Frequency::mhz(2000), 0},
                                         {Frequency::mhz(3000), 0}});
    ASSERT_EQ(wr->predicted.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i)
        EXPECT_EQ(wr->predicted[i], grid[i].predicted);
}

TEST(ServeService, OptimalVfHonorsBoundAndTable)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);
    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);

    net::OptimalVfReq oq;
    oq.traceDigest = upr->traceDigest;
    oq.slowdownPermille = 100;
    Frame reply = service.handle(Frame::request(2, oq));
    const auto *resp = std::get_if<net::OptimalVfResp>(&reply.body);
    ASSERT_NE(resp, nullptr);

    const auto table = power::VfTable::haswell(125);
    EXPECT_GE(resp->chosenMHz, table.lowest().toMHz());
    EXPECT_LE(resp->chosenMHz, table.highest().toMHz());
    // The admissibility bound the handler promises.
    EXPECT_LE(static_cast<double>(resp->predictedAtChosen),
              static_cast<double>(resp->predictedAtHighest) * 1.1);
    EXPECT_EQ(resp->microvolts,
              static_cast<std::uint64_t>(std::llround(
                  table.voltageAt(Frequency::mhz(resp->chosenMHz)) *
                  1e6)));

    // A wider bound can only lower (or keep) the chosen frequency: the
    // admissible set grows monotonically with the allowance.
    oq.slowdownPermille = 1000;
    Frame wideReply = service.handle(Frame::request(3, oq));
    const auto *wide = std::get_if<net::OptimalVfResp>(&wideReply.body);
    ASSERT_NE(wide, nullptr);
    EXPECT_LE(wide->chosenMHz, resp->chosenMHz);
}

TEST(ServeService, EveryFailureIsAStructuredErrorReply)
{
    TraceStore store(64u << 20);
    Service service(store);
    const auto image = makeImage(7);
    net::UploadTraceReq up;
    up.image = image;
    Frame upReply = service.handle(Frame::request(1, std::move(up)));
    const auto *upr = std::get_if<net::UploadTraceResp>(&upReply.body);
    ASSERT_NE(upr, nullptr);

    // Query for a digest nobody uploaded.
    net::PredictReq pq;
    pq.traceDigest = upr->traceDigest ^ 1;
    pq.targetMHz = 2000;
    requireError(service.handle(Frame::request(2, pq)),
                 net::ErrorCode::UnknownTrace);

    // A corrupt upload of a NOT-yet-cached trace: strict decode fails
    // and nothing is cached. (Corrupting an already-cached image's
    // payload would hit the digest-keyed idempotency fast path — the
    // unchanged header digest names the cached entry, which is served
    // without re-decoding.)
    net::UploadTraceReq bad;
    bad.image = makeImage(8);
    bad.image[bad.image.size() / 2] ^= 0x01;
    const Frame badReply =
        service.handle(Frame::request(3, std::move(bad)));
    const auto &err = requireError(badReply, net::ErrorCode::BadRequest);
    EXPECT_FALSE(err.message.empty());

    // Unknown predictor name.
    net::OptimalVfReq oq;
    oq.traceDigest = upr->traceDigest;
    oq.slowdownPermille = 100;
    oq.predictor = "NO-SUCH-PREDICTOR";
    requireError(service.handle(Frame::request(4, oq)),
                 net::ErrorCode::BadRequest);

    // A what-if grid with no targets.
    net::WhatIfGridReq wq;
    wq.traceDigest = upr->traceDigest;
    requireError(service.handle(Frame::request(5, wq)),
                 net::ErrorCode::BadRequest);

    // A newer client's message type: answered, not disconnected.
    Frame unknown;
    unknown.requestId = 6;
    unknown.rawType = 0x7000;
    requireError(service.handle(unknown),
                 net::ErrorCode::UnknownMessage);

    // A response frame is not a request.
    requireError(service.handle(Frame::response(7, net::StatsResp{})),
                 net::ErrorCode::BadRequest);

    // Every reply above carried its request's id.
    Frame stats = service.handle(Frame::request(8, net::StatsReq{}));
    const auto *sr = std::get_if<net::StatsResp>(&stats.body);
    ASSERT_NE(sr, nullptr);
    EXPECT_EQ(sr->requests, 8u);
    EXPECT_EQ(sr->errors, 6u);
    EXPECT_EQ(sr->tracesCached, 1u);
}

TEST(ServeServer, TcpEndToEndMatchesLocalServiceBitIdentically)
{
    serve::ServerConfig config;
    config.workers = 2;
    serve::Server server(config);
    ASSERT_NE(server.port(), 0);
    std::thread serverThread([&server] { server.run(); });

    // A local mirror of the server's application state: the same
    // request sequence must produce byte-identical replies.
    TraceStore mirrorStore(config.cacheBytes);
    Service mirror(mirrorStore);

    {
        auto client = net::RpcClient::connectTcp(server.port());
        const auto image = makeImage(7);

        net::UploadTraceReq up;
        up.image = image;
        Frame upReply = client.call(up);
        Frame upMirror =
            mirror.handle(Frame::request(upReply.requestId, up));
        EXPECT_EQ(net::encodeFrame(upReply),
                  net::encodeFrame(upMirror));
        const auto *upr =
            std::get_if<net::UploadTraceResp>(&upReply.body);
        ASSERT_NE(upr, nullptr);

        net::PredictReq pq;
        pq.traceDigest = upr->traceDigest;
        pq.targetMHz = 3000;
        Frame pReply = client.call(pq);
        Frame pMirror =
            mirror.handle(Frame::request(pReply.requestId, pq));
        EXPECT_EQ(net::encodeFrame(pReply), net::encodeFrame(pMirror));

        net::OptimalVfReq oq;
        oq.traceDigest = upr->traceDigest;
        oq.slowdownPermille = 200;
        Frame oReply = client.call(oq);
        Frame oMirror =
            mirror.handle(Frame::request(oReply.requestId, oq));
        EXPECT_EQ(net::encodeFrame(oReply), net::encodeFrame(oMirror));
    }

    server.stop();
    serverThread.join();
    EXPECT_GE(server.requestsServed(), 3u);
}

TEST(ServeServer, PayloadErrorKeepsConnectionHeaderErrorClosesIt)
{
    serve::ServerConfig config;
    config.workers = 1;
    serve::Server server(config);
    std::thread serverThread([&server] { server.run(); });

    const int fd = net::connectTcp(server.port());

    // A frame whose header is sound but whose payload is malformed
    // (nonzero reserved word, digest resealed so only the structural
    // check can catch it): the frame boundary is known, so the server
    // answers Error{BadRequest} and keeps the stream usable.
    net::PredictReq pq;
    pq.traceDigest = 1;
    pq.targetMHz = 2000;
    auto malformed = net::encodeFrame(Frame::request(1, pq));
    malformed[net::kFrameHeaderBytes + 12] = 0xff;
    resealDigest(malformed);
    net::sendAll(fd, malformed.data(), malformed.size());

    Frame reply;
    ASSERT_TRUE(recvFrame(fd, reply));
    requireError(reply, net::ErrorCode::BadRequest);

    // The connection survived: a well-formed request still answers.
    const auto stats = net::encodeFrame(
        Frame::request(2, net::StatsReq{}));
    net::sendAll(fd, stats.data(), stats.size());
    ASSERT_TRUE(recvFrame(fd, reply));
    EXPECT_EQ(reply.requestId, 2u);
    EXPECT_TRUE(std::holds_alternative<net::StatsResp>(reply.body));

    // Garbage where a header should be: the stream itself cannot be
    // trusted, so the Error reply is followed by a close.
    const std::uint8_t junk[net::kFrameHeaderBytes] = {0};
    net::sendAll(fd, junk, sizeof(junk));
    ASSERT_TRUE(recvFrame(fd, reply));
    requireError(reply, net::ErrorCode::BadRequest);
    EXPECT_FALSE(recvFrame(fd, reply))
        << "connection stayed open after a header-level error";
    ::close(fd);

    server.stop();
    serverThread.join();
}

TEST(ServeServer, UnixSocketEndToEnd)
{
    serve::ServerConfig config;
    config.unixPath = testing::TempDir() + "/dvfsd_test.sock";
    config.workers = 1;
    serve::Server server(config);
    EXPECT_EQ(server.port(), 0);
    std::thread serverThread([&server] { server.run(); });

    {
        auto client = net::RpcClient::connectUnix(config.unixPath);
        Frame reply = client.call(net::StatsReq{});
        const auto *sr = std::get_if<net::StatsResp>(&reply.body);
        ASSERT_NE(sr, nullptr);
        EXPECT_EQ(sr->requests, 1u);
    }

    server.stop();
    serverThread.join();
    // The socket file is unlinked on server destruction, not here.
}

namespace {

/** Process CPU time (all threads) in milliseconds. */
double
cpuMs()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return (ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) * 1e3 +
           (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e3;
}

/**
 * Body of the fd-exhaustion test, run in a forked child so the lowered
 * RLIMIT_NOFILE stays out of the test runner. Returns 0 on success;
 * a failed step exits the child with the step's number (returning
 * would destroy the joinable server thread and abort). A server that
 * throws out of run() aborts the child too.
 */
int
fdExhaustionChild()
{
    ::alarm(30);  // a hang fails the test instead of stalling it
    rlimit lim{64, 64};
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0)
        ::_exit(1);
    serve::ServerConfig config;
    config.workers = 1;
    serve::Server server(config);
    std::thread serverThread([&server] { server.run(); });
    auto isStats = [](const Frame &f) {
        return std::holds_alternative<net::StatsResp>(f.body);
    };

    std::optional<net::RpcClient> first =
        net::RpcClient::connectTcp(server.port());
    if (!isStats(first->call(net::StatsReq{})))
        ::_exit(2);

    // Use up every fd, then free one for the second client's socket:
    // the kernel completes its handshake, but the server's accept()
    // finds no fd left.
    std::vector<int> filler;
    for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;)
        filler.push_back(fd);
    if (errno != EMFILE || filler.empty())
        ::_exit(3);
    ::close(filler.back());
    filler.pop_back();
    auto second = net::RpcClient::connectTcp(server.port());
    second.send(Frame::request(second.nextId(), net::StatsReq{}));

    // Paused accepts must not spin on the still-readable listener.
    const double cpu0 = cpuMs();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (cpuMs() - cpu0 > 150)
        ::_exit(4);

    // Closing the first connection frees fds: the queued connection
    // is accepted and served.
    first.reset();
    if (!isStats(second.recv()))
        ::_exit(5);

    for (int fd : filler)
        ::close(fd);
    server.stop();
    serverThread.join();
    return 0;
}

} // namespace

TEST(ServeServer, SurvivesFdExhaustionAndServesOnceAnFdFrees)
{
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int rc = 6;
        try {
            rc = fdExhaustionChild();
        } catch (...) {
        }
        ::_exit(rc);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal " << WTERMSIG(status);
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "failed at step " << WEXITSTATUS(status);
}
