/**
 * @file
 * serve-open: requests go over one loopback TCP connection to an
 * in-process Server::serveTcp with the server's default options.  The
 * client socket is a plain one: no TCP_NODELAY, no quick
 * acknowledgements.  One generator thread sends, a second reads the
 * response lines.  At the reference rate requests arrive open-loop:
 * each line leaves at its due time whether or not earlier ones were
 * answered.  Arrivals are paced (gaps uniform in [0.5, 1.5] / rate), so
 * queueing comes from the service times the program takes, not from
 * Poisson clumps.  Latency runs from a request's due time to the
 * arrival of its last response line.  Capacity is measured with the
 * server saturated: closed loop, a fixed number of requests in flight.
 *
 * The seeded mix: evals and reports of random small clusters and
 * mappings; sweeps and optimizes drawn Zipf-like from key pools whose
 * results together are about twice the response cache's default byte
 * budget; pings, some as pipelined pairs (two lines in one write); a
 * few malformed lines; and occasional pipelined bursts one third
 * larger than the admission queue.  Each server starts with a full
 * cache holding the mix's popular keys, as a long-running one has it
 * (see fillCache), so hits, misses, inserts and evictions all occur.  Malformed lines and the overflowing burst elements are
 * provoked: they are checked for their expected error or rejection
 * and left out of the attempted/failed counts.  The mix's proportions
 * and its Zipf exponent are assumed, not taken from a measured trace.
 *
 * A traced run plays the mix three times on the reference schedule:
 * over TCP (generator lateness, transport), then straight into
 * Server::handleLine untraced (queue wait, tracing baseline) and
 * traced (parse, dispatch, cache, JSON).  Each pass salts its params
 * so no pass answers from another's caches.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mapping/parallelism.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace amped;

const std::size_t kQueueCapacity = serve::ServerOptions().queueCapacity;
const std::size_t kBurstSize = kQueueCapacity + kQueueCapacity / 3;

/**
 * Keys per pool (sweep, optimize).  A pool result is ~0.9 KB with
 * its key, so the two pools hold about twice the server's default
 * 8 MiB cache budget.
 */
constexpr std::size_t kPoolKeys = 8200;
constexpr double kZipfExponent = 1.0;
constexpr std::int64_t kTokens = 300000000000;

/**
 * The reference rate sets op_p50_ms and op_tail_ms from
 * kReferenceShare of the run.  It is about a sixth of capacity, so
 * queueing does not amplify the host's own speed swings into the tail.
 * op_p50_ms is the median of all reference requests; op_tail_ms is the
 * p90 of the reference part with the lowest p90.  A shared host's slow
 * stretches, seconds to minutes long, raised the p90 of the parts they
 * covered by up to 60 %: the p90 of all parts spread 0.17 of its median
 * over seeds, the lowest part's 0.04.  A slower server is slower in
 * every part, so the lowest one still shows it.
 */
constexpr double kReferenceRate = 300.0;
constexpr double kReferenceShare = 0.45;

/**
 * The rest of the run measures capacity: the mix is sent closed-loop
 * with kWindow requests in flight, so the server does not wait for
 * work, and items_per_s is the rate it completes them: all saturated
 * requests over all saturated time.  The run alternates kCycles times
 * between a reference part and a saturated part, so both sample the
 * same stretches of a shared host whose speed drifts by tens of
 * percent within seconds.  kPlannedCapacity only sizes the saturated
 * parts; a faster server finishes them sooner.
 */
constexpr std::size_t kWindow = 32;
constexpr std::size_t kCycles = 6;
constexpr double kPlannedCapacity = 2000.0;

/**
 * Mix requests played into a fresh server before a measured pass, so
 * the popular keys are cached when it starts (~2,000 distinct keys).
 */
constexpr std::size_t kFillRequests = 10000;

/** Closed-loop requests of each set-up's warm-up. */
constexpr std::size_t kWarmRequests = 400;

enum class Kind
{
    ping,
    eval,
    report,
    sweep,
    optimize,
    malformed,
    burst,
    pair
};

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::ping: return "ping";
      case Kind::eval: return "eval";
      case Kind::report: return "report";
      case Kind::sweep: return "sweep";
      case Kind::optimize: return "optimize";
      case Kind::malformed: return "malformed";
      case Kind::burst: return "burst";
      case Kind::pair: return "pair";
    }
    return "?";
}

/** (preset, nodes, accelerators per node). */
using ModelKey = std::tuple<std::string, std::int64_t, std::int64_t>;

/** One request line and what its responses must look like. */
struct Req
{
    Kind kind = Kind::ping;
    std::string line;          ///< '\n'-terminated request line.
    std::size_t responses = 1; ///< Response lines it produces.
    std::int64_t id = -1;      ///< (First) element id; -1 if none.
    std::string key;           ///< Sweep/optimize: its params ("" if none).
    ModelKey model;            ///< Eval/report: the evaluated point.
    mapping::ParallelismConfig mapping;
    double batch = 0.0;
};

obs::Json
clusterParams(const ModelKey &model, std::int64_t tokens)
{
    return obs::Json::object()
        .set("model", std::get<0>(model))
        .set("nodes", std::get<1>(model))
        .set("per-node", std::get<2>(model))
        .set("tokens", tokens);
}

std::string
requestLine(std::int64_t id, const char *method, obs::Json params)
{
    return obs::Json::object()
               .set("id", id)
               .set("method", method)
               .set("params", std::move(params))
               .dump() +
           "\n";
}

/**
 * Sweep/optimize params of pool key @p key, the same every time it is
 * drawn.  The grid size is stratified by key: the keys cover every
 * (1 or 2 nodes of 8) x (1..10 batch sizes) pair equally often, so
 * every seed's pool has the same spread of grid sizes (up to ~300
 * points).
 */
obs::Json
poolParams(std::uint64_t seed, Kind kind, std::size_t key,
           std::int64_t tokens)
{
    static const char *const presets[] = {"gpt3", "145b", "530b", "1t",
                                          "glam"};
    Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (key + 1)) ^
            (kind == Kind::optimize ? 0x5bd1e995ULL : 0));
    const std::string preset = presets[rng.uniformInt(0, 4)];
    const std::int64_t nodes = std::int64_t{1} << (key % 2);
    obs::Json params = clusterParams({preset, nodes, 8}, tokens);
    obs::Json batches = obs::Json::array();
    const std::size_t count = 1 + (key / 2) % 10;
    std::vector<std::int64_t> values;
    while (values.size() < count) {
        const std::int64_t b = 64 * rng.uniformInt(8, 256);
        if (std::find(values.begin(), values.end(), b) == values.end())
            values.push_back(b);
    }
    std::sort(values.begin(), values.end());
    for (std::int64_t b : values)
        batches.push(b);
    params.set("batches", std::move(batches));
    params.set("top", rng.uniformInt(1, 10));
    params.set("memory-check", rng.bernoulli(0.5));
    if (kind == Kind::optimize && preset == "glam")
        params.set("ep", std::int64_t{1} << rng.uniformInt(0, 6));
    return params;
}

/** The provoked malformed lines (each answered status=error). */
std::string
malformedLine(std::size_t variant, std::int64_t id)
{
    const std::string n = std::to_string(id);
    switch (variant % 6) {
      case 0: return "{\"id\": " + n + ", \"method\": \"eval\"\n";
      case 1: return "{\"id\": " + n + ", \"method\": \"explode\"}\n";
      case 2: return "{\"method\": \"ping\"}\n";
      case 3: return "[]\n";
      case 4:
        return "{\"id\": " + n +
               ", \"method\": \"eval\", \"params\": {\"bogus\": 1}}\n";
      default:
        return "{\"id\": " + n + ", \"id\": " + n +
               ", \"method\": \"ping\"}\n";
    }
}

/**
 * The seeded request stream, generated on demand.  @p tokens salts
 * every params object so streams of different passes share no cache
 * key (in the serve LRU or the sweep memo) while keeping the same
 * structure.
 */
class Mix
{
  public:
    Mix(std::uint64_t seed, std::int64_t tokens)
        : seed_(seed), rng_(seed), tokens_(tokens), cdf_(kPoolKeys)
    {
        // Zipf-like popularity over each pool; rank -> key is a
        // seeded permutation.
        double sum = 0.0;
        for (std::size_t r = 0; r < kPoolKeys; ++r)
            cdf_[r] = sum += 1.0 / std::pow(static_cast<double>(r + 1),
                                            kZipfExponent);
        for (auto &keys : keys_) {
            keys.resize(kPoolKeys);
            std::iota(keys.begin(), keys.end(), 0);
            std::shuffle(keys.begin(), keys.end(), rng_.engine());
        }
    }

    const std::vector<Req> &reqs() const { return reqs_; }
    std::int64_t tokens() const { return tokens_; }
    const core::AmpedModel &
    model(const ModelKey &key) const
    {
        return models_.at(key);
    }

    /** Appends requests until there are @p count. */
    void
    grow(std::size_t count)
    {
        while (reqs_.size() < count)
            append();
    }

  private:
    int
    zipf()
    {
        const double u = rng_.uniformReal(0.0, cdf_.back());
        return static_cast<int>(
            std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    }

    /** Appends one request (none when the drawn eval point is one the
     *  model rejects: the mix provokes no evaluation errors besides
     *  the malformed lines). */
    void
    append()
    {
        Req req;
        const double u = rng_.uniformReal(0.0, 1.0);
        req.kind = u < 0.05     ? Kind::ping
                   : u < 0.35   ? Kind::eval
                   : u < 0.40   ? Kind::report
                   : u < 0.67   ? Kind::sweep
                   : u < 0.94   ? Kind::optimize
                   : u < 0.96   ? Kind::pair
                   : u < 0.995  ? Kind::ping
                   : u < 0.9975 ? Kind::malformed
                                : Kind::burst;
        req.id = nextId_;
        switch (req.kind) {
          case Kind::ping:
            req.line = requestLine(req.id, "ping", obs::Json::object());
            break;
          case Kind::eval:
          case Kind::report: {
            static const char *const presets[] = {"gpt3", "145b", "530b",
                                                  "1t"};
            req.model = ModelKey{presets[rng_.uniformInt(0, 3)],
                                 std::int64_t{1} << rng_.uniformInt(0, 3),
                                 rng_.bernoulli(0.5) ? 8 : 4};
            auto it = models_.find(req.model);
            if (it == models_.end()) {
                const auto &[preset, nodes, per_node] = req.model;
                it = models_
                         .emplace(req.model,
                                  clusterModel(preset, nodes, per_node))
                         .first;
            }
            const auto mappings =
                mapping::MappingSpace(it->second.system()).enumerate();
            req.mapping = mappings[static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<std::int64_t>(mappings.size() - 1)))];
            req.batch = static_cast<double>(64 << rng_.uniformInt(0, 6));
            core::TrainingJob job;
            job.batchSize = req.batch;
            job.totalTrainingTokens = static_cast<double>(tokens_);
            try {
                (void)it->second.evaluate(req.mapping, job);
            } catch (const UserError &) {
                return;
            }
            obs::Json params = clusterParams(req.model, tokens_);
            params.set("batch", req.batch)
                .set("tp-intra", req.mapping.tpIntra)
                .set("pp-intra", req.mapping.ppIntra)
                .set("dp-intra", req.mapping.dpIntra)
                .set("tp-inter", req.mapping.tpInter)
                .set("pp-inter", req.mapping.ppInter)
                .set("dp-inter", req.mapping.dpInter);
            req.line = requestLine(req.id, kindName(req.kind),
                                   std::move(params));
            break;
          }
          case Kind::sweep:
          case Kind::optimize: {
            const int pool = req.kind == Kind::sweep ? 0 : 1;
            const int key = keys_[pool][static_cast<std::size_t>(zipf())];
            obs::Json params = poolParams(
                seed_, req.kind, static_cast<std::size_t>(key), tokens_);
            // Two keys may draw the same params: results are matched
            // by params.
            req.key = std::string(kindName(req.kind)) + params.dump();
            req.line =
                requestLine(req.id, kindName(req.kind), std::move(params));
            break;
          }
          case Kind::malformed:
            req.line = malformedLine(malformed_++, req.id);
            break;
          case Kind::burst: {
            obs::Json burst = obs::Json::array();
            for (std::size_t i = 0; i < kBurstSize; ++i)
                burst.push(obs::Json::object()
                               .set("id", req.id + static_cast<std::int64_t>(i))
                               .set("method", "ping"));
            req.line = burst.dump() + "\n";
            req.responses = kBurstSize;
            break;
          }
          case Kind::pair:
            req.line = requestLine(req.id, "ping", obs::Json::object()) +
                       requestLine(req.id + 1, "ping", obs::Json::object());
            req.responses = 2;
            break;
        }
        nextId_ += static_cast<std::int64_t>(req.responses);
        reqs_.push_back(std::move(req));
    }

    std::uint64_t seed_;
    Rng rng_;
    std::int64_t tokens_;
    std::vector<double> cdf_;
    std::vector<int> keys_[2]; ///< Popularity rank -> pool key.
    std::int64_t nextId_ = 1;
    std::size_t malformed_ = 0;
    std::vector<Req> reqs_;
    std::map<ModelKey, core::AmpedModel> models_;
};

/** Paced due times (s from the rung start) for @p n arrivals. */
std::vector<double>
arrivalOffsets(Rng &rng, std::size_t n, double rate)
{
    std::vector<double> offsets;
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += rng.uniformReal(0.5, 1.5) / rate;
        offsets.push_back(t);
    }
    return offsets;
}

/** Buffered newline splitter over a socket. */
class LineReader
{
  public:
    explicit LineReader(int fd) : fd_(fd) {}

    /** Next line without its '\n'; false on EOF, error, deadline or
     *  abort. */
    bool
    next(std::string &line, Clock::time_point deadline,
         const std::atomic<bool> &abort)
    {
        while (true) {
            const auto newline = buffer_.find('\n', start_);
            if (newline != std::string::npos) {
                line.assign(buffer_, start_, newline - start_);
                start_ = newline + 1;
                if (start_ == buffer_.size()) {
                    buffer_.clear();
                    start_ = 0;
                }
                return true;
            }
            if (abort.load() || Clock::now() >= deadline)
                return false;
            pollfd ready{fd_, POLLIN, 0};
            if (::poll(&ready, 1, 100) <= 0)
                continue;
            char chunk[65536];
            const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
            if (got <= 0)
                return false;
            buffer_.append(chunk, static_cast<std::size_t>(got));
        }
    }

  private:
    int fd_;
    std::string buffer_;
    std::size_t start_ = 0;
};

/**
 * Sleeps until shortly before @p due, then spins: a request leaves on
 * time instead of when the sleeping sender is scheduled again.
 */
void
waitUntil(Clock::time_point due)
{
    std::this_thread::sleep_until(due - std::chrono::microseconds(300));
    while (Clock::now() < due) {
    }
}

void
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t wrote = ::send(fd, data.data() + sent, data.size() - sent,
                                     MSG_NOSIGNAL);
        if (wrote <= 0)
            throw std::runtime_error("serve-open: send failed");
        sent += static_cast<std::size_t>(wrote);
    }
}

/** The server's default options, with the pinned worker pool. */
serve::ServerOptions
serverOptions(unsigned pool)
{
    serve::ServerOptions options;
    options.threads = pool;
    return options;
}

/**
 * A Server that, once started, answers on a loopback port from its
 * own thread, and the one client connection to it.  Stopping cancels
 * the server's root token, closes the client and joins the thread.
 */
class TcpService
{
  public:
    explicit TcpService(unsigned pool)
        : server_(serverOptions(pool)), token_(CancelToken::make())
    {
        server_.setCancelToken(token_);
    }

    ~TcpService() { stop(); }
    TcpService(const TcpService &) = delete;
    TcpService &operator=(const TcpService &) = delete;

    /** Before start(): the server, for in-process calls. */
    serve::Server &server() { return server_; }

    void
    start()
    {
        thread_ = std::thread([this] {
            try {
                server_.serveTcp(0);
            } catch (...) {
                error_ = std::current_exception();
                failed_.store(true);
            }
        });
        try {
            connectClient();
        } catch (...) {
            stop();
            rethrowServerError();
            throw;
        }
        reader_.emplace(fd_);
    }

    int fd() const { return fd_; }
    LineReader &reader() { return *reader_; }

    void
    stop()
    {
        token_.cancel();
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
        if (thread_.joinable())
            thread_.join();
    }

    /** After stop(): rethrows what ended the server thread, if any. */
    void
    rethrowServerError() const
    {
        if (error_)
            std::rethrow_exception(error_);
    }

  private:
    void
    connectClient()
    {
        const auto deadline = Clock::now() + std::chrono::seconds(10);
        while (server_.boundPort() == 0) {
            if (failed_.load() || Clock::now() >= deadline)
                throw std::runtime_error("serve-open: server did not listen");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            throw std::runtime_error("serve-open: socket failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server_.boundPort());
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0)
            throw std::runtime_error("serve-open: connect failed");
    }

    serve::Server server_;
    CancelToken token_;
    int fd_ = -1;
    std::optional<LineReader> reader_;
    std::exception_ptr error_;
    std::atomic<bool> failed_{false};
    std::thread thread_;
};

/** One request line's times, seconds since its rung started. */
struct LineTiming
{
    double due = 0.0;
    double sent = 0.0;
    double done = 0.0;
};

/** What an open-loop rung left: per line, its times and responses. */
struct Played
{
    std::vector<LineTiming> timing;
    std::vector<std::string> responses;

    std::vector<double>
    latency() const
    {
        std::vector<double> out;
        for (const auto &t : timing)
            out.push_back(t.done - t.due);
        return out;
    }
};

/**
 * Sends reqs[begin, begin + offsets.size()) at rung start + offsets
 * (open loop) and reads their responses on a second thread; returns
 * when every response arrived.
 */
Played
runOpenLoop(TcpService &service, const std::vector<Req> &reqs,
            std::size_t begin, const std::vector<double> &offsets)
{
    const std::size_t n = offsets.size();
    Played out;
    out.timing.resize(n);
    out.responses.resize(n);
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offsets.back() + 60.0));
    std::atomic<bool> abort{false};
    std::exception_ptr error;
    std::thread receiver([&] {
        try {
            std::string line;
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t k = 0; k < reqs[begin + i].responses; ++k) {
                    if (!service.reader().next(line, deadline, abort))
                        throw std::runtime_error(
                            "serve-open: response missing");
                    if (k != 0)
                        out.responses[i].push_back('\n');
                    out.responses[i] += line;
                }
                out.timing[i].done = seconds(start, Clock::now());
            }
        } catch (...) {
            error = std::current_exception();
            abort.store(true);
        }
    });
    try {
        for (std::size_t i = 0; i < n && !abort.load(); ++i) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(offsets[i]));
            waitUntil(due);
            out.timing[i].due = offsets[i];
            out.timing[i].sent = seconds(start, Clock::now());
            sendAll(service.fd(), reqs[begin + i].line);
        }
    } catch (...) {
        abort.store(true);
        receiver.join();
        throw;
    }
    receiver.join();
    if (error)
        std::rethrow_exception(error);
    return out;
}

/**
 * Sends reqs[begin, begin + n) closed-loop with up to kWindow requests
 * in flight and reads their responses on a second thread.  @p elapsed
 * receives the seconds from the first send to the last response.
 */
Played
runSaturated(TcpService &service, const std::vector<Req> &reqs,
             std::size_t begin, std::size_t n, double &elapsed)
{
    Played out;
    out.timing.resize(n);
    out.responses.resize(n);
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::seconds(120);
    std::atomic<bool> abort{false};
    std::atomic<std::size_t> answered{0};
    std::exception_ptr error;
    std::thread receiver([&] {
        try {
            std::string line;
            for (std::size_t i = 0; i < n; ++i) {
                for (std::size_t k = 0; k < reqs[begin + i].responses; ++k) {
                    if (!service.reader().next(line, deadline, abort))
                        throw std::runtime_error(
                            "serve-open: response missing");
                    if (k != 0)
                        out.responses[i].push_back('\n');
                    out.responses[i] += line;
                }
                out.timing[i].done = seconds(start, Clock::now());
                answered.store(i + 1, std::memory_order_release);
                answered.notify_one();
            }
        } catch (...) {
            error = std::current_exception();
            abort.store(true);
            answered.fetch_add(1); // wakes the sender
            answered.notify_one();
        }
    });
    try {
        for (std::size_t i = 0; i < n && !abort.load(); ++i) {
            // Blocks rather than spins: a spinning sender held a core
            // the server needs on a small host.
            for (std::size_t a = answered.load(std::memory_order_acquire);
                 i >= a + kWindow && !abort.load();
                 a = answered.load(std::memory_order_acquire))
                answered.wait(a, std::memory_order_acquire);
            out.timing[i].due = out.timing[i].sent =
                seconds(start, Clock::now());
            sendAll(service.fd(), reqs[begin + i].line);
        }
    } catch (...) {
        abort.store(true);
        receiver.join();
        throw;
    }
    receiver.join();
    if (error)
        std::rethrow_exception(error);
    elapsed = out.timing.back().done;
    return out;
}

/**
 * Checks the response lines of reqs[begin, begin + responses.size())
 * and counts the operations.  @p first_uncached maps a pool key to the
 * first uncached result seen for it; cached results must match it byte
 * for byte.  @p cached_flags, if given, receives 1/0 per request for a
 * cached/uncached pool result.
 */
void
checkResponses(Report &report, const Options &options,
               const std::vector<Req> &reqs, std::size_t begin,
               const std::vector<std::string> &responses,
               std::map<std::string, std::string> &first_uncached,
               std::vector<int> *cached_flags)
{
    for (std::size_t j = 0; j < responses.size(); ++j) {
        const Req &req = reqs[begin + j];
        const std::string &response = responses[j];
        std::vector<obs::Json> lines;
        std::size_t from = 0;
        bool parsed = true;
        while (from <= response.size()) {
            const auto to =
                std::min(response.find('\n', from), response.size());
            try {
                lines.push_back(
                    obs::Json::parse(response.substr(from, to - from)));
            } catch (const std::exception &) {
                parsed = false;
            }
            from = to + 1;
        }
        report.check(parsed && lines.size() == req.responses,
                     "request " + std::to_string(req.id) +
                         ": response lines do not parse");
        if (!parsed || lines.size() != req.responses)
            continue;
        for (std::size_t k = 0; k < lines.size(); ++k) {
            const auto &line = lines[k];
            report.check(line.contains("schema_version") &&
                             line.at("schema_version").asInt() ==
                                 serve::kServeSchemaVersion,
                         "response without schema_version 1");
            const std::string status =
                line.contains("status") ? line.at("status").asString() : "";
            if (req.kind == Kind::malformed) {
                report.check(status == "error",
                             "malformed line answered '" + status + "'");
                continue;
            }
            const std::int64_t id = req.id + static_cast<std::int64_t>(k);
            report.check(line.contains("id") && !line.at("id").isNull() &&
                             line.at("id").asInt() == id,
                         "response does not echo id " + std::to_string(id));
            if (req.kind == Kind::burst && k >= kQueueCapacity) {
                report.check(status == "rejected",
                             "burst overflow element answered '" + status +
                                 "'");
                continue;
            }
            const bool ok = status == "ok" &&
                            line.at("run_status").asString() == "completed";
            report.operation(ok);
            if (!ok || req.key.empty())
                continue;
            const bool cached = line.at("cached").asBool();
            if (cached_flags)
                (*cached_flags)[j] = cached ? 1 : 0;
            const std::string result = line.at("result").dump();
            auto first = first_uncached.find(req.key);
            if (!cached) {
                if (first == first_uncached.end())
                    first_uncached.emplace(req.key, result);
                continue;
            }
            report.check(first != first_uncached.end(),
                         "cached result before any uncached one");
            if (first == first_uncached.end())
                continue;
            std::string expected = first->second;
            if (options.corruptExpectation)
                expected[expected.size() / 2] ^= 1;
            report.check(result == expected,
                         "cached result for request " + std::to_string(id) +
                             " differs from the first uncached one");
        }
    }
}

using FirstUncached = std::map<std::string, std::string>;

/**
 * Brings @p server's response cache to the state of a server that has
 * served this mix for a while: the first kFillRequests requests of
 * @p mix go straight into handleLine (the sweeps and optimizes only;
 * nothing else touches the cache), with their responses checked and
 * their first uncached results recorded in @p first_uncached.
 * Returns the index of the first request left for the measured pass.
 */
std::size_t
fillCache(Report &report, const Options &options, serve::Server &server,
          Mix &mix, FirstUncached &first_uncached)
{
    mix.grow(kFillRequests);
    const auto &reqs = mix.reqs();
    const auto before = registryCounts();
    const auto t0 = Clock::now();
    // Older entries first: distinct small sweeps the mix never asks
    // for, until the cache evicts.
    static const char *const presets[] = {"gpt3", "145b", "530b", "1t",
                                          "glam"};
    for (std::int64_t i = 0;; ++i) {
        obs::Json params =
            clusterParams({presets[i % 5], 1, 8}, mix.tokens() - 100);
        params.set("batches", obs::Json::array().push(64 * (8 + i / 5)))
            .set("top", std::int64_t{10});
        (void)server.handleLine(
            requestLine(i, "sweep", std::move(params)));
        if (i % 16 == 15 &&
            countDelta(before, registryCounts(), "serve.cache.evictions") > 0)
            break;
    }
    Report fill;
    for (std::size_t i = 0; i < kFillRequests; ++i) {
        if (reqs[i].key.empty())
            continue;
        const std::string &line = reqs[i].line;
        checkResponses(fill, options, reqs, i,
                       {server.handleLine(line.substr(0, line.size() - 1))},
                       first_uncached, nullptr);
    }
    const auto evictions =
        countDelta(before, registryCounts(), "serve.cache.evictions");
    std::cerr << "serve-open: cache fill " << seconds(t0, Clock::now())
              << " s, " << evictions << " evictions\n";
    report.check(fill.correct() && fill.failed() == 0,
                 "a cache-fill response failed its checks");
    if (evictions == 0)
        throw std::runtime_error(
            "serve-open: the cache fill did not fill the response cache");
    return kFillRequests;
}

struct Setup
{
    std::optional<Mix> mix;
    std::optional<TcpService> service;
    FirstUncached firstUncached; ///< Of the cache fill.
    std::size_t next = 0;        ///< First mix request not yet played.
};

/**
 * Warm-up: a closed loop of the mix's requests that leave the cache
 * alone (all but sweeps and optimizes), from a separate stream.
 * Pipelined pairs are left out too: in a closed loop the pair's second
 * response would wait for the client's delayed acknowledgement timer.
 */
void
warmUp(TcpService &service, std::uint64_t seed)
{
    Mix warm(seed ^ 0x77aa77aaULL, kTokens);
    warm.grow(kWarmRequests);
    const std::atomic<bool> never{false};
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    std::string line;
    for (const auto &req : warm.reqs()) {
        if (!req.key.empty() || req.kind == Kind::pair)
            continue;
        sendAll(service.fd(), req.line);
        for (std::size_t k = 0; k < req.responses; ++k)
            if (!service.reader().next(line, deadline, never))
                throw std::runtime_error("serve-open: warm-up failed");
    }
}

/** Requests in the reference rung of a run of @p secs seconds. */
std::size_t
referenceSize(double secs)
{
    return static_cast<std::size_t>(kReferenceRate * kReferenceShare * secs);
}

/** Requests in one saturated part of a run of @p secs seconds. */
std::size_t
saturatedSize(double secs)
{
    return static_cast<std::size_t>(kPlannedCapacity *
                                    (1.0 - kReferenceShare) * secs /
                                    static_cast<double>(kCycles));
}

/**
 * The untraced run: kCycles times a reference part (op_p50_ms,
 * op_tail_ms) and a saturated part (items_per_s), continuing the mix
 * the set-up filled the cache with.
 */
void
runMeasured(Run &run, Setup &setup)
{
    Mix &mix = *setup.mix;
    FirstUncached &first_uncached = setup.firstUncached;
    Rng rng(run.options.seed ^ 0x0ff5e7ULL);
    std::size_t begin = setup.next;
    // Checks and counts a part's responses and moves past it.
    const auto done = [&](const Played &played, const char *what) {
        const auto latency = played.latency();
        std::cerr << "serve-open: " << what << ", "
                  << played.responses.size() << " requests: p50 "
                  << median(latency) * 1e3 << " ms, p90 "
                  << percentile(latency, 90.0) * 1e3 << " ms\n";
        checkResponses(run.report, run.options, mix.reqs(), begin,
                       played.responses, first_uncached, nullptr);
        begin += played.responses.size();
        return latency;
    };

    std::vector<double> reference;
    std::vector<double> part_p90;
    double saturated_requests = 0.0;
    double saturated_seconds = 0.0;
    for (std::size_t cycle = 0; cycle < kCycles; ++cycle) {
        const std::size_t n = referenceSize(run.options.seconds) / kCycles;
        mix.grow(begin + n);
        const auto part = done(
            runOpenLoop(*setup.service, mix.reqs(), begin,
                        arrivalOffsets(rng, n, kReferenceRate)),
            "300 req/s open loop");
        reference.insert(reference.end(), part.begin(), part.end());
        part_p90.push_back(percentile(part, 90.0));

        const std::size_t m = saturatedSize(run.options.seconds);
        mix.grow(begin + m);
        double elapsed = 0.0;
        done(runSaturated(*setup.service, mix.reqs(), begin, m, elapsed),
             "saturated");
        saturated_requests += static_cast<double>(m);
        saturated_seconds += elapsed;
        std::cerr << "serve-open: saturated at "
                  << static_cast<double>(m) / elapsed << " req/s\n";
    }
    run.report.metric("op_p50_ms", median(reference) * 1e3, "ms");
    run.report.metric("op_tail_ms",
                      *std::min_element(part_p90.begin(), part_p90.end()) *
                          1e3,
                      "ms");
    run.report.metric("items_per_s", saturated_requests / saturated_seconds,
                      "1/s");
}

/** Request counts of the three passes of a traced run. */
std::size_t
tracedPassSize(double secs)
{
    return static_cast<std::size_t>(kReferenceRate * secs / 4.0);
}

/** Per-request outcome of an in-process replay. */
struct Replay
{
    std::vector<double> latency;   ///< due -> handleLine returned
    std::vector<double> queueWait; ///< due -> handleLine called
    std::vector<double> handle;    ///< handleLine duration
    std::vector<std::string> responses;
};

/**
 * Replays @p mix from request @p begin on the reference schedule
 * straight into @p server's
 * handleLine on one thread, waiting for each due time as the TCP
 * generator does.  With spans enabled, each layer call is repeated
 * outside handleLine inside its own span.
 */
Replay
replayInProcess(Run &run, serve::Server &server, const Mix &mix,
                std::size_t begin, const std::vector<double> &offsets)
{
    const auto &reqs = mix.reqs();
    const std::size_t n = offsets.size();
    Replay out;
    out.responses.resize(n);
    SpanRecorder &spans = run.spans;
    const bool traced = spans.enabled();
    std::vector<double> response_bytes;
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < n; ++i) {
        const Req &req = reqs[begin + i];
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(offsets[i]));
        waitUntil(due);
        ScopedSpan request(spans, "bench.request", "bench", i);
        const auto called = Clock::now();
        // A pipelined pair is two lines; the rest are one.
        std::vector<std::string> lines;
        for (std::size_t from = 0; from < req.line.size();) {
            const auto to = req.line.find('\n', from);
            lines.push_back(req.line.substr(from, to - from));
            from = to + 1;
        }
        const std::string method =
            req.kind == Kind::burst || req.kind == Kind::pair
                ? "ping"
                : kindName(req.kind);
        Clock::duration handle_time{};
        for (const auto &line : lines) {
            if (traced) {
                ScopedSpan span(spans, "obs.json_parse_s", "obs", i);
                try {
                    (void)obs::Json::parse(line);
                } catch (const std::exception &) {
                }
            }
            if (traced) {
                ScopedSpan span(spans, "serve.parse_s", "serve", i);
                try {
                    const auto body =
                        serve::parseBody(line, serve::kDefaultMaxRequestBytes);
                    if (body.isObject())
                        (void)serve::requestFromJson(body);
                    else
                        for (const auto &item : body.items())
                            (void)serve::requestFromJson(item);
                } catch (const UserError &) {
                }
            }
            const auto handle_start = Clock::now();
            {
                ScopedSpan span(spans, "serve.handle_line_s." + method,
                                "serve", i);
                if (!out.responses[i].empty())
                    out.responses[i].push_back('\n');
                out.responses[i] += server.handleLine(line);
            }
            handle_time += Clock::now() - handle_start;
        }
        const auto handled = Clock::now();
        out.queueWait.push_back(seconds(due, called));
        out.handle.push_back(std::chrono::duration<double>(handle_time).count());
        out.latency.push_back(seconds(due, handled));
        if (!traced)
            continue;
        response_bytes.push_back(
            static_cast<double>(out.responses[i].size()));
        std::vector<obs::Json> parsed;
        {
            ScopedSpan span(spans, "obs.json_parse_s", "obs", i);
            std::size_t from = 0;
            while (from <= out.responses[i].size()) {
                const auto to = std::min(out.responses[i].find('\n', from),
                                         out.responses[i].size());
                parsed.push_back(obs::Json::parse(
                    out.responses[i].substr(from, to - from)));
                from = to + 1;
            }
        }
        {
            ScopedSpan span(spans, "obs.json_dump_s", "obs", i);
            for (const auto &doc : parsed)
                (void)doc.dump();
        }
        if (req.kind == Kind::eval || req.kind == Kind::report) {
            core::TrainingJob job;
            job.batchSize = req.batch;
            job.totalTrainingTokens = static_cast<double>(mix.tokens());
            ScopedSpan span(spans, "core.evaluate_s", "core", i);
            (void)mix.model(req.model).evaluate(req.mapping, job);
        }
    }
    if (traced)
        run.report.metric("obs.response_bytes", median(response_bytes),
                          "bytes");
    return out;
}

/** The traced run: see the file comment. */
void
runTraced(Run &run, Setup &setup)
{
    const std::size_t n = tracedPassSize(run.options.seconds);
    Rng rng(run.options.seed ^ 0x0ff5e7ULL);
    const auto offsets = arrivalOffsets(rng, n, kReferenceRate);

    // Pass 1: open loop over TCP on the reference schedule, continuing
    // the mix the set-up filled the cache with.
    Mix &tcp_mix = *setup.mix;
    tcp_mix.grow(setup.next + n);
    const Played tcp =
        runOpenLoop(*setup.service, tcp_mix.reqs(), setup.next, offsets);
    checkResponses(run.report, run.options, tcp_mix.reqs(), setup.next,
                   tcp.responses, setup.firstUncached, nullptr);

    // Passes 2 and 3 run on fresh servers, each filled by its own mix.
    struct Pass
    {
        Pass(std::uint64_t seed, std::int64_t tokens, unsigned pool)
            : mix(seed, tokens), server(serverOptions(pool))
        {
        }
        Mix mix;
        serve::Server server;
        FirstUncached firstUncached;
        std::size_t begin = 0;
    };
    const auto make_pass = [&](int pass) {
        auto p = std::make_unique<Pass>(run.options.seed, kTokens + pass,
                                        run.pool);
        p->begin = fillCache(run.report, run.options, p->server, p->mix,
                             p->firstUncached);
        p->mix.grow(p->begin + n);
        return p;
    };

    // Pass 2: untraced replay (queue wait and the overhead baseline).
    SpanRecorder off(false);
    Run untraced{run.options, run.pool, run.report, off};
    const Replay base = [&] {
        const auto pass = make_pass(1);
        return replayInProcess(untraced, pass->server, pass->mix,
                               pass->begin, offsets);
    }();

    // Pass 3: traced replay; registry counts cover this pass only.
    const auto pass = make_pass(2);
    const auto before = registryCounts();
    const Replay traced = replayInProcess(run, pass->server, pass->mix,
                                          pass->begin, offsets);
    const auto after = registryCounts();
    std::vector<int> cached(n, -1);
    checkResponses(run.report, run.options, pass->mix.reqs(), pass->begin,
                   traced.responses, pass->firstUncached, &cached);

    std::vector<double> hit_s, miss_s, transport_s, lateness;
    for (std::size_t i = 0; i < n; ++i) {
        if (cached[i] == 1)
            hit_s.push_back(traced.handle[i]);
        else if (cached[i] == 0)
            miss_s.push_back(traced.handle[i]);
        lateness.push_back(tcp.timing[i].sent - tcp.timing[i].due);
        // Transport: TCP latency minus in-process latency of the same
        // request on the same schedule.
        transport_s.push_back(tcp.timing[i].done - tcp.timing[i].due -
                              base.latency[i]);
    }
    run.report.metric("serve.lateness_ms.p50", median(lateness) * 1e3, "ms");
    run.report.metric("serve.lateness_ms.p99",
                      percentile(lateness, 99.0) * 1e3, "ms");
    run.report.timing("serve.cache_hit_s", hit_s);
    run.report.timing("serve.cache_miss_s", miss_s);
    run.report.timing("serve.transport_s", transport_s);
    run.report.metric("serve.queue_wait_ms.p50",
                      median(base.queueWait) * 1e3, "ms");
    run.report.metric("serve.queue_wait_ms.p99",
                      percentile(base.queueWait, 99.0) * 1e3, "ms");
    run.report.metric("trace.overhead_ms",
                      (median(traced.latency) - median(base.latency)) * 1e3,
                      "ms");
    reportRegistryCounts(run.report, before, after);
}

} // namespace

void
runServeOpen(Run &run)
{
    const Options &options = run.options;
    // Filling the cache costs seconds and runs the handleLine path
    // the measured parts time; it is done once, for the server that is kept,
    // and left out of setup_s.
    std::vector<double> setup_seconds;
    Setup setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        setup.service.reset();
        const auto t0 = Clock::now();
        setup.mix.emplace(options.seed, kTokens);
        setup.mix->grow(kFillRequests);
        setup.service.emplace(run.pool);
        Clock::duration fill{};
        if (i + 1 == kSetupRepeats) {
            const auto f0 = Clock::now();
            setup.next = fillCache(run.report, options,
                                   setup.service->server(), *setup.mix,
                                   setup.firstUncached);
            fill = Clock::now() - f0;
        }
        setup.service->start();
        warmUp(*setup.service, options.seed);
        setup_seconds.push_back(seconds(t0, Clock::now() - fill));
    }

    if (!run.spans.enabled()) {
        run.report.metric("setup_s", median(setup_seconds), "s");
        runMeasured(run, setup);
    } else {
        runTraced(run, setup);
    }
    setup.service->stop();
    setup.service->rethrowServerError();
}

} // namespace perfbench
