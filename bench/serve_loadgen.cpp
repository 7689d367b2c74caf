/**
 * @file
 * Closed-loop replay load generator for the `amped serve` evaluation
 * service.
 *
 * A seeded traffic generator builds a fixed mixed profile — single
 * evals, grid sweeps drawn from a small pool (so the LRU cache gets
 * hits), optimize calls, run-report requests, malformed requests,
 * already-expired deadlines, and pipelined bursts that overflow the
 * admission queue — and drives an in-process Server through
 * handleLine one request line at a time (closed loop: the next
 * request is issued when the previous response returns, exactly how
 * the stdio transport behaves).
 *
 * Two kinds of output, strictly separated:
 *
 *  - Deterministic (golden-pinned): the FNV-1a hash of the full
 *    response transcript plus the request/response/cache counters.
 *    The server contract says a fixed request sequence produces a
 *    byte-identical transcript at any worker thread count, so
 *    tools/golden_check replays this harness at 1 and 4 threads
 *    against one golden file.
 *  - Wall clock (--bench-out): latency percentiles, throughput, and
 *    the cache-hit ratio as BENCH_serve.json for the CI artifact.
 *    Never pinned — timing is machine-dependent.
 *
 * --transcript-out dumps the raw response lines so CI can validate
 * every response against the protocol schema with python3.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "case_study_util.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

using namespace amped;

/** A tiny cluster description the sweeps enumerate quickly. */
std::string
systemParams(std::int64_t nodes, std::int64_t per_node)
{
    return "\"nodes\":" + std::to_string(nodes) +
           ",\"per-node\":" + std::to_string(per_node);
}

/**
 * The seeded traffic profile: one request line per slot.  Every
 * line is fully determined by the seed, so the whole transcript is
 * reproducible.
 */
std::vector<std::string>
buildTraffic(Rng &rng, int requests)
{
    // A small pool of sweep/optimize parameter sets: repeats of a
    // pool entry are exact-key repeats, which is what makes the LRU
    // cache earn hits under replay.
    const std::vector<std::string> sweep_pool = {
        "{\"model\":\"145b\"," + systemParams(2, 2) +
            ",\"batch\":512,\"top\":3}",
        "{\"model\":\"145b\"," + systemParams(2, 4) +
            ",\"batch\":1024,\"top\":3}",
        "{\"model\":\"145b\"," + systemParams(4, 2) +
            ",\"batch\":512,\"top\":2,\"batches\":[256,512]}",
        "{\"model\":\"gpt3\"," + systemParams(2, 2) +
            ",\"batch\":1536,\"top\":3}",
    };
    const std::vector<std::string> malformed = {
        "this is not json",
        "{\"id\":1,\"method\":\"ping\"",
        "{\"id\":2,\"id\":2,\"method\":\"ping\"}",
        "{\"id\":3,\"method\":\"frobnicate\"}",
        "{\"id\":4,\"method\":\"eval\",\"params\":{\"warp\":9}}",
        "{\"id\":-7,\"method\":\"ping\"}",
        "[]",
    };

    std::vector<std::string> lines;
    lines.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        const std::string id = std::to_string(i);
        const int roll = static_cast<int>(rng.uniformInt(0, 99));
        if (roll < 30) {
            // Single eval on a small random cluster and mapping.
            const std::int64_t tp = 1 << rng.uniformInt(0, 1);
            lines.push_back(
                "{\"id\":" + id + ",\"method\":\"eval\","
                "\"params\":{\"model\":\"145b\"," +
                systemParams(2, 2) + ",\"batch\":512,"
                "\"tp-intra\":" + std::to_string(tp) +
                ",\"dp-inter\":2}}");
        } else if (roll < 55) {
            // Sweep from the pool (cacheable repeats).
            const auto &params = sweep_pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      sweep_pool.size()) - 1))];
            lines.push_back("{\"id\":" + id +
                            ",\"method\":\"sweep\",\"params\":" +
                            params + "}");
        } else if (roll < 70) {
            // Optimize from the same pool (separate cache keys).
            const auto &params = sweep_pool[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      sweep_pool.size()) - 1))];
            lines.push_back("{\"id\":" + id +
                            ",\"method\":\"optimize\",\"params\":" +
                            params + "}");
        } else if (roll < 80) {
            // Structured run report (schema v3 + metrics snapshot).
            lines.push_back(
                "{\"id\":" + id + ",\"method\":\"report\","
                "\"params\":{\"model\":\"145b\"," +
                systemParams(2, 2) +
                ",\"batch\":512,\"tp-intra\":2,\"dp-inter\":2}}");
        } else if (roll < 90) {
            // Malformed input: must yield a structured error, never
            // kill the server.
            lines.push_back(malformed[static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<std::int64_t>(
                                      malformed.size()) - 1))]);
        } else if (roll < 95) {
            // Already-expired deadline: deterministic "expired".
            lines.push_back("{\"id\":" + id +
                            ",\"method\":\"ping\",\"deadline_ms\":"
                            "0}");
        } else {
            // Pipelined burst overflowing the admission queue
            // (capacity 8 in this harness), so the tail of the
            // burst is deterministically rejected.
            std::string burst = "[";
            const std::int64_t n = rng.uniformInt(10, 12);
            for (std::int64_t j = 0; j < n; ++j) {
                if (j != 0)
                    burst += ",";
                burst += "{\"id\":" + id + ",\"method\":\"ping\"}";
            }
            burst += "]";
            lines.push_back(std::move(burst));
        }
    }
    return lines;
}

/** Counter/gauge lookup in a snapshot (0 when absent). */
double
metricValue(const std::vector<obs::MetricSnapshot> &snapshot,
            const std::string &name)
{
    for (const auto &snap : snapshot) {
        if (snap.name != name)
            continue;
        return snap.kind == obs::MetricKind::gauge
                   ? snap.value
                   : static_cast<double>(snap.count);
    }
    return 0.0;
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        p * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
}

} // namespace

int
main(int argc, char **argv)
{
    bench::GoldenOut golden(argc, argv);

    constexpr int kRequests = 200;
    constexpr std::uint64_t kSeed = 0x5e12e5e12eULL;

    obs::MetricsRegistry registry;
    serve::ServerOptions options;
    options.queueCapacity = 8;
    options.cacheBudgetBytes = 1u << 20;
    options.registry = &registry;
    serve::Server server(options);

    Rng rng(kSeed);
    const auto traffic = buildTraffic(rng, kRequests);

    std::string transcript;
    std::vector<double> latencies;
    latencies.reserve(traffic.size());
    std::size_t lines_out = 0;

    const auto start = std::chrono::steady_clock::now();
    for (const auto &line : traffic) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string response = server.handleLine(line);
        const auto t1 = std::chrono::steady_clock::now();
        latencies.push_back(
            std::chrono::duration<double>(t1 - t0).count());
        transcript += response;
        transcript += '\n';
        lines_out += static_cast<std::size_t>(
            std::count(response.begin(), response.end(), '\n') + 1);
    }
    const double total_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    const auto snapshot = registry.snapshot();
    const double hits = metricValue(snapshot, "serve.cache.hits");
    const double misses =
        metricValue(snapshot, "serve.cache.misses");
    const double ok = metricValue(snapshot, "serve.responses.ok");
    const double errors =
        metricValue(snapshot, "serve.responses.error");
    const double dropped =
        metricValue(snapshot, "serve.responses.dropped");
    const double latency_count = metricValue(
        snapshot, "serve.request.latency_seconds");
    const std::uint64_t fingerprint = fnv1a64(transcript);

    std::cout << "=== serve load generator: " << kRequests
              << " request lines, seed 0x" << std::hex << kSeed
              << std::dec << " ===\n\n"
              << "responses:  " << ok << " ok, " << errors
              << " error, " << dropped << " dropped\n"
              << "cache:      " << hits << " hits / " << misses
              << " misses ("
              << (hits + misses > 0 ? hits / (hits + misses) : 0.0)
              << " hit ratio)\n"
              << "latency:    " << latency_count
              << " measured requests\n"
              << "transcript: " << transcript.size()
              << " bytes, fnv64 0x" << std::hex << fingerprint
              << std::dec << "\n";

    // Deterministic record: the transcript fingerprint (split into
    // two exact 32-bit halves — golden values are doubles) plus
    // every sequence-determined counter.
    golden.add("serve/transcript_fnv_hi",
               static_cast<double>(fingerprint >> 32));
    golden.add("serve/transcript_fnv_lo",
               static_cast<double>(fingerprint & 0xffffffffULL));
    golden.add("serve/transcript_bytes",
               static_cast<double>(transcript.size()));
    golden.add("serve/response_lines",
               static_cast<double>(lines_out));
    golden.add("serve/requests",
               metricValue(snapshot, "serve.requests"));
    golden.add("serve/responses_ok", ok);
    golden.add("serve/responses_error", errors);
    golden.add("serve/responses_dropped", dropped);
    golden.add("serve/cache_hits", hits);
    golden.add("serve/cache_misses", misses);
    golden.add("serve/cache_entries",
               static_cast<double>(server.cache().size()));
    golden.add("serve/cache_bytes",
               static_cast<double>(server.cache().bytes()));
    golden.add("serve/latency_count", latency_count);

    if (!golden.transcriptPath().empty()) {
        std::ofstream out(golden.transcriptPath());
        require(out.good(), "serve_loadgen: cannot write ",
                golden.transcriptPath());
        out << transcript;
    }

    if (!golden.benchPath().empty()) {
        std::sort(latencies.begin(), latencies.end());
        obs::Json latency = obs::Json::object();
        latency.set("p50", percentile(latencies, 0.50));
        latency.set("p90", percentile(latencies, 0.90));
        latency.set("p99", percentile(latencies, 0.99));
        latency.set("max", latencies.empty() ? 0.0
                                             : latencies.back());
        obs::Json cache = obs::Json::object();
        cache.set("hits", static_cast<std::int64_t>(hits));
        cache.set("misses", static_cast<std::int64_t>(misses));
        cache.set("hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0);
        obs::Json responses = obs::Json::object();
        responses.set("ok", static_cast<std::int64_t>(ok));
        responses.set("error", static_cast<std::int64_t>(errors));
        responses.set("dropped",
                      static_cast<std::int64_t>(dropped));

        obs::Json doc = obs::Json::object();
        doc.set("schema_version", 1);
        doc.set("kind", "amped.serve_bench");
        doc.set("requests", kRequests);
        doc.set("response_lines",
                static_cast<std::int64_t>(lines_out));
        doc.set("seconds", total_seconds);
        doc.set("requests_per_sec",
                total_seconds > 0.0 ? kRequests / total_seconds
                                    : 0.0);
        doc.set("latency_seconds", std::move(latency));
        doc.set("cache", std::move(cache));
        doc.set("responses", std::move(responses));

        std::ofstream out(golden.benchPath());
        require(out.good(), "serve_loadgen: cannot write ",
                golden.benchPath());
        out << doc.dump(2) << '\n';
    }

    return golden.finish();
}
