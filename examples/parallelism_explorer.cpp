/**
 * @file
 * Design-space explorer: enumerate every valid parallelism mapping
 * of a cluster for a chosen model and batch size, rank them by
 * predicted training time, and show the best configurations — the
 * paper's Case Study I workflow as a command-line tool.
 *
 * Usage:
 *   parallelism_explorer [model] [batch] [nodes] [accs_per_node]
 *                        [top_k] [threads]
 *     model: 145B | 310B | 530B | 1T | gpt3 (default 145B)
 *     batch: global batch size (default 8192)
 *     nodes / accs_per_node: cluster shape (default 128 x 8)
 *     top_k: how many mappings to print (default 10)
 *     threads: sweep worker threads (default 0 = AMPED_THREADS or
 *              all cores; the ranking is identical either way)
 */

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "common/parse_num.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "explore/explorer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "validate/calibrations.hpp"

namespace {

std::optional<amped::model::TransformerConfig>
pickModel(const std::string &name)
{
    using namespace amped::model::presets;
    if (name == "145B")
        return megatron145B();
    if (name == "310B")
        return megatron310B();
    if (name == "530B")
        return megatron530B();
    if (name == "1T")
        return megatron1T();
    if (name == "gpt3")
        return gpt3_175B();
    return std::nullopt;
}

/** Reads the whole of @p text as an integer >= @p min. */
bool
parseCount(const char *text, std::int64_t min, std::int64_t &out)
{
    const char *end = text + std::strlen(text);
    std::int64_t value = 0;
    const auto result = std::from_chars(text, end, value);
    if (result.ec != std::errc() || result.ptr != end || value < min)
        return false;
    out = value;
    return true;
}

/** A bad positional argument: its name and text, then the usage. */
int
badArgument(const char *name, const char *text)
{
    std::cerr << "parallelism_explorer: bad " << name << " '" << text
              << "'\n"
              << "usage: parallelism_explorer [model] [batch] [nodes] "
                 "[accs_per_node] [top_k] [threads]\n"
                 "  model: 145B | 310B | 530B | 1T | gpt3; batch: a "
                 "positive number; nodes, accs_per_node: integers >= "
                 "1; top_k, threads: integers >= 0\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace amped;

    const std::string model_name = argc > 1 ? argv[1] : "145B";
    const auto picked = pickModel(model_name);
    if (!picked)
        return badArgument("model", argv[1]);
    double batch = 8192.0;
    if (argc > 2 && (!tryParseDouble(argv[2], batch) ||
                     !std::isfinite(batch) || batch <= 0.0))
        return badArgument("batch", argv[2]);
    std::int64_t nodes = 128;
    if (argc > 3 && !parseCount(argv[3], 1, nodes))
        return badArgument("nodes", argv[3]);
    std::int64_t per_node = 8;
    if (argc > 4 && !parseCount(argv[4], 1, per_node))
        return badArgument("accs_per_node", argv[4]);
    std::int64_t top_k = 10;
    if (argc > 5 && !parseCount(argv[5], 0, top_k))
        return badArgument("top_k", argv[5]);
    std::int64_t threads = 0;
    if (argc > 6 && (!parseCount(argv[6], 0, threads) ||
                     threads > std::numeric_limits<unsigned>::max()))
        return badArgument("threads", argv[6]);
    if (argc > 7)
        return badArgument("extra argument", argv[7]);

    const auto &model_cfg = *picked;

    net::SystemConfig system;
    system.name = std::to_string(nodes) + "x" +
                  std::to_string(per_node) + " A100 / HDR";
    system.numNodes = nodes;
    system.acceleratorsPerNode = per_node;
    system.intraLink = net::presets::nvlinkA100();
    system.interLink = net::presets::hdrInfiniband();
    system.nicsPerNode = per_node;

    try {
        core::AmpedModel amped(
            model_cfg, hw::presets::a100(),
            validate::calibrations::caseStudy1(), system,
            validate::calibrations::caseStudyOptions());
        explore::Explorer explorer(amped);
        explorer.setThreads(static_cast<unsigned>(threads));

        core::TrainingJob job;
        job.batchSize = batch;
        job.totalTrainingTokens = 300e9;

        std::cout << "exploring " << model_cfg.name << " on "
                  << system.name << ", batch " << batch << " ...\n";
        auto sweep = explorer.sweepAll({batch}, job);
        std::cout << sweep.entries.size() << " feasible mappings, "
                  << sweep.skipped << " skipped (batch too small)\n\n";

        explore::Explorer::sortByTime(sweep.entries);
        if (sweep.entries.size() > static_cast<std::size_t>(top_k))
            sweep.entries.resize(static_cast<std::size_t>(top_k));
        std::cout << "top " << sweep.entries.size()
                  << " mappings by training time:\n"
                  << explore::sweepTable(sweep.entries) << '\n';

        if (!sweep.entries.empty()) {
            std::cout << "breakdown of the best mapping ("
                      << sweep.entries.front().mapping.toString()
                      << "):\n"
                      << explore::breakdownTable(
                             sweep.entries.front().result);
        }
    } catch (const UserError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
