/**
 * @file
 * `golden_check` — golden-file regression driver for the bench
 * harnesses.
 *
 * Runs every figure/table bench with `--golden-out`, then diffs the
 * produced metric records against the checked-in goldens under
 * tests/golden/ with tolerance-aware numeric comparison
 * (testing/diff.hpp).  A human-readable mismatch report is written
 * to the work directory (and echoed) on failure.
 *
 * Modes:
 *   golden_check --bench-dir build/bench --golden-dir tests/golden
 *       check mode (default): non-zero exit on any mismatch
 *   golden_check ... --update-golden
 *       regenerate the goldens in place from the current build
 *
 * Options: --only <name> restricts to one bench; --abs-tol /
 * --rel-tol override the comparison thresholds; --report names the
 * mismatch-report file; --work-dir holds the intermediate outputs.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "common/error.hpp"
#include "testing/diff.hpp"
#include "testing/golden.hpp"

namespace {

using namespace amped;

/** Every bench harness that supports --golden-out. */
const std::vector<std::string> kBenches = {
    "table2_megatron_validation",
    "table3_gpipe_validation",
    "fig1_utilization",
    "fig2a_dp_validation",
    "fig2b_pp_validation",
    "fig2c_microbatch_sweep",
    "fig3_breakdown",
    "fig4_6_tp_intra_sweep",
    "fig7_9_dp_intra_sweep",
    "fig10_lowend_systems",
    "fig11_optical_substrate",
    "ablation_design_choices",
    "energy_case_study2",
    "baseline_comparison",
    "resilience_case_study",
    "perf_microbench",
    "obs_run_report",
    "optimizer_case_study",
    "serve_loadgen",
};

/**
 * Runs one bench in golden mode, discarding its table output.
 * @throws UserError when the binary is missing or exits non-zero.
 */
void
runBench(const std::filesystem::path &bench_dir,
         const std::string &name, const std::filesystem::path &out)
{
    const auto binary = bench_dir / name;
    if (!std::filesystem::exists(binary))
        fatal("golden_check: bench binary '", binary.string(),
              "' not found; build the bench targets first");
    const std::string command = "\"" + binary.string() +
                                "\" --golden-out \"" + out.string() +
                                "\" > /dev/null";
    const int status = std::system(command.c_str());
    require(status == 0, "golden_check: '", name,
            "' exited with status ", status);
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser;
    parser.addOption("bench-dir",
                     "directory holding the bench binaries", "bench");
    parser.addOption("golden-dir",
                     "directory holding the checked-in goldens",
                     "tests/golden");
    parser.addOption("work-dir",
                     "scratch directory for freshly produced records",
                     "golden_check_out");
    parser.addOption("report",
                     "mismatch-report file (relative to --work-dir "
                     "unless absolute)", "golden_check_report.txt");
    parser.addOption("only", "run a single bench by name", "");
    parser.addOption("abs-tol", "absolute tolerance", "1e-9");
    parser.addOption("rel-tol", "relative tolerance", "1e-6");
    parser.addFlag("update-golden",
                   "regenerate the goldens instead of checking");
    parser.addFlag("help", "show this help");

    try {
        parser.parse({argv + 1, argv + argc});
        if (parser.getFlag("help")) {
            std::cout << "usage: golden_check [options]\n"
                      << parser.helpText();
            return 0;
        }

        const std::filesystem::path bench_dir = parser.get("bench-dir");
        const std::filesystem::path golden_dir =
            parser.get("golden-dir");
        const std::filesystem::path work_dir = parser.get("work-dir");
        testing::DiffOptions tolerances;
        tolerances.absTol = parser.getDouble("abs-tol");
        tolerances.relTol = parser.getDouble("rel-tol");

        std::vector<std::string> benches;
        const std::string only = parser.get("only");
        if (only.empty()) {
            benches = kBenches;
        } else {
            require(std::find(kBenches.begin(), kBenches.end(),
                              only) != kBenches.end(),
                    "golden_check: unknown bench '", only, "'");
            benches = {only};
        }

        if (parser.getFlag("update-golden")) {
            std::filesystem::create_directories(golden_dir);
            for (const auto &name : benches) {
                const auto out = golden_dir / (name + ".golden");
                runBench(bench_dir, name, out);
                std::cout << "updated " << out.string() << '\n';
            }
            return 0;
        }

        std::filesystem::create_directories(work_dir);
        std::size_t failures = 0;
        std::string report;
        for (const auto &name : benches) {
            const auto expected_path =
                golden_dir / (name + ".golden");
            const auto actual_path = work_dir / (name + ".golden");
            runBench(bench_dir, name, actual_path);
            const auto expected =
                testing::GoldenRecord::fromFile(expected_path.string());
            const auto actual =
                testing::GoldenRecord::fromFile(actual_path.string());
            const auto diff =
                testing::diffRecords(expected, actual, tolerances);
            const auto rendered = diff.render(name, tolerances);
            if (diff.clean()) {
                std::cout << rendered;
            } else {
                ++failures;
                std::cout << rendered;
                report += rendered;
            }
        }

        if (failures > 0) {
            auto report_path = std::filesystem::path(
                parser.get("report"));
            if (report_path.is_relative())
                report_path = work_dir / report_path;
            std::ofstream out(report_path);
            if (!out.good())
                fatal("golden_check: cannot write report '",
                      report_path.string(), "'");
            out << report;
            std::cout << "\ngolden_check: " << failures << " of "
                      << benches.size()
                      << " benches mismatched; report written to "
                      << report_path.string()
                      << "\n(regenerate intentionally changed "
                         "goldens with --update-golden)\n";
            return 1;
        }
        std::cout << "\ngolden_check: all " << benches.size()
                  << " benches match\n";
        return 0;
    } catch (const UserError &error) {
        std::cerr << "golden_check: error: " << error.what() << '\n';
        return 1;
    }
}
