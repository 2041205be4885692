/**
 * @file
 * Flag parser shared by `mipp_cli report accuracy` and `report
 * calibrate`.
 *
 * It accepts only the flags on the command's synopsis in the help table
 * (cli_help.hh), and it reads every number strictly: the whole value
 * must parse and fall in range, so a typo such as `--uops 2e4` is an
 * error instead of a silently tiny run.
 */

#ifndef MIPP_CLI_REPORT_FLAGS_HH
#define MIPP_CLI_REPORT_FLAGS_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace mipp::cli {

/**
 * Flags of `report accuracy` and `report calibrate`. The caller seeds
 * the defaults; parseReportFlags() overwrites what the command line
 * sets.
 */
struct ReportFlags {
    std::string grid;
    bool gridExplicit = false, full = false;
    std::string json, baseline;
    double margin = 2.0;
    size_t uops = 0;
    unsigned threads = 0;  ///< 0 (the default) = the whole shared pool
    bool includePhased = true, fitBranch = true;
    int rounds = 0;
    std::vector<std::string> workloads, traces, checkGrids;
};

/**
 * Parse @p argv[0..argc) for @p command ("report accuracy" or "report
 * calibrate") into @p f. InvalidArgument, with the message to print,
 * on a flag off the command's synopsis, a missing value, or a number
 * that does not parse whole or is out of range: `--uops` in
 * [kRequestMinUops, kRequestMaxUops]
 * (validate/accuracy.hh), `--threads` and `--rounds` >= 1,
 * `--margin` finite and >= 0.
 */
Status parseReportFlags(std::string_view command, int argc,
                        const char *const *argv, ReportFlags &f);

} // namespace mipp::cli

#endif // MIPP_CLI_REPORT_FLAGS_HH
