#include "cli/report_flags.hh"

#include <charconv>
#include <cmath>
#include <limits>

#include "cli/cli_help.hh"
#include "validate/accuracy.hh"

namespace mipp::cli {

namespace {

/** True when @p flag appears as a whole word in @p command's synopsis. */
bool
onHelpLine(std::string_view command, std::string_view flag)
{
    for (const CommandHelp &c : commandTable()) {
        if (c.name != command)
            continue;
        for (size_t at = c.synopsis.find(flag);
             at != std::string_view::npos;
             at = c.synopsis.find(flag, at + 1)) {
            size_t end = at + flag.size();
            if (end == c.synopsis.size() ||
                std::string_view(" ]\n").find(c.synopsis[end]) !=
                    std::string_view::npos)
                return true;
        }
    }
    return false;
}

/** Parse all of @p text as a T; false on a partial or failed parse. */
template <typename T>
bool
parseWhole(std::string_view text, T &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end && !text.empty();
}

/** Integer flag value in [lo, hi]. */
template <typename T>
Status
parseInteger(std::string_view flag, std::string_view text, uint64_t lo,
             uint64_t hi, T &out)
{
    uint64_t v = 0;
    if (!parseWhole(text, v) || v < lo || v > hi)
        return invalidArgument(std::string(flag) +
                               " requires an integer in [" +
                               std::to_string(lo) + ", " +
                               std::to_string(hi) + "] (got '" +
                               std::string(text) + "')\n");
    out = static_cast<T>(v);
    return Status::ok();
}

} // namespace

Status
parseReportFlags(std::string_view command, int argc,
                 const char *const *argv, ReportFlags &f)
{
    for (int i = 0; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag.substr(0, 2) != "--" || !onHelpLine(command, flag))
            return invalidArgument("unknown " + std::string(command) +
                                   " flag " + std::string(flag) + "\n\n" +
                                   detailedHelp(command));
        std::string_view v;
        if (flag != "--full" && flag != "--no-phased" &&
            flag != "--no-branch-fit") {
            if (i + 1 >= argc)
                return invalidArgument(std::string(flag) +
                                       " requires a value\n");
            v = argv[++i];
        }
        Status s;
        if (flag == "--grid") {
            f.grid = v;
            f.gridExplicit = true;
        } else if (flag == "--full") {
            f.full = true;
        } else if (flag == "--json") {
            f.json = v;
        } else if (flag == "--baseline") {
            f.baseline = v;
        } else if (flag == "--margin") {
            // A typo must not silently become a zero margin.
            if (!parseWhole(v, f.margin) || !std::isfinite(f.margin) ||
                f.margin < 0)
                s = invalidArgument("--margin requires a finite number "
                                    ">= 0 (got '" + std::string(v) +
                                    "')\n");
        } else if (flag == "--uops") {
            s = parseInteger(flag, v, kRequestMinUops, kRequestMaxUops,
                             f.uops);
        } else if (flag == "--threads") {
            s = parseInteger(flag, v, 1,
                             std::numeric_limits<unsigned>::max(),
                             f.threads);
        } else if (flag == "--no-phased") {
            f.includePhased = false;
        } else if (flag == "--no-branch-fit") {
            f.fitBranch = false;
        } else if (flag == "--rounds") {
            // A zero would skip the whole coefficient fit yet still
            // print "fitted" values.
            s = parseInteger(flag, v, 1, std::numeric_limits<int>::max(),
                             f.rounds);
        } else if (flag == "--workload") {
            f.workloads.emplace_back(v);
        } else if (flag == "--trace") {
            f.traces.emplace_back(v);
        } else if (flag == "--check-grid") {
            f.checkGrids.emplace_back(v);
        }
        if (!s)
            return s;
    }
    return Status::ok();
}

} // namespace mipp::cli
