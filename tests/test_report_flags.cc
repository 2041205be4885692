/**
 * @file
 * Tests for the `report accuracy` / `report calibrate` flag parser
 * (src/cli/report_flags.hh): only synopsis flags are accepted, and every
 * number must parse whole and fall in range.
 */
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "cli/report_flags.hh"

namespace mipp::cli {
namespace {

constexpr const char *kAccuracy = "report accuracy";
constexpr const char *kCalibrate = "report calibrate";

Status
parse(const char *command, std::initializer_list<const char *> args,
      ReportFlags &f)
{
    std::vector<const char *> argv(args);
    return parseReportFlags(command, static_cast<int>(argv.size()),
                            argv.data(), f);
}

/** True when @p args is rejected for @p command with @p needle in the
 *  message. */
bool
rejects(const char *command, std::initializer_list<const char *> args,
        const std::string &needle)
{
    ReportFlags f;
    Status s = parse(command, args, f);
    return !s && s.code() == StatusCode::InvalidArgument &&
           s.message().find(needle) != std::string::npos;
}

TEST(ReportFlags, ParsesEveryAccuracyFlag)
{
    ReportFlags f;
    f.uops = 60000;
    ASSERT_TRUE(parse(kAccuracy,
                      {"--grid", "ci", "--uops", "20000", "--threads",
                       "3", "--full", "--no-phased", "--workload",
                       "branchy", "--trace", "a.mtf", "--json", "r.json",
                       "--baseline", "b.json", "--margin", "0.5"},
                      f));
    EXPECT_EQ(f.grid, "ci");
    EXPECT_TRUE(f.gridExplicit);
    EXPECT_EQ(f.uops, 20000u);
    EXPECT_EQ(f.threads, 3u);
    EXPECT_TRUE(f.full);
    EXPECT_FALSE(f.includePhased);
    EXPECT_EQ(f.workloads, std::vector<std::string>{"branchy"});
    EXPECT_EQ(f.traces, std::vector<std::string>{"a.mtf"});
    EXPECT_EQ(f.json, "r.json");
    EXPECT_EQ(f.baseline, "b.json");
    EXPECT_EQ(f.margin, 0.5);
}

TEST(ReportFlags, LeavesDefaultsWhenAbsent)
{
    ReportFlags f;
    f.uops = 60000;
    f.rounds = 3;
    ASSERT_TRUE(parse(kCalibrate, {"--no-branch-fit"}, f));
    EXPECT_EQ(f.uops, 60000u);
    EXPECT_EQ(f.rounds, 3);
    EXPECT_EQ(f.threads, 0u);
    EXPECT_EQ(f.margin, 2.0);
    EXPECT_FALSE(f.fitBranch);
}

TEST(ReportFlags, AcceptsTheBoundsOfEveryNumber)
{
    ReportFlags f;
    ASSERT_TRUE(parse(kAccuracy,
                      {"--uops", "100", "--threads", "1", "--margin", "0"},
                      f));
    EXPECT_EQ(f.uops, 100u);
    EXPECT_EQ(f.threads, 1u);
    EXPECT_EQ(f.margin, 0.0);
    ASSERT_TRUE(parse(kAccuracy, {"--uops", "10000000", "--margin", "1e-3"},
                      f));
    EXPECT_EQ(f.uops, 10000000u);
    EXPECT_EQ(f.margin, 1e-3);
    ASSERT_TRUE(parse(kCalibrate, {"--rounds", "1"}, f));
    EXPECT_EQ(f.rounds, 1);
}

TEST(ReportFlags, RejectsMalformedUops)
{
    // Each of these used to run (strtoull reads "2e4" as 2).
    for (const char *v : {"2e4", "0", "99", "10000001", "", "-5", "1k",
                          " 200", "200 ", "0x100",
                          "99999999999999999999999"})
        EXPECT_TRUE(rejects(kAccuracy, {"--uops", v},
                            "--uops requires an integer in [100, "
                            "10000000]"))
            << "'" << v << "'";
    EXPECT_TRUE(rejects(kCalibrate, {"--uops", "2e4"}, "--uops"));
}

TEST(ReportFlags, RejectsMalformedThreadsAndRounds)
{
    for (const char *v : {"0", "-1", "two", "4.5", "4294967296"})
        EXPECT_TRUE(rejects(kAccuracy, {"--threads", v}, "--threads"))
            << "'" << v << "'";
    for (const char *v : {"0", "-3", "3x"})
        EXPECT_TRUE(rejects(kCalibrate, {"--rounds", v}, "--rounds"))
            << "'" << v << "'";
}

TEST(ReportFlags, RejectsMalformedMargin)
{
    for (const char *v : {"x", "", "-1", "nan", "inf", "1.5pct", "1,5"})
        EXPECT_TRUE(rejects(kAccuracy, {"--margin", v},
                            "--margin requires a finite number >= 0"))
            << "'" << v << "'";
}

TEST(ReportFlags, RejectsFlagsOffTheSynopsisAndMissingValues)
{
    EXPECT_TRUE(rejects(kAccuracy, {"--mode", "paired"},
                        "unknown report accuracy flag --mode"));
    EXPECT_TRUE(rejects(kCalibrate, {"--full"},
                        "unknown report calibrate flag --full"));
    EXPECT_TRUE(rejects(kCalibrate, {"--margin", "1"}, "unknown"));
    EXPECT_TRUE(rejects(kAccuracy, {"uops"}, "unknown"));
    EXPECT_TRUE(rejects(kAccuracy, {"--uops"}, "--uops requires a value"));
}

} // namespace
} // namespace mipp::cli
