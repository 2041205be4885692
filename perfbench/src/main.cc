/**
 * End-to-end benchmark program for the mipp pipeline.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--workdir DIR]
 *
 * Workloads: profile-stream, dse-million, serve-mixed, explore-validate
 * (see perfbench/README.md). Human-readable lines come first; the last
 * line of stdout is one JSON object {correct, attempted, failed,
 * metrics}. Exit status is 0 only when every output check passed.
 */
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload profile-stream|dse-million|"
                 "serve-mixed|explore-validate --seed N --seconds S "
                 "--trace 0|1 [--workdir DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            args.workload = v;
        else if (k == "--seed")
            args.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            args.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            args.trace = v == "1";
        else if (k == "--workdir")
            args.workdir = v;
        else
            return usage();
    }
    if (argc % 2 != 1 || !(args.seconds > 0))
        return usage();

    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    if (ec) {
        std::fprintf(stderr, "cannot create %s\n", args.workdir.c_str());
        return 2;
    }

    pb::printHostContext();
    std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    try {
        if (args.workload == "profile-stream")
            return pb::runProfileStream(args);
        if (args.workload == "dse-million")
            return pb::runDseMillion(args);
        if (args.workload == "serve-mixed")
            return pb::runServeMixed(args);
        if (args.workload == "explore-validate")
            return pb::runExploreValidate(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return usage();
}
