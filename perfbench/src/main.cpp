// perfbench: the repository benchmark's measuring program.
//
//   perfbench prepare --workload W --seed N --dir D
//       generate W's inputs for seed N into D, with reference outputs
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--trace-out FILE]
//       measure W on the prepared inputs; the last stdout line is the
//       result object
//
// run.py drives both steps; see NOTES.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

Options
parseArgs(int argc, char** argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench prepare|run ...");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; i += 2) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + key);
        std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::stoull(val);
        else if (key == "--seconds")
            opt.seconds = std::stod(val);
        else if (key == "--trace")
            opt.trace = std::stoi(val) != 0;
        else if (key == "--dir")
            opt.dir = val;
        else if (key == "--trace-out")
            opt.trace_out = val;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    if (opt.workload.empty() || opt.dir.empty())
        throw std::invalid_argument("--workload and --dir are required");
    if (opt.mode == "run" && opt.seconds <= 0)
        throw std::invalid_argument("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        Options opt = parseArgs(argc, argv);
        if (opt.mode == "prepare")
            return prepare(opt);
        if (opt.mode != "run")
            throw std::invalid_argument("unknown mode " + opt.mode);
        if (!opt.trace) {
            std::string why = buildGuard();
            if (!why.empty()) {
                std::fprintf(stderr,
                             "perfbench: refusing to report end-to-end "
                             "metrics: %s\n",
                             why.c_str());
                return 2;
            }
        }
        Report rep;
        int rc = 1;
        if (opt.workload == "scan")
            rc = runScan(opt, rep);
        else if (opt.workload == "batch")
            rc = runBatch(opt, rep);
        else
            throw std::invalid_argument("unknown workload " + opt.workload);
        if (rc != 0)
            return rc;
        return rep.finish(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
