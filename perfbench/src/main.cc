/**
 * @file
 * perfbench_e2e: the repository's end-to-end benchmark.
 *
 *   perfbench_e2e --workload <full-maxk|sampled-relu|serve-zipf>
 *                 --seed N --seconds S --trace <0|1>
 *                 [--tiny] [--poison-nan]
 *
 * --trace 0 runs untraced and prints every end-to-end metric; --trace 1
 * runs the traced step and prints every per-layer metric. The last line
 * of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * Exit status: 0 when every correctness gate passed, 1 when one failed,
 * 2 on a usage error. --tiny shrinks every size (self-test);
 * --poison-nan overwrites feature row 0 (the hottest Zipf vertex) with
 * NaN, which must make the gates fire.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/parallel.hh"
#include "workload.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <full-maxk|sampled-relu|serve-zipf> "
                 "--seed N --seconds S --trace <0|1> [--tiny] "
                 "[--poison-nan]\n",
                 argv0);
    return 2;
}

void
printJsonNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool tiny = false, poison = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = argv[++i];
        else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--seconds" && has_value)
            seconds = std::atof(argv[++i]);
        else if (arg == "--trace" && has_value)
            trace = std::atoi(argv[++i]);
        else if (arg == "--tiny")
            tiny = true;
        else if (arg == "--poison-nan")
            poison = true;
        else
            return usage(argv[0]);
    }
    WorkloadSpec spec;
    if (!have_seed || !(seconds > 0.0) || (trace != 0 && trace != 1) ||
        !makeSpec(workload, seconds, tiny, spec))
        return usage(argv[0]);

    // Inputs are always the seeded synthetic twin, never a dataset
    // directory from the environment; the pool size is pinned.
    unsetenv(kDatasetDirEnv);
    setDefaultThreads(spec.threads);

    std::printf("fingerprint: nproc=%u MAXK_THREADS=%u build=%s "
                "compiler=\"%s\" workload=%s seed=%llu seconds=%g "
                "trace=%d%s\n",
                std::thread::hardware_concurrency(), defaultThreads(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, spec.name.c_str(),
                static_cast<unsigned long long>(seed), seconds, trace,
                tiny ? " tiny" : "");

    const Seeds seeds(seed);
    const long poison_row = poison ? 0 : -1;
    Gates gates;
    const Metrics metrics = trace ? runTraced(spec, seeds, poison_row, gates)
                                  : runUntraced(spec, seeds, poison_row, gates);

    for (const Metric &m : metrics)
        std::printf("%-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    for (const std::string &msg : gates.messages)
        std::printf("FAILED: %s\n", msg.c_str());
    std::printf("gates: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(gates.attempted),
                static_cast<unsigned long long>(gates.failed));

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                gates.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(gates.attempted),
                static_cast<unsigned long long>(gates.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    metrics[i].name.c_str());
        printJsonNumber(metrics[i].value);
        std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return gates.failed == 0 ? 0 : 1;
}
