/**
 * @file
 * The untraced run: set-up (repeated, median), the timed training
 * call, the timed closed-loop serving calls, and the end-to-end
 * metrics. Tracing is off throughout.
 */

#include <sys/resource.h>

#include <cstring>

#include "common/stopwatch.hh"
#include "kernels/sim_options.hh"
#include "nn/trainer.hh"
#include "workload.hh"

namespace perfbench
{

serve::ServeConfig
serveConfigOf(const WorkloadSpec &spec, const Seeds &seeds)
{
    serve::ServeConfig cfg = spec.serve;
    cfg.seed = seeds.serve;
    return cfg;
}

ServeRun
replayWindows(serve::ServeSession &session,
              const std::vector<std::vector<serve::ServeRequest>> &windows,
              std::uint32_t count, std::uint32_t keep_logits, Gates &gates)
{
    ServeRun run;
    for (std::uint32_t c = 0; c < count; ++c) {
        const auto &window = windows[c];
        Stopwatch watch;
        auto rep = session.replay(window);
        run.callMs.push_back(watch.milliseconds());
        const std::string call = "serve call " + std::to_string(c);
        if (!rep.hasValue()) {
            for (std::size_t i = 0; i < window.size(); ++i)
                gates.check(false, call + ": rejected: " +
                                       rep.error().message);
            continue;
        }
        const serve::ServeReport &r = rep.value();
        for (std::size_t i = 0; i < r.requests; ++i) {
            const bool shed =
                r.requestOutcome[i] == serve::ServeReport::kOutcomeShed;
            gates.check(!shed && finiteRow(r.logits, i),
                        call + ": request " + std::to_string(i) +
                            (shed ? " shed" : " has non-finite logits"));
            if (!shed)
                run.latencySim.push_back(r.latencySimSeconds[i]);
        }
        gates.check(r.steadyStateAllocCount == 0,
                    call + ": steady-state allocations " +
                        std::to_string(r.steadyStateAllocCount));
        run.requests += r.requests;
        run.batches += r.batches;
        run.cacheHits += r.cacheHits;
        run.cacheMisses += r.cacheMisses;
        run.rowsRecomputed += r.nodesRecomputed;
        run.rowsInjected += r.nodesInjected;
        run.featureBytes += r.featureBytesGathered;
        run.serviceSimSeconds += r.serviceSimSeconds;
        if (c < keep_logits)
            run.logits.push_back(r.logits);
    }
    return run;
}

void
verifyCacheOff(const WorkloadSpec &spec, const Seeds &seeds,
               nn::GnnModel &model, const Instance &inst,
               const std::vector<std::vector<serve::ServeRequest>> &windows,
               const ServeRun &run, Gates &gates)
{
    serve::ServeConfig off = serveConfigOf(spec, seeds);
    off.cacheFraction = 0.0;
    off.lruSlots = 0;
    serve::ServeSession session(model, inst.data.graph, inst.data.features,
                                off);
    for (std::size_t c = 0; c < run.logits.size(); ++c) {
        const Matrix &cached = run.logits[c];
        auto rep = session.replay(windows[c]);
        const std::string call = "verify call " + std::to_string(c);
        for (std::size_t i = 0; i < cached.rows(); ++i) {
            const bool same =
                rep.hasValue() &&
                std::memcmp(rep.value().logits.row(i), cached.row(i),
                            cached.cols() * sizeof(Float)) == 0;
            gates.check(same, call + ": request " + std::to_string(i) +
                                  " differs from the cache-off replay");
        }
    }
}

namespace
{

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

} // namespace

Metrics
runUntraced(const WorkloadSpec &spec, const Seeds &seeds, long poison_row,
            Gates &gates)
{
    // Set-up is repeated from the same seed; every repeat must train to
    // the same bits (serve-zipf), and setup_s is the median.
    std::unique_ptr<Instance> inst;
    std::vector<double> setup_s, warm_vps;
    for (std::uint32_t i = 0; i < spec.setups; ++i) {
        auto next = setUp(spec, seeds, poison_row);
        setup_s.push_back(next->setupSeconds);
        if (spec.trainInSetup) {
            warm_vps.push_back(
                static_cast<double>(next->warmup.trainVertices) /
                next->warmup.seconds);
            if (inst)
                gates.check(next->warmup.losses == inst->warmup.losses,
                            "set-up repeat " + std::to_string(i) +
                                " trained to a different loss");
        }
        inst = std::move(next);
    }
    const nn::ModelConfig cfg = inst->model->config();

    inst->data.graph.setAggregatorWeights(nn::aggregatorFor(cfg.kind));
    const nn::EpochTiming sim =
        nn::profileEpoch(cfg, inst->data.graph, *inst->part, SimOptions{});

    // Training repeats from the same initial state; each must reach the
    // same bits, and the throughput is the median.
    TrainOutcome trained = inst->warmup;
    std::vector<double> train_vps = warm_vps;
    for (std::uint32_t r = 0; !spec.trainInSetup && r < spec.trainRepeats;
         ++r) {
        auto fresh = std::make_unique<nn::GnnModel>(cfg);
        const TrainOutcome t = train(spec, seeds, *inst, *fresh);
        train_vps.push_back(static_cast<double>(t.trainVertices) / t.seconds);
        if (r == 0)
            trained = t;
        else
            gates.check(t.losses == trained.losses,
                        "train repeat " + std::to_string(r) +
                            " reached a different loss");
        inst->model = std::move(fresh);
    }
    checkTraining(spec, trained, gates, "train");
    nn::GnnModel &model = *inst->model;

    const auto windows = zipfWindows(seeds.traffic,
                                     inst->data.graph.numNodes(),
                                     spec.calls, spec.window);
    serve::ServeSession session(model, inst->data.graph, inst->data.features,
                                serveConfigOf(spec, seeds));
    const ServeRun run =
        replayWindows(session, windows, spec.calls, spec.verifyCalls, gates);
    verifyCacheOff(spec, seeds, model, *inst, windows, run, gates);

    double call_s = 0.0;
    for (double ms : run.callMs)
        call_s += ms / 1e3;
    std::printf("serve: %zu calls of %u requests (closed loop, 1 client), "
                "%llu batches\n",
                run.callMs.size(), spec.window,
                static_cast<unsigned long long>(run.batches));
    std::printf("train: %zu run() calls of %zu epochs, losses",
                train_vps.size(), trained.losses.size());
    for (double l : trained.losses)
        std::printf(" %.6f", l);
    std::printf("\n");

    const double pass =
        1.0 - static_cast<double>(gates.failed) /
                  static_cast<double>(std::max<std::uint64_t>(
                      gates.attempted, 1));
    return {
        {"setup_s", median(setup_s), "s"},
        {"train_vertices_per_s", median(train_vps), "vertices/s"},
        {"final_loss",
         trained.losses.empty() ? 0.0 : trained.losses.back(), "nats"},
        {"sim_epoch_ms", sim.total() * 1e3, "sim_ms"},
        {"requests_per_s", static_cast<double>(run.requests) / call_s,
         "req/s"},
        {"call_ms_p50", quantile(run.callMs, 0.5), "ms"},
        {"call_ms_p90", quantile(run.callMs, 0.9), "ms"},
        {"sim_latency_p99_ms", quantile(run.latencySim, 0.99) * 1e3,
         "sim_ms"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"pass_ratio", pass, "ratio"},
    };
}

} // namespace perfbench
