/**
 * @file
 * The three benchmark workloads: their specifications, the seeded
 * set-up that materialises each one's inputs, and the helpers the
 * untraced and traced runs share.
 *
 * Everything here drives the library through its public API only; no
 * span or counter is added inside src/.
 */

#ifndef MAXK_PERFBENCH_WORKLOAD_HH
#define MAXK_PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_groups.hh"
#include "graph/registry.hh"
#include "nn/model.hh"
#include "serve/batcher.hh"
#include "serve/session.hh"

namespace perfbench
{

using namespace maxk;

/** Static description of one workload (sizes already scaled). */
struct WorkloadSpec
{
    std::string name;
    std::uint32_t threads = 4;    //!< pinned pool size (MAXK_THREADS)
    NodeId nodes = 0;             //!< ogbn-products twin size
    nn::ModelConfig model;        //!< inDim/outDim filled from the task
    float lr = 5e-4f;

    bool sampled = false;         //!< SampledTrainer, else full-batch
    bool trainInSetup = false;    //!< training is set-up (serve-zipf)
    bool pipeline = true;         //!< sampled: producer thread on
    std::vector<std::uint32_t> fanouts;
    std::uint32_t batchSize = 64;
    std::uint32_t trainVertices = 0;  //!< training subset, 0 = all
    std::uint32_t epochs = 2;
    std::uint32_t trainRepeats = 1;   //!< run() calls from the same state

    // Serving phase (closed loop: one client, one window per call).
    serve::ServeConfig serve;
    std::uint32_t window = 64;    //!< requests per replay() call
    std::uint32_t calls = 100;    //!< replay() calls in the timed loop
    std::uint32_t verifyCalls = 4;  //!< cache-off replayed prefix

    std::uint32_t setups = 5;     //!< set-up repeats (median setup_s)
    std::uint32_t traceReps = 3;  //!< traced-step repeats
};

/**
 * Build the spec of `name` for a run of `seconds` seconds. The amount
 * of work is a fixed function of (name, seconds, tiny), never of
 * measured time, so deterministic metrics repeat exactly. Returns false
 * for an unknown name.
 */
bool makeSpec(const std::string &name, double seconds, bool tiny,
              WorkloadSpec &out);

/** Per-purpose seeds, all derived from the workload seed. */
struct Seeds
{
    std::uint64_t data, model, sampler, train, subset, serve, traffic;
    explicit Seeds(std::uint64_t workload_seed);
};

/** Outcome of one training run (full-batch or sampled). */
struct TrainOutcome
{
    std::vector<double> losses;
    double seconds = 0.0;
    std::uint64_t trainVertices = 0;  //!< mask count × epochs
    std::uint64_t steadyStateAllocs = 0;
    std::uint32_t producerSpawns = 0;
};

/** One materialised workload instance (the set-up's product). */
struct Instance
{
    TrainingTask task;
    TrainingData data;
    std::unique_ptr<EdgeGroupPartition> part;
    std::unique_ptr<nn::GnnModel> model;
    TrainOutcome warmup;           //!< trainInSetup only

    double materializeSeconds = 0.0;
    double edgeGroupSeconds = 0.0;
    double setupSeconds = 0.0;
};

/**
 * Seeded set-up: twin graph, features, labels, masks, the training
 * subset, the edge-group partition, the model, and (trainInSetup) the
 * warm-up training. `poison_row` >= 0 overwrites that feature row with
 * NaN after generation (the benchmark self-test's failure injection).
 */
std::unique_ptr<Instance> setUp(const WorkloadSpec &spec, const Seeds &seeds,
                                long poison_row);

/** Train `model` on `inst` per spec (full-batch Trainer or
 *  SampledTrainer) and report the trajectory. */
TrainOutcome train(const WorkloadSpec &spec, const Seeds &seeds,
                   Instance &inst, nn::GnnModel &model);

/** Tally of correctness gates: failures against attempts. */
struct Gates
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;

    /** Count one check; record `what` when it fails. */
    void check(bool ok, const std::string &what);
};

/** Training gates: one attempt per epoch (finite loss) plus the
 *  "final below first" and, for sampled runs, the allocation and
 *  producer checks. */
void checkTraining(const WorkloadSpec &spec, const TrainOutcome &t,
                   Gates &gates, const std::string &label);

/** Seeded Zipf(s=1) closed-loop trace, `calls` windows of `window`
 *  requests each, arrival clock continuing across windows. */
std::vector<std::vector<serve::ServeRequest>>
zipfWindows(std::uint64_t seed, NodeId num_nodes, std::uint32_t calls,
            std::uint32_t window);

/** Totals of a run of replay() calls. */
struct ServeRun
{
    std::vector<double> callMs;      //!< wall per replay() call
    std::vector<double> latencySim;  //!< per served request, seconds
    std::vector<Matrix> logits;      //!< the first keep_logits calls
    std::uint64_t requests = 0;
    std::uint64_t batches = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t rowsRecomputed = 0;
    std::uint64_t rowsInjected = 0;
    std::uint64_t featureBytes = 0;
    double serviceSimSeconds = 0.0;
};

/** The serving config of `spec` with its seed. */
serve::ServeConfig serveConfigOf(const WorkloadSpec &spec,
                                 const Seeds &seeds);

/**
 * Closed loop: replay windows[0..count) through `session`, one call
 * each, the next starting when the previous returns. Every request is
 * a gated attempt (rejected, shed or non-finite logits fail), and so is
 * each call's steady-state allocation count.
 */
ServeRun replayWindows(serve::ServeSession &session,
                       const std::vector<std::vector<serve::ServeRequest>>
                           &windows,
                       std::uint32_t count, std::uint32_t keep_logits,
                       Gates &gates);

/**
 * The anchor of the serving contract: a cache-off session replays the
 * first run.logits.size() windows and must give bitwise-equal logits
 * for every request.
 */
void verifyCacheOff(const WorkloadSpec &spec, const Seeds &seeds,
                    nn::GnnModel &model, const Instance &inst,
                    const std::vector<std::vector<serve::ServeRequest>>
                        &windows,
                    const ServeRun &run, Gates &gates);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};
using Metrics = std::vector<Metric>;

/** The untraced run: every end-to-end metric. */
Metrics runUntraced(const WorkloadSpec &spec, const Seeds &seeds,
                    long poison_row, Gates &gates);

/** The traced run: every per-layer metric. */
Metrics runTraced(const WorkloadSpec &spec, const Seeds &seeds,
                  long poison_row, Gates &gates);

/** True when every value of the row is finite. */
bool finiteRow(const Matrix &m, std::size_t r);

/** Median / linear-interpolated quantile of a copy of `v` (0 if empty). */
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

} // namespace perfbench

#endif // MAXK_PERFBENCH_WORKLOAD_HH
