#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hh"
#include "common/stopwatch.hh"
#include "kernels/sim_options.hh"
#include "nn/trainer.hh"
#include "sample/sampled_trainer.hh"

namespace perfbench
{

namespace
{

/** Work scales with the run length through fixed rates, so a given
 *  --seconds always performs the same work. */
std::uint32_t
scaled(double seconds, double per_second, std::uint32_t floor)
{
    return std::max(floor,
                    static_cast<std::uint32_t>(std::lround(seconds *
                                                            per_second)));
}

nn::ModelConfig
sageModel(nn::Nonlinearity nonlin, std::uint32_t layers,
          std::size_t hidden, std::uint32_t k)
{
    nn::ModelConfig m;
    m.kind = nn::GnnKind::Sage;
    m.nonlin = nonlin;
    m.maxkK = k;
    m.numLayers = layers;
    m.hiddenDim = hidden;
    m.dropout = 0.5f;
    return m;
}

serve::ServeConfig
serveConfig(std::uint32_t fanout, std::uint32_t batch_capacity)
{
    serve::ServeConfig s;
    s.fanout = fanout;
    s.batchCapacity = batch_capacity;
    s.cacheFraction = 0.25;
    s.lruSlots = 64;
    return s;
}

/** Keep a seeded `keep`-vertex subset of the training mask. */
void
subsetTrainMask(std::vector<std::uint8_t> &mask, std::uint32_t keep,
                std::uint64_t seed)
{
    std::vector<NodeId> ids;
    for (NodeId v = 0; v < mask.size(); ++v)
        if (mask[v])
            ids.push_back(v);
    if (keep >= ids.size())
        return;
    Rng rng(seed);
    for (std::uint32_t i = 0; i < keep; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng.uniform() * (ids.size() - i));
        std::swap(ids[i], ids[std::min(j, ids.size() - 1)]);
    }
    std::fill(mask.begin(), mask.end(), 0);
    for (std::uint32_t i = 0; i < keep; ++i)
        mask[ids[i]] = 1;
}

} // namespace

bool
makeSpec(const std::string &name, double seconds, bool tiny,
         WorkloadSpec &out)
{
    WorkloadSpec s;
    s.name = name;
    if (name == "full-maxk") {
        // The paper's system (Fig. 9): full-batch SAGE + MaxK on the
        // ogbn-products twin, eval every epoch.
        s.threads = 4;
        s.nodes = 8192;
        s.model = sageModel(nn::Nonlinearity::MaxK, 3, 256, 32);
        s.epochs = 2;
        s.trainRepeats = scaled(seconds, 0.3, 1);
        s.serve = serveConfig(4, 8);
        s.window = 8;
        s.calls = scaled(seconds, 10, 100);
    } else if (name == "sampled-relu") {
        // Pipelined mini-batch ReLU training: no MaxK select, no CBSR.
        // The producer thread is the fourth thread.
        s.threads = 3;
        s.nodes = 16384;
        s.model = sageModel(nn::Nonlinearity::Relu, 2, 64, 32);
        s.sampled = true;
        s.fanouts = {10, 10};
        s.epochs = 3;  // epoch >= 2 is the allocation-free steady state
        s.trainVertices = 640;
        s.trainRepeats = scaled(seconds, 0.3, 1);
        s.serve = serveConfig(8, 32);
        s.window = 64;
        s.calls = scaled(seconds, 10, 100);
    } else if (name == "serve-zipf") {
        // Inference only: a short warm-up training is part of set-up.
        // Synchronous warm-up keeps threads <= nproc.
        s.threads = 4;
        s.nodes = 16384;
        s.model = sageModel(nn::Nonlinearity::MaxK, 2, 64, 16);
        s.sampled = true;
        s.trainInSetup = true;
        s.pipeline = false;
        s.fanouts = {8, 8};
        s.epochs = 2;
        s.trainVertices = 1024;
        s.serve = serveConfig(8, 32);
        s.window = 64;
        s.calls = scaled(seconds, 30, 100);
        s.setups = 3;
    } else {
        return false;
    }
    if (tiny) {
        // Same code paths in seconds (benchmark self-test).
        s.nodes = s.sampled ? 2048 : 1024;
        s.model.hiddenDim = 32;
        s.model.maxkK = std::min<std::uint32_t>(s.model.maxkK, 8);
        if (s.sampled)
            s.trainVertices = 128;
        s.calls = 3;
        s.window = 8;
        s.verifyCalls = 1;
        s.setups = 1;
        s.trainRepeats = 1;
        s.traceReps = 1;
        s.lr = 1e-2f;  // a few tiny batches must still lower the loss
    }
    out = s;
    return true;
}

Seeds::Seeds(std::uint64_t s)
    : data(rngKey(s, 1)), model(rngKey(s, 2)), sampler(rngKey(s, 3)),
      train(rngKey(s, 4)), subset(rngKey(s, 5)), serve(rngKey(s, 6)),
      traffic(rngKey(s, 7))
{
}

std::unique_ptr<Instance>
setUp(const WorkloadSpec &spec, const Seeds &seeds, long poison_row)
{
    Stopwatch total;
    auto inst = std::make_unique<Instance>();
    inst->task = *findTrainingTask("ogbn-products");
    inst->task.accuracyNodes = spec.nodes;

    Stopwatch watch;
    Rng rng(seeds.data);
    inst->data = materializeTrainingData(inst->task, rng);
    inst->materializeSeconds = watch.seconds();

    if (poison_row >= 0 &&
        static_cast<std::size_t>(poison_row) < inst->data.features.rows()) {
        Float *row = inst->data.features.row(
            static_cast<std::size_t>(poison_row));
        std::fill(row, row + inst->data.features.cols(),
                  std::numeric_limits<Float>::quiet_NaN());
    }
    if (spec.trainVertices > 0)
        subsetTrainMask(inst->data.trainMask, spec.trainVertices,
                        seeds.subset);

    watch.reset();
    inst->part = std::make_unique<EdgeGroupPartition>(
        EdgeGroupPartition::build(inst->data.graph,
                                  SimOptions{}.workloadCap));
    inst->edgeGroupSeconds = watch.seconds();

    nn::ModelConfig cfg = spec.model;
    cfg.inDim = inst->task.featureDim;
    cfg.outDim = inst->task.numClasses;
    cfg.seed = seeds.model;
    inst->model = std::make_unique<nn::GnnModel>(cfg);

    if (spec.trainInSetup)
        inst->warmup = train(spec, seeds, *inst, *inst->model);
    inst->setupSeconds = total.seconds();
    return inst;
}

TrainOutcome
train(const WorkloadSpec &spec, const Seeds &seeds, Instance &inst,
      nn::GnnModel &model)
{
    TrainOutcome out;
    const auto &mask = inst.data.trainMask;
    out.trainVertices =
        static_cast<std::uint64_t>(std::count(mask.begin(), mask.end(), 1)) *
        spec.epochs;
    if (!spec.sampled) {
        nn::Trainer trainer(model, inst.data, inst.task);
        nn::TrainConfig tc;
        tc.epochs = spec.epochs;
        tc.lr = spec.lr;
        tc.evalEvery = 1;
        tc.seed = seeds.train;
        Stopwatch watch;
        const nn::TrainResult r = trainer.run(tc);
        out.seconds = watch.seconds();
        out.losses = r.trainLoss;
        return out;
    }
    sample::SamplerConfig sc;
    sc.fanouts = spec.fanouts;
    sc.batchSize = spec.batchSize;
    sc.seed = seeds.sampler;
    sample::SampledTrainer trainer(model, inst.data, inst.task, sc);
    sample::SampledTrainConfig tc;
    tc.epochs = spec.epochs;
    tc.lr = spec.lr;
    tc.evalEvery = spec.epochs;  // one eval, at the end
    tc.pipeline = spec.pipeline;
    tc.queueDepth = 2;
    Stopwatch watch;
    const sample::SampledTrainResult r = trainer.run(tc);
    out.seconds = watch.seconds();
    out.losses = r.trainLoss;
    out.steadyStateAllocs = r.steadyStateAllocCount;
    out.producerSpawns = r.producerSpawns;
    return out;
}

void
Gates::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (messages.size() < 8)
        messages.push_back(what);
}

void
checkTraining(const WorkloadSpec &spec, const TrainOutcome &t, Gates &gates,
              const std::string &label)
{
    for (std::size_t e = 0; e < t.losses.size(); ++e)
        gates.check(std::isfinite(t.losses[e]),
                    label + ": epoch " + std::to_string(e) +
                        " loss is not finite");
    gates.check(t.losses.size() == spec.epochs && !t.losses.empty() &&
                    t.losses.back() < t.losses.front(),
                label + ": final loss is not below the first");
    if (spec.sampled) {
        gates.check(t.steadyStateAllocs == 0,
                    label + ": steady-state allocations " +
                        std::to_string(t.steadyStateAllocs));
        gates.check(t.producerSpawns == (spec.pipeline ? 1u : 0u),
                    label + ": producer spawns " +
                        std::to_string(t.producerSpawns));
    }
}

std::vector<std::vector<serve::ServeRequest>>
zipfWindows(std::uint64_t seed, NodeId num_nodes, std::uint32_t calls,
            std::uint32_t window)
{
    // Zipf(s=1) over vertex ranks (rank r is vertex r): exact 1/r
    // cumulative weights, one uniform draw per request. Arrival gaps
    // are uniform in [0, 40 us): far more requests per 2 ms deadline
    // than a batch holds, so batches leave full and every call does
    // the same number of forwards.
    std::vector<double> cum(num_nodes);
    double total = 0.0;
    for (NodeId r = 0; r < num_nodes; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cum[r] = total;
    }
    Rng rng(seed);
    double t = 0.0;
    std::vector<std::vector<serve::ServeRequest>> out(calls);
    for (auto &w : out) {
        w.resize(window);
        for (serve::ServeRequest &req : w) {
            t += rng.uniform() * 4e-5;
            req.arrivalSimSeconds = t;
            const auto it = std::lower_bound(cum.begin(), cum.end(),
                                             rng.uniform() * total);
            req.vertex = static_cast<NodeId>(
                std::min<std::ptrdiff_t>(it - cum.begin(), num_nodes - 1));
        }
    }
    return out;
}

bool
finiteRow(const Matrix &m, std::size_t r)
{
    const Float *p = m.row(r);
    return std::all_of(p, p + m.cols(),
                       [](Float v) { return std::isfinite(v); });
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

} // namespace perfbench
