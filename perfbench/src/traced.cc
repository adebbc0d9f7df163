/**
 * @file
 * The traced run: per-layer metrics, timed from outside the library
 * around calls into each module's public entry points.
 *
 *  - nn: one training step driven phase by phase (GnnLayer
 *    forwardCompute / forwardCombine / backwardAgg / backwardPost, the
 *    loss, Adam::step) on the workload's step input, next to an
 *    untraced GnnModel::forward + backward + Adam::step reference from
 *    the same state. Logits and parameters must match bitwise.
 *  - tensor / core / kernels: the step's free-function calls (gemm*,
 *    maxkCompressFast, aggregateCbsr*, cbsrGemmTrans*, spmm*Fast)
 *    replayed one by one on the step's live activations and gradients.
 *  - sample, serve, gpusim, graph: the sampler and extractor per batch,
 *    a replay probe, profileEpoch, and the set-up's materialisation.
 *
 * Every timing is the median over spec.traceReps repeats.
 */

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>

#include "common/stopwatch.hh"
#include "core/linear_backward_cbsr.hh"
#include "kernels/sim_options.hh"
#include "kernels/spmm_fast.hh"
#include "nn/dropout.hh"
#include "nn/gnn_layer.hh"
#include "nn/loss.hh"
#include "nn/optimizer.hh"
#include "nn/trainer.hh"
#include "sample/extractor.hh"
#include "sample/sampler.hh"
#include "tensor/ops.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

/** Inputs of one training step (full graph or one extracted batch). */
struct StepInput
{
    const CsrGraph *graph = nullptr;
    const Matrix *x = nullptr;
    const std::vector<std::uint32_t> *labels = nullptr;
    const std::vector<std::uint8_t> *mask = nullptr;
};

/** Named timing series, one value per repeat. */
using Series = std::map<std::string, std::vector<double>>;

double
timeMs(const std::function<void()> &fn)
{
    Stopwatch watch;
    fn();
    return watch.milliseconds();
}

bool
sameParams(nn::GnnModel &a, nn::GnnModel &b)
{
    const nn::ParamRefs pa = a.params();
    const nn::ParamRefs pb = b.params();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (!pa[i]->value.equals(pb[i]->value))
            return false;
    return true;
}

/** The phase-driven step with its own activation and gradient buffers
 *  (kept for the op replays). */
struct TracedStep
{
    std::vector<Matrix> acts;   //!< acts[l + 1] = output of layer l
    std::vector<Matrix> dOut;   //!< dOut[l] = gradient at layer l's output
    Matrix dx0;                 //!< input gradient of layer 0
    Rng dropBefore{0};          //!< dropout stream before the step
    std::vector<Matrix> weights; //!< parameter values before Adam::step

    const Matrix &
    input(const StepInput &in, std::size_t l) const
    {
        return l == 0 ? *in.x : acts[l];
    }

    /** One step; its phase timings land in `t` (ms). */
    void
    run(nn::GnnModel &model, nn::Adam &adam, const StepInput &in, Series &t)
    {
        auto &layers = model.layers();
        const std::size_t n = layers.size();
        acts.resize(n + 1);
        dOut.resize(n);
        std::vector<double> fc(n), fm(n), ba(n), bp(n);
        dropBefore = model.dropoutRng();
        Stopwatch step;
        for (std::size_t l = 0; l < n; ++l) {
            fc[l] = timeMs([&] {
                layers[l].forwardCompute(input(in, l), true,
                                         model.dropoutRng());
            });
            fm[l] = timeMs(
                [&] { layers[l].forwardCombine(*in.graph, acts[l + 1]); });
        }
        nn::LossResult loss;
        const double loss_ms = timeMs([&] {
            loss = nn::softmaxCrossEntropy(acts[n], *in.labels, *in.mask);
        });
        std::swap(dOut[n - 1], loss.gradLogits);
        for (std::size_t l = n; l-- > 0;) {
            Matrix &dx = l == 0 ? dx0 : dOut[l - 1];
            ba[l] = timeMs([&] { layers[l].backwardAgg(*in.graph, dOut[l]); });
            bp[l] = timeMs(
                [&] { layers[l].backwardPost(*in.graph, dOut[l], dx); });
        }
        const double before_adam_ms = step.milliseconds();
        // The replays need the weights this step used (untimed copy).
        const nn::ParamRefs params = model.params();
        weights.resize(params.size());
        for (std::size_t i = 0; i < params.size(); ++i)
            weights[i] = params[i]->value;
        const double adam_ms = timeMs([&] { adam.step(); });
        const double step_ms = before_adam_ms + adam_ms;

        double layer_phases = 0.0;
        for (std::size_t l = 0; l < n; ++l) {
            const std::string p = "nn.l" + std::to_string(l) + ".";
            t[p + "fwd_compute_ms"].push_back(fc[l]);
            t[p + "fwd_combine_ms"].push_back(fm[l]);
            t[p + "bwd_agg_ms"].push_back(ba[l]);
            t[p + "bwd_post_ms"].push_back(bp[l]);
            layer_phases += fc[l] + fm[l] + ba[l] + bp[l];
        }
        t["layer_phases_ms"].push_back(layer_phases);
        t["nn.loss_ms"].push_back(loss_ms);
        t["nn.adam_step_ms"].push_back(adam_ms);
        t["nn.step_ms"].push_back(step_ms);
        t["unaccounted_ms"].push_back(step_ms - layer_phases - loss_ms -
                                      adam_ms);
    }
};

/** Totals of one replay of the step's free-function calls. */
struct OpReplay
{
    double gemmMs = 0, selectMs = 0, cbsrLinearBwdMs = 0;
    double aggCbsrFwdMs = 0, aggCbsrBwdMs = 0;
    double spmmFwdMs = 0, spmmBwdMs = 0;
    double gemmFlops = 0, spmmNnzDim = 0;
};

bool
sameCbsr(const CbsrMatrix &a, const CbsrMatrix &b)
{
    if (a.rows() != b.rows() || a.dimK() != b.dimK())
        return false;
    for (NodeId r = 0; r < a.rows(); ++r)
        for (std::uint32_t kk = 0; kk < a.dimK(); ++kk)
            if (a.indexAt(r, kk) != b.indexAt(r, kk) ||
                std::memcmp(&a.dataRow(r)[kk], &b.dataRow(r)[kk],
                            sizeof(Float)) != 0)
                return false;
    return true;
}

/**
 * Replay the calls GnnLayer makes into tensor/ops, core, kernels and
 * the CBSR aggregation, in step order, on the step's live state: the
 * dropout masks are redrawn from the dropout stream as it was before
 * the step, so every replayed input is the one the step used (the
 * dense GEMMs skip zero entries, so values matter, not only shapes).
 * `same` reports whether each replayed activation matched the step's.
 */
OpReplay
replayOps(nn::GnnModel &model, const StepInput &in, const TracedStep &st,
          bool &same)
{
    OpReplay r;
    const CsrGraph &g = *in.graph;
    const double nnz = static_cast<double>(g.numEdges());
    Rng drop_rng = st.dropBefore;
    nn::Dropout dropout(model.config().dropout);
    Matrix xd, y, h, agg, self, dh, dy, dw, dx;
    CbsrMatrix cb, dcb;
    auto gemmFlops = [](std::size_t m, std::size_t k, std::size_t n) {
        return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
               static_cast<double>(n);
    };
    same = true;
    auto &layers = model.layers();
    std::size_t param = 0;  // st.weights follows GnnModel::params() order
    for (std::size_t l = 0; l < layers.size(); ++l) {
        nn::GnnLayer &layer = layers[l];
        const bool sage = layer.config().kind == nn::GnnKind::Sage;
        const Matrix &w1 = st.weights[param];
        const Matrix &b1 = st.weights[param + 1];
        const Matrix *w2 = sage ? &st.weights[param + 2] : nullptr;
        param += sage ? 4 : 2;
        const Matrix &d_out = st.dOut[l];
        dropout.forward(st.input(in, l), xd, true, drop_rng);
        const std::size_t rows = xd.rows(), in_dim = w1.rows(),
                          out_dim = w1.cols();
        const bool cbsr = layer.activationIsCbsr();

        r.gemmMs += timeMs([&] { gemm(xd, w1, y); });
        r.gemmFlops += gemmFlops(rows, in_dim, out_dim);
        addRowVector(y, b1);
        if (cbsr) {
            r.selectMs += timeMs(
                [&] { nn::maxkCompressFast(y, layer.effectiveK(), cb); });
            same = same && sameCbsr(cb, layer.lastCbsr());
            r.aggCbsrFwdMs += timeMs([&] { nn::aggregateCbsr(g, cb, agg); });
        } else {
            if (layer.config().lastLayer)
                h = y;
            else
                reluForward(y, h);
            same = same && h.equals(layer.activationDense());
            r.spmmFwdMs += timeMs([&] { spmmRowWiseFast(g, h, agg); });
            r.spmmNnzDim += nnz * static_cast<double>(out_dim);
        }
        if (sage) {
            r.gemmMs += timeMs([&] { gemm(xd, *w2, self); });
            r.gemmFlops += gemmFlops(rows, in_dim, out_dim);
        }

        if (cbsr) {
            dcb.adoptPattern(cb);
            r.aggCbsrBwdMs +=
                timeMs([&] { nn::aggregateCbsrBackward(g, d_out, dcb); });
            r.cbsrLinearBwdMs += timeMs([&] {
                cbsrGemmTransA(xd, dcb, dw);
                cbsrGemmTransB(dcb, w1, dx);
            });
        } else {
            r.spmmBwdMs += timeMs([&] { spmmTransposedFast(g, d_out, dh); });
            r.spmmNnzDim += nnz * static_cast<double>(out_dim);
            if (layer.config().lastLayer)
                dy = dh;
            else
                reluBackward(y, dh, dy);
            r.gemmMs += timeMs([&] {
                gemmTransA(xd, dy, dw);
                gemmTransB(dy, w1, dx);
            });
            r.gemmFlops += 2 * gemmFlops(rows, in_dim, out_dim);
        }
        if (sage) {
            r.gemmMs += timeMs([&] {
                gemmTransA(xd, d_out, dw);
                gemmTransB(d_out, *w2, dx);
            });
            r.gemmFlops += 2 * gemmFlops(rows, in_dim, out_dim);
        }
    }
    return r;
}

} // namespace

Metrics
runTraced(const WorkloadSpec &spec, const Seeds &seeds, long poison_row,
          Gates &gates)
{
    const std::uint32_t reps = spec.traceReps;

    // Set-up, as in the untraced run (graph layer timings).
    std::unique_ptr<Instance> inst;
    std::vector<double> mat_s, eg_ms;
    for (std::uint32_t i = 0; i < spec.setups; ++i) {
        inst = setUp(spec, seeds, poison_row);
        mat_s.push_back(inst->materializeSeconds);
        eg_ms.push_back(inst->edgeGroupSeconds * 1e3);
    }
    const nn::ModelConfig cfg = inst->model->config();
    TrainingData &data = inst->data;
    data.graph.setAggregatorWeights(nn::aggregatorFor(cfg.kind));

    // Step input: the full graph, or one batch from the workload's
    // sampler and extractor (whose per-batch costs are measured here).
    Series t;
    StepInput in{&data.graph, &data.features, &data.labels, &data.trainMask};
    sample::Minibatch step_mb, probe_mb;
    double fill = 0.0, edges = 0.0;
    if (spec.sampled) {
        sample::SamplerConfig sc;
        sc.fanouts = spec.fanouts;
        sc.batchSize = spec.batchSize;
        sc.seed = seeds.sampler;
        sample::NeighborSampler sampler(data.graph, sc);
        sample::MinibatchExtractor extractor(sampler.nodeCapacity(),
                                             nn::aggregatorFor(cfg.kind),
                                             data.features, data.labels);
        std::vector<NodeId> ids, order, batch_seeds;
        for (NodeId v = 0; v < data.trainMask.size(); ++v)
            if (data.trainMask[v])
                ids.push_back(v);
        sampler.epochOrder(0, ids, order);
        const std::uint32_t batches = std::min<std::uint32_t>(
            sampler.numBatches(ids.size()), std::max(reps, 8u));
        sample::SampleBatch sb;
        for (std::uint32_t b = 0; b < batches; ++b) {
            const std::size_t lo = std::size_t(b) * spec.batchSize;
            batch_seeds.assign(
                order.begin() + lo,
                order.begin() + std::min(order.size(),
                                         lo + spec.batchSize));
            t["sample.sample_ms"].push_back(
                timeMs([&] { sampler.sample(0, b, batch_seeds, sb); }));
            sample::Minibatch &mb = b == 0 ? step_mb : probe_mb;
            t["sample.extract_ms"].push_back(
                timeMs([&] { extractor.extract(sb, mb); }));
            fill += static_cast<double>(sb.numNodes()) /
                    static_cast<double>(sampler.nodeCapacity());
            edges += static_cast<double>(sb.numEdges());
        }
        fill /= batches;
        edges /= batches;
        in = {&step_mb.graph, &step_mb.features, &step_mb.labels,
              &step_mb.trainMask};
    }

    // Traced step vs untraced reference, alternating which goes first.
    nn::GnnModel ref(cfg), traced(cfg);
    nn::Adam ref_adam(ref.params(), spec.lr, 0.9f, 0.999f, 1e-8f, 0.0f);
    nn::Adam traced_adam(traced.params(), spec.lr, 0.9f, 0.999f, 1e-8f,
                         0.0f);
    TracedStep step;
    std::vector<double> ref_ms;
    for (std::uint32_t r = 0; r < reps; ++r) {
        const Matrix *ref_logits = nullptr;
        auto run_ref = [&] {
            Stopwatch watch;
            ref_logits = &ref.forward(*in.graph, *in.x, true);
            const nn::LossResult loss =
                nn::softmaxCrossEntropy(*ref_logits, *in.labels, *in.mask);
            ref.backward(*in.graph, loss.gradLogits);
            ref_adam.step();
            ref_ms.push_back(watch.milliseconds());
        };
        if (r % 2 == 0)
            run_ref();
        step.run(traced, traced_adam, in, t);
        if (r % 2 == 1)
            run_ref();
        const std::string rep = "traced step " + std::to_string(r);
        gates.check(ref_logits->equals(step.acts.back()),
                    rep + ": logits differ from GnnModel::forward");
        gates.check(sameParams(ref, traced),
                    rep + ": parameters differ after Adam::step");
    }

    // Free-function replays on the last step's live state.
    std::vector<OpReplay> ops;
    for (std::uint32_t r = 0; r < reps; ++r) {
        bool same = false;
        ops.push_back(replayOps(traced, in, step, same));
        gates.check(same, "op replay " + std::to_string(r) +
                              ": activations differ from the step's");
    }
    auto opMed = [&](double OpReplay::*field) {
        std::vector<double> v;
        for (const OpReplay &o : ops)
            v.push_back(o.*field);
        return median(v);
    };
    std::uint64_t cbsr_nnz = 0;
    for (nn::GnnLayer &layer : traced.layers())
        if (layer.activationIsCbsr())
            cbsr_nnz += std::uint64_t(layer.lastCbsr().rows()) *
                        layer.lastCbsr().dimK();

    // Full-graph inference forward (the trainers' eval pass).
    for (std::uint32_t r = 0; r < reps; ++r)
        t["nn.eval_forward_ms"].push_back(timeMs(
            [&] { traced.forward(data.graph, data.features, false); }));

    // Serving probe on the workload's serving model.
    nn::GnnModel &serving = spec.trainInSetup ? *inst->model : traced;
    const std::uint32_t probe_calls = std::min<std::uint32_t>(spec.calls, 32);
    const auto windows = zipfWindows(seeds.traffic, data.graph.numNodes(),
                                     probe_calls, spec.window);
    const serve::ServeConfig scfg = serveConfigOf(spec, seeds);
    ServeRun served;
    {
        serve::ServeSession session(serving, data.graph, data.features, scfg);
        served = replayWindows(session, windows, probe_calls, 0, gates);
    }
    {
        // One capacity-padded serving forward, from outside the session.
        sample::SamplerConfig sc;
        sc.fanouts.assign(cfg.numLayers, scfg.fanout);
        sc.batchSize = scfg.batchCapacity;
        sc.seed = seeds.serve;
        sample::NeighborSampler sampler(data.graph, sc);
        sample::MinibatchExtractor extractor(sampler.nodeCapacity(),
                                             nn::aggregatorFor(cfg.kind),
                                             data.features, data.labels);
        std::vector<NodeId> seeds_v;
        for (const serve::ServeRequest &q : windows[0])
            if (seeds_v.size() < scfg.batchCapacity)
                seeds_v.push_back(q.vertex);
        sample::SampleBatch sb;
        sample::Minibatch mb;
        sampler.sample(0, 0, seeds_v, sb);
        extractor.extract(sb, mb);
        for (std::uint32_t r = 0; r < reps; ++r)
            t["serve.batch_forward_ms"].push_back(timeMs(
                [&] { serving.forward(mb.graph, mb.features, false); }));
    }

    const nn::EpochTiming sim =
        nn::profileEpoch(cfg, data.graph, *inst->part, SimOptions{});

    // Reconciliation: what the phases and the replayed calls explain.
    const double step_ms = median(t["nn.step_ms"]);
    const double gemm_ms = opMed(&OpReplay::gemmMs);
    const double layer_phases = median(t["layer_phases_ms"]);
    const double req = static_cast<double>(std::max<std::uint64_t>(
        served.requests, 1));
    const double lookups = static_cast<double>(
        std::max<std::uint64_t>(served.cacheHits + served.cacheMisses, 1));
    const double sample_ms = median(t["sample.sample_ms"]);
    const double extract_ms = median(t["sample.extract_ms"]);

    Metrics m;
    for (std::uint32_t l = 0; l < 3; ++l) {
        const std::string p = "nn.l" + std::to_string(l) + ".";
        for (const char *ph : {"fwd_compute_ms", "fwd_combine_ms",
                               "bwd_agg_ms", "bwd_post_ms"})
            m.push_back({p + ph, median(t[p + ph]), "ms"});
    }
    m.insert(m.end(), {
        {"nn.loss_ms", median(t["nn.loss_ms"]), "ms"},
        {"nn.adam_step_ms", median(t["nn.adam_step_ms"]), "ms"},
        {"nn.eval_forward_ms", median(t["nn.eval_forward_ms"]), "ms"},
        {"nn.step_ms", step_ms, "ms"},
        {"nn.unaccounted_share", median(t["unaccounted_ms"]) / step_ms,
         "ratio"},
        {"nn.self_ms", layer_phases - opMed(&OpReplay::gemmMs) -
                           opMed(&OpReplay::selectMs) -
                           opMed(&OpReplay::cbsrLinearBwdMs) -
                           opMed(&OpReplay::aggCbsrFwdMs) -
                           opMed(&OpReplay::aggCbsrBwdMs) -
                           opMed(&OpReplay::spmmFwdMs) -
                           opMed(&OpReplay::spmmBwdMs),
         "ms"},
        {"tensor.gemm_ms", gemm_ms, "ms"},
        {"tensor.gemm_gflops",
         opMed(&OpReplay::gemmFlops) / (gemm_ms * 1e6), "GFLOP/s"},
        {"tensor.gemm_share", gemm_ms / step_ms, "ratio"},
        {"core.maxk_select_ms", opMed(&OpReplay::selectMs), "ms"},
        {"core.cbsr_nnz", static_cast<double>(cbsr_nnz), "count"},
        {"core.cbsr_linear_bwd_ms", opMed(&OpReplay::cbsrLinearBwdMs), "ms"},
        {"nn.agg_cbsr_fwd_ms", opMed(&OpReplay::aggCbsrFwdMs), "ms"},
        {"nn.agg_cbsr_bwd_ms", opMed(&OpReplay::aggCbsrBwdMs), "ms"},
        {"kernels.spmm_fwd_ms", opMed(&OpReplay::spmmFwdMs), "ms"},
        {"kernels.spmm_bwd_ms", opMed(&OpReplay::spmmBwdMs), "ms"},
        {"kernels.spmm_nnz_dim", opMed(&OpReplay::spmmNnzDim), "count"},
        {"sample.sample_ms", sample_ms, "ms"},
        {"sample.extract_ms", extract_ms, "ms"},
        {"sample.produce_ms", sample_ms + extract_ms, "ms"},
        {"sample.step_ms", spec.sampled ? median(ref_ms) : 0.0, "ms"},
        {"sample.fill_ratio", fill, "ratio"},
        {"sample.edges_per_batch", edges, "count"},
        {"serve.cache_hit_ratio",
         static_cast<double>(served.cacheHits) / lookups, "ratio"},
        {"serve.rows_recomputed_per_req",
         static_cast<double>(served.rowsRecomputed) / req, "rows"},
        {"serve.rows_injected_per_req",
         static_cast<double>(served.rowsInjected) / req, "rows"},
        {"serve.feature_bytes_per_req",
         static_cast<double>(served.featureBytes) / req, "bytes"},
        {"serve.batches_per_call",
         static_cast<double>(served.batches) / probe_calls, "count"},
        {"serve.batch_forward_ms", median(t["serve.batch_forward_ms"]), "ms"},
        {"serve.service_sim_ms",
         served.serviceSimSeconds * 1e3 /
             static_cast<double>(std::max<std::uint64_t>(served.batches, 1)),
         "sim_ms"},
        {"gpusim.agg_fwd_ms", sim.aggFwd * 1e3, "sim_ms"},
        {"gpusim.agg_bwd_ms", sim.aggBwd * 1e3, "sim_ms"},
        {"gpusim.linear_ms", sim.linear * 1e3, "sim_ms"},
        {"gpusim.nonlin_ms", sim.nonlin * 1e3, "sim_ms"},
        {"gpusim.other_ms", sim.other * 1e3, "sim_ms"},
        {"gpusim.agg_fraction", sim.aggFraction(), "ratio"},
        {"graph.materialize_s", median(mat_s), "s"},
        {"graph.edge_groups_ms", median(eg_ms), "ms"},
        {"trace.overhead_ratio", step_ms / median(ref_ms), "ratio"},
    });
    return m;
}

} // namespace perfbench
