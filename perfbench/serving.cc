/**
 * @file
 * serve-mixed: a closed-loop client drives serve::InferenceService
 * with seeded windows of BNN and SVM requests, plus the serial batch
 * replay that splits a gate pass into its layers.
 */

#include <memory>
#include <set>

#include "checks.hh"
#include "common/rng.hh"
#include "core/accelerator.hh"
#include "obs/metrics_hub.hh"
#include "serve/demo.hh"
#include "serve/service.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace mouse;

namespace
{

/** Windows one service serves before it is replaced. */
constexpr unsigned kRotateWindows = 32;
/** The same for traced rounds, which also keep request spans. */
constexpr unsigned kRotateRounds = 8;
/** Fewest measured windows (or traced rounds) per run. */
constexpr unsigned kMinWindows = 3;
/** SVM requests re-run one per pass by the sample check. */
constexpr unsigned kSvmSamples = 8;
/** Replays of each model's full batch in a traced run. */
constexpr unsigned kBatchReplays = 3;

std::size_t
windowSize(const Options &opt)
{
    return opt.tiny ? 256 : 4096;
}

/** The bench_serve_saturation geometry: ProjectedStt, 512x1024
 *  tiles, one data tile, 4096 instruction tiles. */
serve::ServiceConfig
serviceConfig(unsigned workers, unsigned maxBatch)
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = workers;
    cfg.maxBatch = maxBatch;
    return cfg;
}

struct Window
{
    std::vector<serve::ModelId> model;
    std::vector<serve::Input> in;
};

struct Service
{
    std::unique_ptr<serve::InferenceService> svc;
    serve::ModelId bnn = 0;
    serve::ModelId svm = 0;
    serve::BnnServeModel bnnModel = serve::demoBnn(1);
};

/** Every request input of a run, drawn from Rng(seed). */
class Generator
{
  public:
    explicit Generator(std::uint64_t seed) : rng_(seed) {}

    /** BNN:SVM about 15:1 by count. */
    Window
    window(const Service &s, std::size_t n)
    {
        Window w;
        for (std::size_t i = 0; i < n; ++i) {
            const serve::ModelId m = rng_.below(16) == 0 ? s.svm : s.bnn;
            w.model.push_back(m);
            w.in.push_back(serve::randomInput(rng_, s.svc->model(m)));
        }
        return w;
    }

    Window
    warmup(const Service &s)
    {
        Window w;
        for (const serve::ModelId m : {s.bnn, s.svm}) {
            w.model.push_back(m);
            w.in.push_back(serve::randomInput(rng_, s.svc->model(m)));
        }
        return w;
    }

    std::vector<serve::Input>
    batch(const serve::PackedModel &m)
    {
        std::vector<serve::Input> in;
        for (unsigned s = 0; s < m.slots(); ++s) {
            in.push_back(serve::randomInput(rng_, m));
        }
        return in;
    }

  private:
    Rng rng_;
};

/** Submit every request of @p w; returns the first request id. */
serve::RequestId
submitAll(Service &s, const Window &w)
{
    const serve::RequestId first = s.svc->completed() +
                                   s.svc->pendingRequests();
    for (std::size_t i = 0; i < w.model.size(); ++i) {
        s.svc->submit(w.model[i], w.in[i]);
    }
    return first;
}

/** Construct, register both models, and warm the engines up. */
Service
makeService(unsigned workers, unsigned maxBatch, Generator &gen,
            Tracer &tr, Ledger *led)
{
    Service s;
    tr.span("serve.construct", workers, [&] {
        s.svc = std::make_unique<serve::InferenceService>(
            serviceConfig(workers, maxBatch));
    });
    const double bnnS = tr.span("compile.model_compile", 0, [&] {
        s.bnn = s.svc->addModel(s.bnnModel);
    });
    const double svmS = tr.span("compile.model_compile", 1, [&] {
        s.svm = s.svc->addModel(serve::demoSvm(2));
    });
    if (led != nullptr) {
        led->modelCompileMs.push_back(bnnS * 1e3);
        led->modelCompileMs.push_back(svmS * 1e3);
    }
    // Engines are created and first deployed on the first drain.
    tr.span("serve.warmup", 0, [&] {
        submitAll(s, gen.warmup(s));
        s.svc->drain();
    });
    return s;
}

/** Served BNN predictions of one window equal the software argmax. */
void
checkBnn(const Service &s, const Window &w, serve::RequestId first,
         Outcome &out)
{
    std::vector<int> served;
    std::vector<int> expected;
    for (std::size_t i = 0; i < w.model.size(); ++i) {
        if (w.model[i] == s.bnn) {
            served.push_back(s.svc->result(first + i).predicted);
            expected.push_back(bnnArgmax(s.bnnModel, w.in[i]));
        }
    }
    std::string why;
    out.check(samePredictions(served, expected, "BNN argmax", &why), why);
}

/** Window results a measured run keeps. */
struct WindowStats
{
    std::size_t completed = 0;
    double energy = 0.0;
    double requests = 0.0;
    double slotsOffered = 0.0;
    /** Admission-to-completion host latency per request. */
    std::vector<double> latencyMs;
};

WindowStats
collect(const Service &s, std::size_t n, serve::RequestId first)
{
    WindowStats ws;
    std::set<std::uint64_t> batches;
    for (serve::RequestId id = first; id < first + n; ++id) {
        const serve::ClassifyResult &r = s.svc->result(id);
        ++ws.completed;
        ws.energy += r.energy;
        ws.latencyMs.push_back(r.hostSeconds * 1e3);
        if (batches.insert(r.batchId).second) {
            ws.slotsOffered += s.svc->model(r.model).slots();
        }
    }
    ws.requests = static_cast<double>(n);
    return ws;
}

/**
 * A seeded sample of the window's SVM requests, each re-run alone
 * (one request per pass), must predict what the batched run did.
 */
void
checkSvmSample(const Service &s, const Window &w, serve::RequestId first,
               std::uint64_t seed, Tracer &tr, Outcome &out)
{
    std::vector<std::size_t> svmIdx;
    for (std::size_t i = 0; i < w.model.size(); ++i) {
        if (w.model[i] == s.svm) {
            svmIdx.push_back(i);
        }
    }
    Rng pick(seed ^ 0x5a5a5a5aULL);
    std::vector<std::size_t> sample;
    for (unsigned k = 0; k < kSvmSamples && !svmIdx.empty(); ++k) {
        sample.push_back(svmIdx[pick.below(svmIdx.size())]);
    }
    Generator warm(seed);
    Service alone = makeService(1, 1, warm, tr, nullptr);
    std::vector<int> served;
    std::vector<int> single;
    for (const std::size_t i : sample) {
        served.push_back(s.svc->result(first + i).predicted);
        const serve::RequestId id = alone.svc->submit(alone.svm, w.in[i]);
        alone.svc->drain();
        single.push_back(alone.svc->result(id).predicted);
    }
    std::string why;
    out.check(!sample.empty(), "window holds no SVM request");
    out.check(samePredictions(served, single, "SVM one-per-pass", &why),
              why);
}

/**
 * One full BNN batch and one full SVM batch replayed serially on one
 * engine: deploy, pack, sim (Accelerator::submit + wait) and readout,
 * then the same pass again stepped through Controller::step() with
 * each step timed and bucketed by opcode.
 */
void
replayBatches(const Service &s, Generator &gen, Tracer &tr, Ledger &led,
              double *steppedSeconds, double *simSeconds, Outcome &out)
{
    std::unique_ptr<Accelerator> acc;
    tr.span("serve.engine_setup", 0, [&] {
        acc = std::make_unique<Accelerator>(serviceConfig(1, 0).engine);
    });
    led.batchReplays = kBatchReplays;
    for (const serve::ModelId id : {s.bnn, s.svm}) {
        const serve::PackedModel &m = s.svc->model(id);
        const std::vector<serve::Input> in = gen.batch(m);
        (id == s.bnn ? led.programInstsBnn : led.programInstsSvm) =
            m.program().size();
        // Only the submit path's phases are recorded; the stepped
        // path repeats them to start from the same state.
        auto deployAndPack = [&](bool record) {
            const double deployS = tr.span("serve.deploy", id, [&] {
                acc->loadProgram(m.program());
                m.deployWeights(acc->grid());
            });
            const double packS = tr.span("serve.pack", id, [&] {
                for (unsigned slot = 0; slot < m.slots(); ++slot) {
                    if (slot < in.size()) {
                        m.packInput(acc->grid(), slot, in[slot]);
                    } else {
                        m.clearInput(acc->grid(), slot);
                    }
                }
            });
            if (record) {
                led.deployMs.push_back(deployS * 1e3);
                led.packMs.push_back(packS * 1e3);
            }
        };
        auto readout = [&](bool record) {
            std::vector<int> p(in.size());
            const double readS = tr.span("serve.readout", id, [&] {
                for (unsigned slot = 0; slot < in.size(); ++slot) {
                    p[slot] = m.readPrediction(acc->grid(), slot);
                }
            });
            if (record) {
                led.readoutMs.push_back(readS * 1e3);
            }
            return p;
        };
        for (unsigned rep = 0; rep < kBatchReplays; ++rep) {
            deployAndPack(true);
            RunResult res;
            const double simS = tr.span("serve.sim", id, [&] {
                const RequestHandle h =
                    acc->submit(RunRequestBuilder().label(m.name()).build());
                res = acc->wait(h);
            });
            led.simMs.push_back(simS * 1e3);
            *simSeconds += simS;
            out.check(res.ok(), "replayed batch rejected");
            const std::vector<int> submitted = readout(true);

            deployAndPack(false);
            Controller &ctrl = acc->controller();
            *steppedSeconds += tr.span("controller.replay", id, [&] {
                while (!ctrl.halted()) {
                    const Clock::time_point t0 = Clock::now();
                    const StepResult r = ctrl.step();
                    const double dt = secondsSince(t0);
                    std::size_t bucket = 2;
                    if (!r.halted && isGateOpcode(r.inst.op)) {
                        bucket = 0;
                    } else if (!r.halted &&
                               (r.inst.op == Opcode::kPreset0 ||
                                r.inst.op == Opcode::kPreset1)) {
                        bucket = 1;
                    }
                    led.stepSeconds[bucket] += dt;
                    ++led.steps[bucket];
                }
            });
            const std::vector<int> stepped = readout(false);
            std::string why;
            out.check(samePredictions(stepped, submitted,
                                      "stepped replay vs submit", &why),
                      why);
            if (id == s.bnn) {
                std::vector<int> expected;
                for (const serve::Input &x : in) {
                    expected.push_back(bnnArgmax(s.bnnModel, x));
                }
                out.check(samePredictions(submitted, expected,
                                          "replayed BNN argmax", &why),
                          why);
            }
        }
    }
}

/**
 * One traced serving round: window @p w runs three times, on the
 * N-worker service with every submit timed, with a MetricsHub and
 * request tracing attached, and on the 1-worker service (the serial
 * busy time behind serve.worker_efficiency).  Only round 0 records a
 * span per submit, so the trace stays small.
 */
void
serveRound(const Options &opt, Service &s, Service &one, const Window &w,
           unsigned round, Tracer &tr, Ledger &led, Outcome &out)
{
    const std::size_t n = w.model.size();
    const serve::RequestId first = s.svc->completed();
    tr.span("serve.window", round, [&] {
        for (std::size_t i = 0; i < n; ++i) {
            const Clock::time_point t0 = Clock::now();
            s.svc->submit(w.model[i], w.in[i]);
            const Clock::time_point t1 = Clock::now();
            led.submitUs.push_back(
                std::chrono::duration<double, std::micro>(t1 - t0).count());
            if (round == 0) {
                tr.record("serve.submit", first + i, t0, t1);
            }
        }
    });
    double drain = 0.0;
    tr.span("serve.drain", round, [&] { drain = s.svc->drain(); });
    out.check(s.svc->pendingRequests() == 0,
              "requests not completed by drain()");
    led.obsOffDrain.push_back(drain);
    checkBnn(s, w, first, out);
    const WindowStats ws = collect(s, n, first);
    led.slotRequests += ws.requests;
    led.slotsOffered += ws.slotsOffered;

    obs::MetricsHub hub;
    s.svc->setMetrics(&hub);
    s.svc->setTracing(true);
    submitAll(s, w);
    tr.span("obs.serve_drain", round,
            [&] { led.obsOnDrain.push_back(s.svc->drain()); });
    s.svc->setMetrics(nullptr);
    s.svc->setTracing(false);

    submitAll(one, w);
    double serial = 0.0;
    tr.span("serve.serial_drain", round,
            [&] { serial = one.svc->drain(); });
    led.workerEfficiency.push_back(serial / (drain * opt.threads));
}

} // namespace

void
probeServeLayers(const Options &opt, Tracer &tr, unsigned windows,
                 Ledger &led, Outcome &out)
{
    const double solve = tr.span("logic.solve", 0, [&] {
        const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    });
    led.solveMs.push_back(solve * 1e3);

    Generator gen(opt.seed);
    Service s;
    Service one;
    const std::size_t n = windowSize(opt);
    const Clock::time_point t0 = Clock::now();
    for (unsigned r = 0;
         windows > 0 ? r < windows
                     : r < kMinWindows || secondsSince(t0) < opt.seconds;
         ++r) {
        if (r % kRotateRounds == 0) {
            // Fresh services bound the memory kept per request.
            s = Service{};
            one = Service{};
            s = makeService(opt.threads, 0, gen, tr, &led);
            one = makeService(1, 0, gen, tr, nullptr);
        }
        serveRound(opt, s, one, gen.window(s, n), r, tr, led, out);
    }
    double stepped = 0.0;
    double sim = 0.0;
    tr.span("replay.batches", 0, [&] {
        replayBatches(s, gen, tr, led, &stepped, &sim, out);
    });
    if (opt.workload == "serve-mixed") {
        led.benchTraceOverhead = stepped / sim;
    }
}

void
runServeWorkload(const Options &opt, Tracer &tr, Outcome &out)
{
    if (opt.trace) {
        Ledger led;
        probeServeLayers(opt, tr, 0, led, out);
        out.attempted = static_cast<std::uint64_t>(led.slotRequests);
        probeSweepLayers(opt, tr, led, out);
        led.simTax = measureSimTax(tr);
        addLayerMetrics(led, simulateTable4(), out);
        return;
    }

    // Set-up: service construction, both models, engine warm-up.
    Service s;
    std::unique_ptr<Generator> gen;
    const double setup = medianSetup(opt.start, [&] {
        s = Service{};
        gen = std::make_unique<Generator>(opt.seed);
        s = makeService(opt.threads, 0, *gen, tr, nullptr);
    });

    const std::size_t n = windowSize(opt);
    // Per window: classifications/s and the p50/p99 latency of its
    // requests; the medians over windows are reported.
    std::vector<double> rate;
    std::vector<double> p50;
    std::vector<double> p99;
    double completed = 0.0;
    double energy = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (unsigned k = 0; k < kMinWindows || secondsSince(t0) < opt.seconds;
         ++k) {
        if (k > 0 && k % kRotateWindows == 0) {
            // A service keeps every request it served; a fresh one
            // bounds memory.  Set-up time stays out of drain time.
            s = Service{};
            s = makeService(opt.threads, 0, *gen, tr, nullptr);
        }
        const Window w = gen->window(s, n);
        const serve::RequestId first = submitAll(s, w);
        const double drain = s.svc->drain();
        out.attempted += n;
        const std::size_t pending = s.svc->pendingRequests();
        if (pending > 0) {
            out.failed += pending;
            out.check(false, std::to_string(pending) +
                                 " requests not completed by drain()");
            break;
        }
        const WindowStats ws = collect(s, n, first);
        rate.push_back(static_cast<double>(ws.completed) / drain);
        p50.push_back(percentile(ws.latencyMs, 0.50));
        p99.push_back(percentile(ws.latencyMs, 0.99));
        completed += static_cast<double>(ws.completed);
        energy += ws.energy;
        checkBnn(s, w, first, out);
        if (k == 0) {
            checkSvmSample(s, w, first, opt.seed, tr, out);
            // The same requests on one worker fold to the same stats.
            Generator replay(opt.seed);
            Service one = makeService(1, 0, replay, tr, nullptr);
            submitAll(one, replay.window(one, n));
            one.svc->drain();
            std::string why;
            out.check(sameStats(s.svc->stats()->toJson(),
                                one.svc->stats()->toJson(), &why),
                      why);
        }
    }

    // Services are replaced every kRotateWindows windows, so the
    // peak does not grow with the number of windows served.
    out.add("setup_s", setup, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.add("classifications_per_s", median(rate), "1/s");
    out.add("latency_p50_ms", median(p50), "ms");
    out.add("latency_p99_ms", median(p99), "ms");
    addPaperGaps(simulateTable4(), out);
    out.add("sim_uj_per_classification", energy * 1e6 / completed, "uJ");
    out.notes.push_back(
        "windows: " + std::to_string(rate.size()) + " of " +
        std::to_string(n) + " requests; classifications/s quartiles " +
        std::to_string(percentile(rate, 0.25)) + " " +
        std::to_string(percentile(rate, 0.5)) + " " +
        std::to_string(percentile(rate, 0.75)));
}

} // namespace perfbench
