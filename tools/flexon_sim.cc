/**
 * @file
 * flexon_sim — command-line driver for the simulator.
 *
 * Run a Table I benchmark (or a saved network file) on any backend,
 * print activity statistics, and optionally dump a raster, a rate
 * sparkline, a spikes CSV, or the network itself.
 *
 * Usage:
 *   flexon_sim --benchmark Vogels-Abbott [--scale 10] [--steps 1000]
 *              [--backend reference|flexon|folded] [--seed 1]
 *              [--solver euler|rkf45] [--threads N]
 *              [--engine dense|event|auto]
 *              [--raster] [--csv spikes.csv] [--save net.fxn]
 *              [--telemetry] [--report run.json] [--trace trace.json]
 *   flexon_sim --load net.fxn [--steps 1000] ...
 *   flexon_sim --list
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <optional>
#include <string>
#include <thread>

#include "analysis/raster.hh"
#include "analysis/spike_train.hh"
#include "common/health.hh"
#include "common/logging.hh"
#include "frontend/script.hh"
#include "nets/model_demo.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "registry/model_file.hh"
#include "registry/registry.hh"
#include "snn/auto_engine.hh"
#include "snn/event_driven.hh"
#include "snn/plasticity.hh"
#include "snn/serialize.hh"
#include "snn/simulator.hh"

using namespace flexon;

namespace {

struct Args
{
    std::string benchmark;
    std::string model;
    std::string modelFile;
    std::string script;
    std::string load;
    std::string save;
    std::string csv;
    double scale = 10.0;
    double rateScale = 1.0;
    EngineKind engine = EngineKind::Dense;
    ConnectivityKind connectivity = ConnectivityKind::Materialized;
    /** True once --connectivity was given; any explicit kind (even
     *  materialized) routes benchmarks through the spec builders so
     *  all three providers describe identical wiring. */
    bool connectivitySet = false;
    uint64_t steps = 1000;
    uint64_t seed = 1;
    size_t threads = 1;
    /** True once --engine was given explicitly. */
    bool engineSet = false;
    BackendKind backend = BackendKind::Reference;
    IntegrationMode mode = IntegrationMode::Discrete;
    SolverKind solver = SolverKind::Euler;
    bool raster = false;
    bool legacyDelivery = false;
    bool stats = false;
    bool list = false;
    bool listModels = false;
    bool telemetry = false;
    std::string report;
    std::string trace;
    uint64_t checkpointEvery = 0;
    std::string checkpointDir = ".";
    std::string restore;
    health::HealthOptions health;
    std::string metricsOut;
    uint64_t metricsEvery = 256;
    double watchdogTimeout = 0.0;
    std::string crashDump;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: flexon_sim --benchmark NAME | --model NAME |\n"
        "                  --script FILE | --load FILE |\n"
        "                  --list | --list-models\n"
        "  [--model-file FILE]  register extra neuron models from a\n"
        "                    flexon-models-v1 file "
        "(registry/model_file.hh)\n"
        "  [--scale S] [--steps N] [--seed N] [--threads N]\n"
        "  [--backend reference|flexon|folded]\n"
        "  [--engine dense|event|auto]  delivery engine "
        "(auto = rate-adaptive;\n"
        "                    event needs the reference backend)\n"
        "  [--connectivity materialized|compressed|procedural]\n"
        "                    synapse-table representation; any\n"
        "                    explicit choice builds benchmarks from\n"
        "                    their generative spec\n"
        "  [--legacy-delivery]  disable the sparse-activity "
        "delivery fast path\n"
        "  [--rate-scale R]  external-drive multiplier "
        "(microcircuit)\n"
        "  [--solver euler|rkf45]  (reference backend only)\n"
        "  [--raster] [--stats] [--csv FILE] [--save FILE]\n"
        "  [--telemetry]     enable deep counters + flight recorder\n"
        "  [--report FILE]   write a run-report JSON document\n"
        "  [--trace FILE]    write a Chrome trace.json "
        "(implies --telemetry)\n"
        "  [--health SPEC]   invariant detectors: off|warn|report|"
        "abort,\n"
        "                    or nan|sat|rate|ring:POLICY pairs plus\n"
        "                    sample=N / warmup=N "
        "(default report,sample=64)\n"
        "  [--metrics-out FILE]  live Prometheus snapshot (plus "
        "FILE.jsonl)\n"
        "  [--metrics-every N]   steps between metric snapshots "
        "(default 256)\n"
        "  [--watchdog-timeout SEC]  abort (exit 4) with a crash "
        "dump when\n"
        "                    a step stalls longer than SEC seconds\n"
        "  [--crash-dump FILE]  crash-dump path "
        "(default flexon-crash-dump.json)\n"
        "  [--checkpoint-every N]  snapshot every N steps\n"
        "  [--checkpoint-dir DIR]  where snapshots go "
        "(default .)\n"
        "  [--restore FILE]  resume from a snapshot, then run "
        "--steps more\n");
    std::exit(2);
}

/**
 * Reject a flag value with a message naming the flag, the offending
 * text, and what would have been accepted; exits 2 like usage().
 * Enum and numeric flags must never fall back to a default or a
 * partial parse on a typo — a long run under the wrong engine or
 * backend looks plausible and wastes the whole simulation.
 */
[[noreturn]] void
badValue(const std::string &flag, const char *value,
         const char *expected)
{
    std::fprintf(stderr,
                 "flexon_sim: invalid value '%s' for %s "
                 "(expected %s)\n",
                 value, flag.c_str(), expected);
    std::exit(2);
}

/** Strict base-10 unsigned parse: the whole token, no sign. */
uint64_t
parseCount(const std::string &flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        badValue(flag, text, "a non-negative integer");
    return v;
}

/** Strict floating-point parse of the whole token. */
double
parseReal(const std::string &flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (errno != 0 || end == text || *end != '\0')
        badValue(flag, text, "a number");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usage();
        return argv[++i];
    };
    const char *scaleText = nullptr;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--benchmark") {
            args.benchmark = need_value(i);
        } else if (flag == "--model") {
            args.model = need_value(i);
        } else if (flag == "--model-file") {
            args.modelFile = need_value(i);
        } else if (flag == "--script") {
            args.script = need_value(i);
        } else if (flag == "--load") {
            args.load = need_value(i);
        } else if (flag == "--save") {
            args.save = need_value(i);
        } else if (flag == "--csv") {
            args.csv = need_value(i);
        } else if (flag == "--scale") {
            scaleText = need_value(i);
            args.scale = parseReal(flag, scaleText);
            if (!(args.scale > 0.0))
                badValue(flag, scaleText, "a positive number");
        } else if (flag == "--rate-scale") {
            const char *v = need_value(i);
            args.rateScale = parseReal(flag, v);
            if (args.rateScale < 0.0)
                badValue(flag, v, "a non-negative number");
        } else if (flag == "--engine") {
            const char *v = need_value(i);
            if (!parseEngineKind(v, args.engine))
                badValue(flag, v, "dense, event, or auto");
            args.engineSet = true;
        } else if (flag == "--connectivity") {
            const char *v = need_value(i);
            if (!parseConnectivityKind(v, args.connectivity))
                badValue(flag, v,
                         "materialized, compressed, or procedural");
            args.connectivitySet = true;
        } else if (flag == "--steps") {
            args.steps = parseCount(flag, need_value(i));
        } else if (flag == "--seed") {
            args.seed = parseCount(flag, need_value(i));
        } else if (flag == "--threads") {
            args.threads = static_cast<size_t>(
                parseCount(flag, need_value(i)));
        } else if (flag == "--backend") {
            const char *v = need_value(i);
            if (std::strcmp(v, "reference") == 0)
                args.backend = BackendKind::Reference;
            else if (std::strcmp(v, "flexon") == 0)
                args.backend = BackendKind::Flexon;
            else if (std::strcmp(v, "folded") == 0)
                args.backend = BackendKind::Folded;
            else
                badValue(flag, v, "reference, flexon, or folded");
        } else if (flag == "--solver") {
            const char *v = need_value(i);
            args.mode = IntegrationMode::Continuous;
            if (std::strcmp(v, "euler") == 0)
                args.solver = SolverKind::Euler;
            else if (std::strcmp(v, "rkf45") == 0)
                args.solver = SolverKind::RKF45;
            else
                badValue(flag, v, "euler or rkf45");
        } else if (flag == "--telemetry") {
            args.telemetry = true;
        } else if (flag == "--report") {
            args.report = need_value(i);
        } else if (flag == "--trace") {
            args.trace = need_value(i);
        } else if (flag == "--health") {
            const char *v = need_value(i);
            std::string bad;
            if (!health::parseHealthSpec(v, args.health, &bad))
                badValue(flag, bad.c_str(),
                         "off|warn|report|abort, nan|sat|rate|ring:"
                         "POLICY pairs, sample=N, warmup=N");
        } else if (flag == "--metrics-out") {
            args.metricsOut = need_value(i);
        } else if (flag == "--metrics-every") {
            const char *v = need_value(i);
            args.metricsEvery = parseCount(flag, v);
            if (args.metricsEvery == 0)
                badValue(flag, v, "a positive integer");
        } else if (flag == "--watchdog-timeout") {
            const char *v = need_value(i);
            args.watchdogTimeout = parseReal(flag, v);
            if (!(args.watchdogTimeout > 0.0))
                badValue(flag, v, "a positive number of seconds");
        } else if (flag == "--crash-dump") {
            args.crashDump = need_value(i);
        } else if (flag == "--checkpoint-every") {
            args.checkpointEvery = parseCount(flag, need_value(i));
        } else if (flag == "--checkpoint-dir") {
            args.checkpointDir = need_value(i);
        } else if (flag == "--restore") {
            args.restore = need_value(i);
        } else if (flag == "--legacy-delivery") {
            args.legacyDelivery = true;
        } else if (flag == "--raster") {
            args.raster = true;
        } else if (flag == "--stats") {
            args.stats = true;
        } else if (flag == "--list") {
            args.list = true;
        } else if (flag == "--list-models") {
            args.listModels = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            usage();
        }
    }
    // --scale divides the full-size network. Only the Table I spec
    // builders (any explicit --connectivity) can grow it (scale < 1).
    const bool microcircuit = args.benchmark == "microcircuit";
    if (!args.benchmark.empty() && args.scale < 1.0 &&
        (microcircuit || !args.connectivitySet))
        badValue("--scale", scaleText,
                 microcircuit ? "at least 1 for the microcircuit"
                              : "at least 1 without --connectivity");
    // The event engine runs the reference arithmetic only; accepting
    // another backend would silently substitute it.
    if (args.engine == EngineKind::Event &&
        args.backend != BackendKind::Reference)
        badValue("--engine", "event",
                 "dense or auto with a non-reference backend");
    return args;
}

/**
 * CI fault injection: FLEXON_HEALTH_INJECT=nan@STEP | rate@STEP |
 * stall@STEP corrupts the run at the given step (counted in steps
 * run by this invocation) so the health-smoke job can assert that
 * the right detector fires with the right exit code. A test hook,
 * not a user feature — hence an environment variable, not a flag.
 */
struct Injection
{
    enum class Kind { None, Nan, Rate, Stall };
    Kind kind = Kind::None;
    uint64_t step = 0;
};

Injection
parseInjection()
{
    Injection inj;
    const char *env = std::getenv("FLEXON_HEALTH_INJECT");
    if (env == nullptr || *env == '\0')
        return inj;
    const std::string text = env;
    const size_t at = text.find('@');
    const std::string kind = text.substr(0, at);
    if (at == std::string::npos)
        badValue("FLEXON_HEALTH_INJECT", env,
                 "nan@STEP, rate@STEP, or stall@STEP");
    if (kind == "nan")
        inj.kind = Injection::Kind::Nan;
    else if (kind == "rate")
        inj.kind = Injection::Kind::Rate;
    else if (kind == "stall")
        inj.kind = Injection::Kind::Stall;
    else
        badValue("FLEXON_HEALTH_INJECT", env,
                 "nan@STEP, rate@STEP, or stall@STEP");
    inj.step =
        parseCount("FLEXON_HEALTH_INJECT", text.c_str() + at + 1);
    return inj;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);

    // Register file-provided models before anything looks names up —
    // --list-models must show them and --model/--script must find
    // them. A malformed file is a usage error (exit 2), with the
    // parser's byte-offset diagnostic on stderr.
    if (!args.modelFile.empty()) {
        std::string err;
        const int added = loadModelFile(ModelRegistry::instance(),
                                        args.modelFile, &err);
        if (added < 0) {
            std::fprintf(stderr, "flexon_sim: --model-file: %s\n",
                         err.c_str());
            return 2;
        }
        inform("registered %d model(s) from %s", added,
               args.modelFile.c_str());
    }

    if (args.listModels) {
        std::printf("%-22s %-26s %3s %5s %7s  %-11s %-3s %s\n",
                    "model", "features", "syn", "uops", "latency",
                    "kernel", "ie", "description");
        for (const ModelDescriptor *d :
             ModelRegistry::instance().all()) {
            std::printf("%-22s %-26s %3u %5zu %7zu  %-11s %-3s %s\n",
                        d->name.c_str(),
                        d->features().toString().c_str(),
                        d->params.numSynapseTypes, d->microcodeOps,
                        d->microcodeLatency,
                        d->kernel.specialized ? "specialized"
                                              : "generic",
                        d->ie.enabled ? "yes" : "no",
                        d->doc.c_str());
        }
        std::printf("\nregistry fingerprint: %s\n",
                    ModelRegistry::instance().fingerprint().c_str());
        return 0;
    }

    // The watchdog arms the flight recorder too: a crash dump with an
    // empty trace buffer is useless for the post-mortem it exists
    // for. (Recording costs only the armed ring buffer.)
    if (args.telemetry || !args.trace.empty() ||
        args.watchdogTimeout > 0.0) {
        telemetry::TelemetryConfig cfg;
        cfg.detail = true;
        cfg.trace =
            !args.trace.empty() || args.watchdogTimeout > 0.0;
        telemetry::configure(cfg);
    }

    if (args.list) {
        std::printf("%-18s %8s %10s  %-22s %s\n", "benchmark",
                    "neurons", "synapses", "model", "solver");
        for (const BenchmarkSpec &spec : table1Benchmarks()) {
            std::printf("%-18s %8zu %10zu  %-22s %s\n",
                        spec.name.c_str(), spec.neurons,
                        spec.synapses, spec.model.c_str(),
                        solverName(spec.solver));
        }
        size_t mcNeurons = 0;
        for (const size_t n : microcircuitFullSizes())
            mcNeurons += n;
        std::printf("%-18s %8zu %10s  %-22s %s\n", "microcircuit",
                    mcNeurons, "~3e8", "LLIF (8 populations)",
                    "Euler");
        return 0;
    }
    const int sources = (!args.benchmark.empty()) +
                        (!args.model.empty()) +
                        (!args.script.empty()) + (!args.load.empty());
    if (sources != 1)
        usage(); // exactly one source required

    // Resolve --model early: an unknown name is a usage error and
    // should list what *is* registered (builtins plus --model-file).
    const ModelDescriptor *modelDesc = nullptr;
    if (!args.model.empty()) {
        modelDesc = ModelRegistry::instance().find(args.model);
        if (modelDesc == nullptr) {
            std::fprintf(stderr,
                         "flexon_sim: unknown model '%s'; registered "
                         "models: %s\n",
                         args.model.c_str(),
                         ModelRegistry::instance()
                             .namesSummary()
                             .c_str());
            return 2;
        }
    }

    // Compressed and procedural connectivity regenerate (or
    // re-encode) rows from the benchmark's generative spec, so they
    // only exist for spec-built networks.
    if (args.connectivity != ConnectivityKind::Materialized &&
        args.benchmark.empty()) {
        fatal("--connectivity=%s requires --benchmark: loaded or "
              "scripted networks carry no generative spec",
              connectivityKindName(args.connectivity));
    }
    const bool proceduralNet =
        args.connectivity != ConnectivityKind::Materialized;

    Network net;
    StimulusGenerator stim(args.seed);
    std::string title;
    if (args.benchmark == "microcircuit") {
        MicrocircuitOptions mc;
        mc.scale = args.scale;
        mc.seed = args.seed;
        mc.rateScale = args.rateScale;
        MicrocircuitInstance inst =
            args.connectivitySet
                ? buildMicrocircuitSpec(mc, proceduralNet)
                : buildMicrocircuit(mc);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = "microcircuit";
    } else if (!args.benchmark.empty()) {
        // --scale is a shrink divisor; the spec builder takes a
        // growth factor, so the same flag value means the same size
        // either way.
        BenchmarkInstance inst =
            args.connectivitySet
                ? buildBenchmarkSpec(findBenchmark(args.benchmark),
                                     1.0 / args.scale, args.seed,
                                     proceduralNet)
                : buildBenchmark(findBenchmark(args.benchmark),
                                 args.scale, args.seed);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = args.benchmark;
    } else if (modelDesc != nullptr) {
        // --scale keeps its shrink-divisor meaning: the demo net is
        // 10000 neurons at scale 1, i.e. 1000 at the default 10.
        const size_t demoNeurons = std::max<size_t>(
            10, static_cast<size_t>(
                    std::llround(10000.0 / args.scale)));
        BenchmarkInstance inst =
            buildModelDemo(*modelDesc, demoNeurons, args.seed);
        net = std::move(inst.network);
        stim = std::move(inst.stimulus);
        title = inst.spec.name;
    } else if (!args.script.empty()) {
        ParsedScript parsed = parseScriptFile(args.script);
        net = std::move(parsed.network);
        stim = std::move(parsed.stimulus);
        title = args.script;
    } else {
        net = loadNetworkFile(args.load);
        title = args.load;
        // Generic background drive for loaded networks.
        stim.addSource(StimulusSource::poisson(
            0, static_cast<uint32_t>(net.numNeurons()), 0.01, 2.0f,
            0));
    }

    if (!args.save.empty()) {
        saveNetworkFile(args.save, net);
        inform("saved network to %s", args.save.c_str());
    }

    // Intrinsic-excitability plasticity attaches a rule to one live
    // session's backend, so it needs the discrete reference backend
    // and a pinned dense engine (adaptive switches and event-driven
    // restores rebuild the session, dropping attached rules).
    const bool wantIe = modelDesc != nullptr && modelDesc->ie.enabled;
    if (wantIe) {
        if (args.backend != BackendKind::Reference ||
            args.mode != IntegrationMode::Discrete) {
            fatal("model '%s' carries intrinsic-excitability "
                  "plasticity, which needs the discrete reference "
                  "backend",
                  args.model.c_str());
        }
        if (args.engine != EngineKind::Dense) {
            if (args.engineSet)
                warn("--engine %s overridden: plasticity rules "
                     "require the pinned dense engine",
                     engineKindName(args.engine));
            args.engine = EngineKind::Dense;
        }
    }

    SimulatorOptions opts;
    opts.backend = args.backend;
    opts.mode = args.mode;
    opts.solver = args.solver;
    opts.threads = args.threads;
    opts.recordSpikes = args.raster || !args.csv.empty();
    opts.sparseDelivery = !args.legacyDelivery;
    opts.connectivity = args.connectivity;
    opts.health = args.health;
    opts.metricsOut = args.metricsOut;
    opts.metricsEvery = args.metricsEvery;
    opts.label = title;
    AutoEngineOptions autoOpts;
    autoOpts.engine = args.engine;
    AutoSession sim(net, stim, opts, autoOpts);
    sim.session().setCheckpointCadence(args.checkpointEvery);

    // Attach the IE rule before any restore: loadCheckpoint requires
    // the same rules (count, kinds, order) the snapshot was saved
    // with. The engine is pinned dense above, so the session — and
    // with it the attachment — survives restores.
    std::optional<IntrinsicExcitabilityRule> ieRule;
    if (wantIe) {
        auto *dense = dynamic_cast<Simulator *>(&sim.session());
        if (dense == nullptr)
            fatal("internal: dense engine expected for plasticity");
        ieRule.emplace(dense->backend(), net.numNeurons(),
                       modelDesc->ie);
        sim.session().attachPlasticityRule(&*ieRule);
        inform("intrinsic excitability: eta=%g target-rate=%g "
               "tau=%g offsets=[%g, %g]",
               modelDesc->ie.eta, modelDesc->ie.targetRate,
               modelDesc->ie.tau, modelDesc->ie.minOffset,
               modelDesc->ie.maxOffset);
    }
    if (!args.restore.empty()) {
        sim.loadCheckpointFile(args.restore, &net);
        inform("restored checkpoint %s at step %llu",
               args.restore.c_str(),
               static_cast<unsigned long long>(
                   sim.session().restoredStep()));
    }

    // Crash-dump plumbing: detector aborts and watchdog stalls dump
    // the session registry and the flight recorder. The registered
    // registry is cleared automatically if the engine is swapped
    // (the dying session's destructor unregisters itself).
    if (!args.crashDump.empty())
        health::setCrashDumpPath(args.crashDump);
    health::setCrashDumpRegistry(&sim.session().metrics());

    std::optional<health::Watchdog> watchdog;
    if (args.watchdogTimeout > 0.0) {
        health::installCrashHandlers();
        watchdog.emplace(args.watchdogTimeout);
    }

    const Injection inject = parseInjection();
    if (inject.kind != Injection::Kind::None &&
        args.checkpointEvery != 0) {
        fatal("FLEXON_HEALTH_INJECT cannot be combined with "
              "--checkpoint-every");
    }

    // Arm the watchdog around the run loop only: network
    // construction and report writing must not count against the
    // step budget.
    if (watchdog)
        watchdog->start();

    // --steps counts the steps run by *this* invocation; after a
    // restore the simulation continues from the snapshot's step.
    if (inject.kind != Injection::Kind::None &&
        inject.step < args.steps) {
        sim.run(inject.step);
        switch (inject.kind) {
        case Injection::Kind::Nan:
            if (!sim.session().debugPoisonMembrane(0))
                warn("health inject: backend cannot represent NaN");
            break;
        case Injection::Kind::Rate:
            sim.session().debugInjectRateExplosion();
            break;
        case Injection::Kind::Stall: {
            const double sec =
                args.watchdogTimeout > 0.0
                    ? args.watchdogTimeout * 4.0 + 1.0
                    : 1.0;
            inform("health inject: stalling for %.1f s", sec);
            std::this_thread::sleep_for(
                std::chrono::duration<double>(sec));
            break;
        }
        default:
            break;
        }
        sim.run(args.steps - inject.step);
    } else if (args.checkpointEvery == 0) {
        sim.run(args.steps);
    } else {
        uint64_t remaining = args.steps;
        while (remaining > 0) {
            const uint64_t untilNext =
                args.checkpointEvery -
                (sim.session().currentStep() % args.checkpointEvery);
            const uint64_t chunk =
                std::min(remaining, untilNext);
            sim.run(chunk);
            remaining -= chunk;
            if (sim.session().currentStep() % args.checkpointEvery ==
                0) {
                const std::string path =
                    args.checkpointDir + "/checkpoint-" +
                    std::to_string(sim.session().currentStep()) +
                    ".fxc";
                if (sim.saveCheckpointFile(path))
                    inform("wrote checkpoint %s", path.c_str());
            }
        }
    }

    if (watchdog)
        watchdog->stop();

    SimulationSession &session = sim.session();
    const PhaseStats &st = session.stats();
    std::printf("%s: %zu neurons, %zu synapses, backend=%s, "
                "engine=%s%s\n",
                title.c_str(), net.numNeurons(), net.numSynapses(),
                backendName(args.backend), sim.activeEngine(),
                sim.adaptive() ? " (adaptive)" : "");
    if (sim.switches() > 0)
        std::printf("engine switches: %llu (crossover rate %.5f "
                    "spikes/neuron/step)\n",
                    static_cast<unsigned long long>(sim.switches()),
                    sim.crossoverRate());
    std::printf("steps=%llu spikes=%llu rate=%.5f/neuron/step "
                "synapse-events=%llu\n",
                static_cast<unsigned long long>(st.steps),
                static_cast<unsigned long long>(st.spikes),
                session.meanRate(),
                static_cast<unsigned long long>(st.synapseEvents));
    std::printf("wall time: stimulus %.2f ms, neuron %.2f ms, "
                "synapse %.2f ms\n",
                st.stimulusSec * 1e3, st.neuronSec * 1e3,
                st.synapseSec * 1e3);
    if (ieRule) {
        std::printf("intrinsic excitability: mean threshold offset "
                    "%+.5f after %llu steps\n",
                    ieRule->meanOffset(),
                    static_cast<unsigned long long>(st.steps));
    }
    if (st.modelNeuronSec > 0.0) {
        std::printf("modelled hardware neuron time: %.3f ms "
                    "(%.1fx vs this host's reference loop)\n",
                    st.modelNeuronSec * 1e3,
                    st.neuronSec / st.modelNeuronSec);
    }

    if (args.stats) {
        std::ostringstream oss;
        session.printStats(oss);
        std::fputs(oss.str().c_str(), stdout);
    }

    if (args.raster) {
        std::printf("\n%s",
                    renderRaster(session.spikeEvents(), net.numNeurons(),
                                 st.steps)
                        .c_str());
        const auto rate = populationRate(
            session.spikeEvents(), net.numNeurons(), st.steps,
            std::max<uint64_t>(1, st.steps / 72));
        std::printf("rate    %s\n",
                    renderRateSparkline(rate).c_str());
    }
    if (!args.csv.empty()) {
        std::ofstream os(args.csv);
        if (!os)
            fatal("cannot open '%s'", args.csv.c_str());
        writeSpikesCsv(os, session.spikeEvents());
        inform("wrote %zu spike events to %s",
               session.spikeEvents().size(), args.csv.c_str());
    }
    if (!args.report.empty() && session.writeRunReport(args.report))
        inform("wrote run report to %s", args.report.c_str());
    if (!args.trace.empty() &&
        telemetry::writeTraceFile(args.trace)) {
        inform("wrote %zu trace events to %s",
               telemetry::traceEventCount(), args.trace.c_str());
    }
    // Only for an explicitly traced run: the watchdog's implicit
    // flight recorder is a ring for the crash dump, where losing the
    // oldest events on a long run is by design.
    if (!args.trace.empty() && telemetry::traceDropped() > 0) {
        warn("flight recorder dropped %llu trace events (per-thread "
             "capacity %zu); raise TelemetryConfig::traceCapacity or "
             "shorten the traced run",
             static_cast<unsigned long long>(
                 telemetry::traceDropped()),
             telemetry::config().traceCapacity);
    }
    return 0;
}
