/**
 * @file
 * The whole-run ledger driver: runs one named workload end to end
 * through the simulator's public API, repeatedly for a fixed wall
 * budget, checks every repetition for correctness, and prints the
 * end-to-end metrics (untraced mode) or the per-layer metrics
 * (traced mode) as one JSON object on the last line of stdout.
 *
 *   flexon_ledger --workload mc-x1 --seed 1 --seconds 35 --trace 0
 *       [--trace-out FILE]
 *
 * Only the spec-path builders (buildMicrocircuitSpec,
 * buildBenchmarkSpec), the dense Simulator with default options apart
 * from backend/threads/connectivity/recordSpikes, and the public
 * SimulationSession calls are used, so the driver survives the
 * removal of every alternative engine and builder.
 *
 * All times are host wall clock (std::chrono::steady_clock). Spans
 * are recorded from this file around each call into a layer; phase
 * times inside a step come from the session's own stats().
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/telemetry.hh"
#include "common/thread_pool.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "snn/simulator.hh"

using namespace flexon;

namespace {

#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
constexpr bool kOptimizedBuild = false;
#else
constexpr bool kOptimizedBuild = true;
#endif

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_COMPILER
#define LEDGER_COMPILER "unknown"
#endif

/** Simulated seconds per step (the 0.1 ms step of every network). */
constexpr double kStepSeconds = 1e-4;

/** Per-step samples needed so p99 has at least 10 beyond it. */
constexpr size_t kMinStepSamples = 1000;

/** Repetitions needed for the repeat-determinism gate. */
constexpr size_t kMinReps = 2;

enum class NetKind { Microcircuit, Izhikevich };

/** One named workload. Why each exists is in ledger/README.md. */
struct Workload
{
    const char *name;
    NetKind net;
    /** Microcircuit external-drive multiplier. */
    double rateScale;
    size_t threads;
    ConnectivityKind connectivity;
    /** Steps of the main run. */
    uint64_t steps;
    /** Leading steps excluded from the per-step percentiles. */
    uint64_t warmupSteps;
    /** Checkpoint cadence (0 = none); the last mid-run checkpoint
     *  is restored into a fresh Simulator and replayed to the end. */
    uint64_t checkpointEvery;
    /** Accepted mean rate, spikes per neuron per step. */
    double rateLo;
    double rateHi;
    /**
     * Thread count of the extra repetitions the traced run adds
     * (0 = none). Their spikes must match the workload's own, which
     * gates thread invariance; they also supply the thread-pool
     * metrics when the workload itself runs serially.
     */
    size_t altThreads;
};

// Step counts end before each network's seed-dependent late dynamics
// (a random drop out of the x8 high-rate state, later x1 bursts), so
// the work per run does not vary with the seed. mc-x8-t4 is runnable
// but left out of BENCHMARK.json: it cannot be made steady on a
// shared 4-vCPU host.
constexpr Workload kWorkloads[] = {
    {"mc-x1", NetKind::Microcircuit, 1.0, 1,
     ConnectivityKind::Materialized, 1200, 250, 0, 3e-4, 3e-3, 0},
    {"mc-x8", NetKind::Microcircuit, 8.0, 1,
     ConnectivityKind::Materialized, 1000, 250, 250, 1e-2, 6e-2, 4},
    {"mc-x8-t4", NetKind::Microcircuit, 8.0, 4,
     ConnectivityKind::Materialized, 1000, 250, 0, 1e-2, 6e-2, 1},
    {"izh-proc", NetKind::Izhikevich, 1.0, 1,
     ConnectivityKind::Procedural, 800, 200, 0, 3e-4, 5e-3, 0},
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * In-memory span recorder (name, start, end, parent id). Scopes
 * always return their duration; spans are only kept when enabled.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        uint64_t startNs;
        uint64_t endNs;
        uint64_t id;
        uint64_t parent;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** Times one call; end() returns its seconds. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name)
            : log_(log), name_(name), id_(++log.nextId_),
              parent_(log.current_), start_(Clock::now())
        {
            log_.current_ = id_;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { end(); }

        double
        end()
        {
            if (done_)
                return seconds_;
            done_ = true;
            const Clock::time_point stop = Clock::now();
            seconds_ = std::chrono::duration<double>(stop - start_)
                           .count();
            log_.current_ = parent_;
            if (log_.enabled_) {
                log_.spans_.push_back(
                    {name_, log_.ns(start_), log_.ns(stop), id_,
                     parent_});
            }
            return seconds_;
        }

      private:
        SpanLog &log_;
        const char *name_;
        uint64_t id_;
        uint64_t parent_;
        Clock::time_point start_;
        bool done_ = false;
        double seconds_ = 0.0;
    };

    const std::vector<Span> &spans() const { return spans_; }

  private:
    uint64_t
    ns(Clock::time_point t) const
    {
        return static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t - epoch_)
                .count());
    }

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    uint64_t nextId_ = 0;
    uint64_t current_ = 0;
    std::vector<Span> spans_;
};

/** Counters and phase times accumulated over one repetition. */
struct LayerTotals
{
    double stimulusSec = 0, neuronSec = 0, synapseSec = 0,
           routeSec = 0, probeSec = 0, modelNeuronSec = 0;
    uint64_t neuronSteps = 0, synapseEvents = 0,
             bucketsVisited = 0, shardsSkipped = 0, denseClears = 0,
             sparseClears = 0, cellsCleared = 0, rowCacheHits = 0,
             rowCacheMisses = 0;

    /** Add the change of a session's stats between two reads. */
    void
    add(const PhaseStats &a, const PhaseStats &b, size_t neurons)
    {
        stimulusSec += b.stimulusSec - a.stimulusSec;
        neuronSec += b.neuronSec - a.neuronSec;
        synapseSec += b.synapseSec - a.synapseSec;
        routeSec += b.synapseRouteSec - a.synapseRouteSec;
        probeSec += b.probeSec - a.probeSec;
        modelNeuronSec += b.modelNeuronSec - a.modelNeuronSec;
        neuronSteps += (b.steps - a.steps) * neurons;
        synapseEvents += b.synapseEvents - a.synapseEvents;
        bucketsVisited +=
            b.routerBucketsVisited - a.routerBucketsVisited;
        shardsSkipped += b.routerShardsSkipped - a.routerShardsSkipped;
        denseClears += b.ringDenseClears - a.ringDenseClears;
        sparseClears += b.ringSparseClears - a.ringSparseClears;
        cellsCleared += b.ringCellsCleared - a.ringCellsCleared;
        rowCacheHits += b.rowCacheHits - a.rowCacheHits;
        rowCacheMisses += b.rowCacheMisses - a.rowCacheMisses;
    }
};

/** Everything measured in one repetition of a workload. */
struct Rep
{
    bool traced = false;
    size_t threads = 1;
    double wallSec = 0, setupSec = 0, generateSec = 0, buildSec = 0,
           mainStepSec = 0, stepSec = 0, checkpointSaveSec = 0, restoreSec = 0,
           teardownSec = 0, checkSec = 0, coveredSec = 0;
    uint64_t mainSteps = 0, spikes = 0, hash = 0,
             checkpointBytes = 0, fallbackSteps = 0;
    uint64_t routingTableBytes = 0, connectivityBytes = 0;
    double bytesPerSynapse = 0;
    double meanRate = 0;
    LayerTotals layers;
    ThreadPool::TelemetrySnapshot pool;
    std::vector<double> stepUs;
    std::vector<std::string> failures;
};

uint64_t
spikeHash(const std::vector<SpikeEvent> &events)
{
    uint64_t h = 1469598103934665603ull; // FNV-1a 64
    auto mix = [&h](uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    for (const SpikeEvent &e : events) {
        mix(e.step);
        mix(e.neuron);
    }
    return h;
}

uint64_t
fallbackSteps()
{
    return telemetry::Registry::global()
        .counter("kernel_fallback_steps")
        .value();
}

/** The network of a workload, built by the spec-path builders. */
struct BuiltNet
{
    Network network;
    StimulusGenerator stimulus;
};

std::unique_ptr<BuiltNet>
generate(const Workload &w, uint64_t seed)
{
    if (w.net == NetKind::Microcircuit) {
        MicrocircuitOptions mc;
        mc.scale = 10.0;
        mc.seed = seed;
        mc.rateScale = w.rateScale;
        MicrocircuitInstance inst = buildMicrocircuitSpec(
            mc, w.connectivity != ConnectivityKind::Materialized);
        return std::make_unique<BuiltNet>(BuiltNet{
            std::move(inst.network), std::move(inst.stimulus)});
    }
    BenchmarkInstance inst = buildBenchmarkSpec(
        findBenchmark("Izhikevich"), 1.0, seed,
        w.connectivity != ConnectivityKind::Materialized);
    return std::make_unique<BuiltNet>(
        BuiltNet{std::move(inst.network), std::move(inst.stimulus)});
}

std::unique_ptr<Simulator>
buildSimulator(const Workload &w, size_t threads, const BuiltNet &net)
{
    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon;
    opts.threads = threads;
    opts.connectivity = w.connectivity;
    opts.recordSpikes = true;
    return std::make_unique<Simulator>(net.network, net.stimulus,
                                       opts);
}

void
checkHealth(const Simulator &sim, const char *which, Rep &rep)
{
    const health::HealthCounters &h = sim.healthCounters();
    if (h.nanEvents != 0) {
        rep.failures.push_back(std::string(which) + ": " +
                               std::to_string(h.nanEvents) +
                               " NaN/Inf health events");
    }
}

/** Run one repetition of a workload: build, step, check, tear down. */
Rep
runOnce(const Workload &w, uint64_t seed, size_t threads, SpanLog &log,
        bool traced)
{
    Rep rep;
    rep.traced = traced;
    rep.threads = threads;
    ThreadPool::global().resetTelemetry();
    const uint64_t fallback0 = fallbackSteps();
    const uint64_t mid =
        w.checkpointEvery == 0
            ? 0
            : ((w.steps - 1) / w.checkpointEvery) * w.checkpointEvery;
    std::string lastCheckpoint;

    SpanLog::Scope root(log, "workload");
    std::unique_ptr<BuiltNet> net;
    {
        SpanLog::Scope s(log, "nets.generate");
        net = generate(w, seed);
        rep.generateSec = s.end();
    }
    const size_t neurons = net->network.numNeurons();
    std::unique_ptr<Simulator> sim;
    {
        SpanLog::Scope s(log, "snn.build");
        sim = buildSimulator(w, threads, *net);
        rep.buildSec = s.end();
    }
    rep.setupSec = rep.generateSec + rep.buildSec;
    {
        const PhaseStats &st = sim->stats();
        rep.routingTableBytes = st.routingTableBytes;
        rep.connectivityBytes = st.connectivityBytes;
        rep.bytesPerSynapse = st.bytesPerSynapse;
    }

    // Main run: every stepOnce timed; stepping is split into
    // segments at the checkpoint cadence.
    const PhaseStats before = sim->stats();
    rep.stepUs.reserve(w.steps);
    while (sim->currentStep() < w.steps) {
        const uint64_t segmentEnd =
            w.checkpointEvery == 0
                ? w.steps
                : std::min<uint64_t>(
                      w.steps,
                      (sim->currentStep() / w.checkpointEvery + 1) *
                          w.checkpointEvery);
        {
            SpanLog::Scope s(log, "snn.session.run");
            while (sim->currentStep() < segmentEnd) {
                const Clock::time_point t0 = Clock::now();
                sim->stepOnce();
                const double sec = secondsSince(t0);
                rep.mainStepSec += sec;
                if (sim->currentStep() > w.warmupSteps)
                    rep.stepUs.push_back(sec * 1e6);
            }
            rep.stepSec += s.end();
        }
        if (w.checkpointEvery != 0 && segmentEnd < w.steps) {
            SpanLog::Scope s(log, "snn.session.checkpoint_save");
            std::ostringstream os;
            sim->saveCheckpoint(os);
            lastCheckpoint = std::move(os).str();
            rep.checkpointSaveSec += s.end();
            rep.checkpointBytes = lastCheckpoint.size();
        }
    }
    rep.mainSteps = sim->currentStep();
    rep.layers.add(before, sim->stats(), neurons);
    {
        SpanLog::Scope s(log, "bench.check");
        rep.hash = spikeHash(sim->spikeEvents());
        rep.spikes = sim->stats().spikes;
        rep.meanRate = sim->meanRate();
        checkHealth(*sim, "main run", rep);
        rep.checkSec += s.end();
    }
    {
        SpanLog::Scope s(log, "snn.session.teardown");
        sim.reset();
        rep.teardownSec += s.end();
    }

    if (!lastCheckpoint.empty()) {
        // Restart equivalence: the last mid-run snapshot, restored
        // into a fresh Simulator and replayed to the end, must fire
        // exactly the uninterrupted run's spikes.
        std::unique_ptr<Simulator> replay;
        {
            SpanLog::Scope s(log, "snn.build");
            replay = buildSimulator(w, threads, *net);
            rep.buildSec += s.end();
        }
        {
            SpanLog::Scope s(log, "snn.session.restore");
            std::istringstream is(lastCheckpoint);
            replay->loadCheckpoint(is);
            rep.restoreSec += s.end();
        }
        const PhaseStats restored = replay->stats();
        {
            SpanLog::Scope s(log, "snn.session.run");
            while (replay->currentStep() < w.steps)
                replay->stepOnce();
            rep.stepSec += s.end();
        }
        rep.layers.add(restored, replay->stats(), neurons);
        {
            SpanLog::Scope s(log, "bench.check");
            if (replay->restoredStep() != mid)
                rep.failures.push_back("restore: wrong step");
            if (spikeHash(replay->spikeEvents()) != rep.hash)
                rep.failures.push_back(
                    "restart equivalence: replay from step " +
                    std::to_string(mid) +
                    " differs from the uninterrupted run");
            checkHealth(*replay, "replay", rep);
            rep.checkSec += s.end();
        }
        SpanLog::Scope s(log, "snn.session.teardown");
        replay.reset();
        rep.teardownSec += s.end();
    }
    {
        SpanLog::Scope s(log, "snn.session.teardown");
        net.reset();
        rep.teardownSec += s.end();
    }
    rep.wallSec = root.end();
    rep.coveredSec = rep.generateSec + rep.buildSec + rep.stepSec +
                     rep.checkpointSaveSec + rep.restoreSec +
                     rep.teardownSec + rep.checkSec;
    rep.fallbackSteps = fallbackSteps() - fallback0;
    rep.pool = ThreadPool::global().telemetrySnapshot();

    if (rep.meanRate < w.rateLo || rep.meanRate > w.rateHi) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "mean rate %.6g spikes/neuron/step outside "
                      "[%.3g, %.3g]",
                      rep.meanRate, w.rateLo, w.rateHi);
        rep.failures.push_back(buf);
    }
    return rep;
}

/** Linear-interpolated quantile of unsorted samples (q in [0,1]). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <class F>
double
medianOf(const std::vector<const Rep *> &reps, F field)
{
    std::vector<double> v;
    v.reserve(reps.size());
    for (const Rep *r : reps)
        v.push_back(static_cast<double>(field(*r)));
    return quantile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                          colon + 1));
        }
    }
    return "unknown";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    /** Base of a ratio, printed beside it in the layer table. */
    std::string base;
};

/** {"name": {"value": v, "unit": u[, "base": b]}, ...} */
std::string
jsonMetrics(const std::vector<Metric> &metrics, bool withBase)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", m.value);
        out += (i ? ", " : "") + telemetry::jsonQuoted(m.name) +
               ": {\"value\": " + buf +
               ", \"unit\": " + telemetry::jsonQuoted(m.unit);
        if (withBase)
            out += ", \"base\": " + telemetry::jsonQuoted(m.base);
        out += "}";
    }
    return out + "}";
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: flexon_ledger --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       flexon_ledger --list\nworkloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        return false;
    out = v;
    return true;
}

void
writeTrace(const std::string &path, const SpanLog &log,
           const std::string &context, const std::string &layers)
{
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    auto event = [&](const SpanLog::Span &s, char ph, uint64_t ns) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%.3f",
                      static_cast<double>(ns) / 1e3);
        os << (first ? "\n" : ",\n") << "{\"name\": "
           << telemetry::jsonQuoted(s.name) << ", \"ph\": \"" << ph
           << "\", \"ts\": " << buf
           << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << "}}";
        first = false;
    };
    // Spans are logged at their end; emit B/E in time order so the
    // nesting replays correctly.
    struct Edge
    {
        uint64_t ns;
        int order;
        const SpanLog::Span *span;
    };
    std::vector<Edge> edges;
    for (const SpanLog::Span &s : log.spans()) {
        edges.push_back({s.startNs, 1, &s});
        edges.push_back({s.endNs, 0, &s});
    }
    std::stable_sort(edges.begin(), edges.end(),
                     [](const Edge &a, const Edge &b) {
                         if (a.ns != b.ns)
                             return a.ns < b.ns;
                         return a.order < b.order;
                     });
    for (const Edge &e : edges)
        event(*e.span, e.order ? 'B' : 'E', e.ns);
    os << "\n], \"otherData\": " << context
       << ", \"ledgerLayers\": " << layers << "}\n";
    if (!os)
        std::fprintf(stderr, "flexon_ledger: cannot write %s\n",
                     path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName, traceOut;
    uint64_t seed = 0, seconds = 0, trace = 0;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--list") {
            for (const Workload &w : kWorkloads)
                std::printf("%s\n", w.name);
            return 0;
        }
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (flag == "--workload")
            workloadName = v;
        else if (flag == "--seed")
            haveSeed = parseUnsigned(v, seed);
        else if (flag == "--seconds")
            haveSeconds = parseUnsigned(v, seconds);
        else if (flag == "--trace")
            haveTrace = parseUnsigned(v, trace) && trace <= 1;
        else if (flag == "--trace-out")
            traceOut = v;
        else
            usage();
    }
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (workloadName == w.name)
            wp = &w;
    if (wp == nullptr || !haveSeed || !haveSeconds || !haveTrace)
        usage();
    if (!kOptimizedBuild) {
        std::fprintf(stderr, "flexon_ledger: refusing to time an "
                             "unoptimized (Debug) build\n");
        return 2;
    }
    const Workload &w = *wp;
    const bool traced = trace == 1;

    // Built from strings: the CPU model has no length limit.
    char nums[256];
    std::snprintf(nums, sizeof nums,
                  "\"seed\": %llu, \"seconds\": %llu, \"traced\": %s, "
                  "\"nproc\": %ld, \"hardware_concurrency\": %u, "
                  "\"steps\": %llu, \"warmup_steps\": %llu, "
                  "\"threads\": %zu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(seconds),
                  traced ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
                  std::thread::hardware_concurrency(),
                  static_cast<unsigned long long>(w.steps),
                  static_cast<unsigned long long>(w.warmupSteps),
                  w.threads);
    const std::string ctx =
        "{\"workload\": " + telemetry::jsonQuoted(w.name) + ", " + nums +
        ", \"cpu\": " + telemetry::jsonQuoted(cpuModel()) +
        ", \"compiler\": " + telemetry::jsonQuoted(LEDGER_COMPILER) +
        ", \"build_type\": " + telemetry::jsonQuoted(LEDGER_BUILD_TYPE) +
        "}";
    std::printf("context: %s\n", ctx.c_str());

    // Repeat the whole workload until the budget is spent. The
    // traced run rotates untraced, traced and (where the workload has
    // them) traced alternate-thread repetitions, so the tracing
    // overhead is measured within one process.
    struct Kind
    {
        bool traced;
        size_t threads;
    };
    std::vector<Kind> rotation = {{false, w.threads}};
    if (traced) {
        rotation.push_back({true, w.threads});
        if (w.altThreads != 0)
            rotation.push_back({true, w.altThreads});
    }
    SpanLog log(traced);
    SpanLog quiet(false);
    std::vector<Rep> reps;
    const Clock::time_point start = Clock::now();
    size_t samples = 0;
    auto needMore = [&] {
        return reps.size() < kMinReps * rotation.size() ||
               (!traced && samples < kMinStepSamples) ||
               secondsSince(start) < static_cast<double>(seconds);
    };
    while (needMore()) {
        const Kind kind = rotation[reps.size() % rotation.size()];
        telemetry::TelemetryConfig tc;
        tc.detail = kind.traced;
        telemetry::configure(tc);
        try {
            reps.push_back(runOnce(w, seed, kind.threads,
                                   kind.traced ? log : quiet,
                                   kind.traced));
        } catch (const std::exception &e) {
            Rep failed;
            failed.traced = kind.traced;
            failed.threads = kind.threads;
            failed.failures.push_back(std::string("exception: ") +
                                      e.what());
            reps.push_back(std::move(failed));
        }
        if (!kind.traced)
            samples += reps.back().stepUs.size();
    }
    telemetry::configure({});

    // Repeat determinism and thread invariance: every repetition of
    // one seed, at any thread count, fires the same spikes.
    const uint64_t hash0 = reps.front().hash;
    for (Rep &r : reps) {
        if (r.failures.empty() && r.hash != hash0)
            r.failures.push_back(
                "spike hash differs from repetition 0 (" +
                std::to_string(r.threads) + " vs " +
                std::to_string(reps.front().threads) + " threads)");
    }

    size_t failed = 0;
    for (size_t i = 0; i < reps.size(); ++i) {
        std::printf("rep %zu%s t%zu: wall_s=%.6f setup_s=%.6f "
                    "rtf=%.4f\n",
                    i, reps[i].traced ? " (traced)" : "",
                    reps[i].threads, reps[i].wallSec,
                    reps[i].setupSec,
                    reps[i].mainStepSec /
                        (static_cast<double>(w.steps) * kStepSeconds));
        for (const std::string &f : reps[i].failures)
            std::printf("FAIL rep %zu: %s\n", i, f.c_str());
        failed += reps[i].failures.empty() ? 0 : 1;
    }

    // plain: untraced at the workload's threads (end-to-end metrics);
    // tracedReps: traced at the workload's threads (per-layer);
    // poolReps: traced with a multi-lane pool (thread-pool metrics).
    std::vector<const Rep *> plain, tracedReps, poolReps;
    std::vector<double> stepUs;
    for (const Rep &r : reps) {
        if (r.traced && r.threads > 1)
            poolReps.push_back(&r);
        if (r.threads != w.threads)
            continue;
        (r.traced ? tracedReps : plain).push_back(&r);
        if (!r.traced)
            stepUs.insert(stepUs.end(), r.stepUs.begin(),
                          r.stepUs.end());
    }
    std::printf("ledger: workload=%s seed=%llu steps=%llu spikes=%llu "
                "hash=%016llx reps=%zu failed=%zu step_samples=%zu "
                "fail_ratio=%.4f\n",
                w.name, static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(reps.front().mainSteps),
                static_cast<unsigned long long>(reps.front().spikes),
                static_cast<unsigned long long>(hash0), reps.size(),
                failed, stepUs.size(),
                static_cast<double>(failed) /
                    static_cast<double>(reps.size()));

    std::vector<Metric> metrics;
    if (!traced) {
        const double bio = static_cast<double>(w.steps) * kStepSeconds;
        metrics = {
            {"wall_s", medianOf(plain, [](const Rep &r) {
                 return r.wallSec;
             }), "s", ""},
            {"setup_s", medianOf(plain, [](const Rep &r) {
                 return r.setupSec;
             }), "s", ""},
            {"rtf", medianOf(plain, [bio](const Rep &r) {
                 return r.mainStepSec / bio;
             }), "s/s", "simulated seconds"},
            {"step_us_p50", quantile(stepUs, 0.50), "us", ""},
            {"step_us_p99", quantile(stepUs, 0.99), "us", ""},
            {"peak_rss_mb", peakRssMb(), "MiB", ""},
        };
    } else {
        auto med = [&](auto field) { return medianOf(tracedReps, field); };
        auto L = [](const Rep &r) -> const LayerTotals & {
            return r.layers;
        };
        const double tracedWall = med([](const Rep &r) {
            return r.wallSec;
        });
        const double plainWall = medianOf(plain, [](const Rep &r) {
            return r.wallSec;
        });
        metrics = {
            {"nets.generate_s",
             med([](const Rep &r) { return r.generateSec; }), "s", ""},
            {"snn.build_s", med([](const Rep &r) { return r.buildSec; }),
             "s", ""},
            {"snn.routing.table_bytes",
             med([](const Rep &r) { return r.routingTableBytes; }),
             "bytes", ""},
            {"snn.connectivity.bytes",
             med([](const Rep &r) { return r.connectivityBytes; }),
             "bytes", ""},
            {"snn.connectivity.bytes_per_synapse",
             med([](const Rep &r) { return r.bytesPerSynapse; }),
             "bytes/synapse", "network synapses"},
            {"snn.stimulus_s",
             med([&](const Rep &r) { return L(r).stimulusSec; }), "s",
             ""},
            {"snn.stimulus.ns_per_neuron_step",
             med([&](const Rep &r) {
                 return 1e9 * ratio(L(r).stimulusSec, L(r).neuronSteps);
             }),
             "ns/neuron-step", "neuron steps"},
            {"flexon.neuron_s",
             med([&](const Rep &r) { return L(r).neuronSec; }), "s", ""},
            {"flexon.ns_per_neuron_update",
             med([&](const Rep &r) {
                 return 1e9 * ratio(L(r).neuronSec, L(r).neuronSteps);
             }),
             "ns/neuron-step", "neuron steps"},
            {"flexon.kernel_fallback_steps",
             med([](const Rep &r) { return r.fallbackSteps; }), "count",
             ""},
            {"snn.synapse_s",
             med([&](const Rep &r) { return L(r).synapseSec; }), "s",
             ""},
            {"snn.routing.deliver_s",
             med([&](const Rep &r) { return L(r).routeSec; }), "s", ""},
            {"snn.routing.synapse_events",
             med([&](const Rep &r) { return L(r).synapseEvents; }),
             "count", ""},
            {"snn.routing.ns_per_event",
             med([&](const Rep &r) {
                 return 1e9 * ratio(L(r).routeSec, L(r).synapseEvents);
             }),
             "ns/event", "synapse events"},
            {"snn.routing.buckets_visited",
             med([&](const Rep &r) { return L(r).bucketsVisited; }),
             "count", ""},
            {"snn.routing.shards_skipped",
             med([&](const Rep &r) { return L(r).shardsSkipped; }),
             "count", ""},
            {"snn.routing.ring_dense_clears",
             med([&](const Rep &r) { return L(r).denseClears; }),
             "count", ""},
            {"snn.routing.ring_sparse_clears",
             med([&](const Rep &r) { return L(r).sparseClears; }),
             "count", ""},
            {"snn.routing.ring_cells_cleared",
             med([&](const Rep &r) { return L(r).cellsCleared; }),
             "count", ""},
            {"snn.connectivity.row_cache_hits",
             med([&](const Rep &r) { return L(r).rowCacheHits; }),
             "count", ""},
            {"snn.connectivity.row_cache_misses",
             med([&](const Rep &r) { return L(r).rowCacheMisses; }),
             "count", ""},
            {"snn.connectivity.row_cache_hit_ratio",
             med([&](const Rep &r) {
                 return ratio(L(r).rowCacheHits,
                              L(r).rowCacheHits + L(r).rowCacheMisses);
             }),
             "ratio", "row lookups"},
            {"common.pool.parallel_efficiency",
             medianOf(poolReps, [](const Rep &r) {
                 return ratio(r.pool.busyNs, r.pool.laneNs);
             }),
             "ratio", "lane-seconds offered"},
            {"common.pool.dispatches",
             medianOf(poolReps,
                      [](const Rep &r) { return r.pool.dispatches; }),
             "count", ""},
            {"common.pool.lane_busy_s",
             medianOf(poolReps,
                      [](const Rep &r) { return r.pool.busyNs * 1e-9; }),
             "s", ""},
            {"snn.session.checkpoint_save_s",
             med([](const Rep &r) { return r.checkpointSaveSec; }), "s",
             ""},
            {"snn.session.checkpoint_bytes",
             med([](const Rep &r) { return r.checkpointBytes; }),
             "bytes", ""},
            {"snn.session.restore_s",
             med([](const Rep &r) { return r.restoreSec; }), "s", ""},
            {"snn.session.teardown_s",
             med([](const Rep &r) { return r.teardownSec; }), "s", ""},
            {"hwmodel.model_neuron_s",
             med([&](const Rep &r) { return L(r).modelNeuronSec; }), "s",
             ""},
            {"unattributed_s",
             med([](const Rep &r) { return r.wallSec - r.coveredSec; }),
             "s", "wall_s"},
            {"trace.overhead_s", tracedWall - plainWall, "s",
             "untraced wall_s"},
        };
    }

    for (const Metric &m : metrics) {
        std::printf("  %-40s %16.6g %-14s%s%s\n", m.name.c_str(),
                    m.value, m.unit, m.base.empty() ? "" : " per ",
                    m.base.c_str());
    }
    if (traced) {
        // Self time of each layer per repetition (medians over the
        // traced repetitions), as a share of the traced wall_s.
        auto med = [&](auto field) { return medianOf(tracedReps, field); };
        const double wall = med([](const Rep &r) { return r.wallSec; });
        const std::vector<Metric> self = {
            {"nets.generate",
             med([](const Rep &r) { return r.generateSec; }), "s", ""},
            {"snn.build", med([](const Rep &r) { return r.buildSec; }),
             "s", ""},
            {"snn.stimulus",
             med([](const Rep &r) { return r.layers.stimulusSec; }), "s",
             ""},
            {"flexon.neuron",
             med([](const Rep &r) { return r.layers.neuronSec; }), "s",
             ""},
            {"snn.synapse (excl. routing)", med([](const Rep &r) {
                 return r.layers.synapseSec - r.layers.routeSec;
             }),
             "s", ""},
            {"snn.routing.deliver",
             med([](const Rep &r) { return r.layers.routeSec; }), "s",
             ""},
            {"snn.session.step (loop, health)", med([](const Rep &r) {
                 return r.stepSec -
                        (r.layers.stimulusSec + r.layers.neuronSec +
                         r.layers.synapseSec + r.layers.probeSec);
             }),
             "s", ""},
            {"snn.session.checkpoint_save",
             med([](const Rep &r) { return r.checkpointSaveSec; }), "s",
             ""},
            {"snn.session.restore",
             med([](const Rep &r) { return r.restoreSec; }), "s", ""},
            {"snn.session.teardown",
             med([](const Rep &r) { return r.teardownSec; }), "s", ""},
            {"bench.check", med([](const Rep &r) { return r.checkSec; }),
             "s", ""},
            {"unattributed", med([](const Rep &r) {
                 return r.wallSec - r.coveredSec;
             }),
             "s", ""},
        };
        for (const Metric &m : self) {
            std::printf("  self %-40s %12.6f s %6.2f%% of wall_s "
                        "(%.6f s)\n",
                        m.name.c_str(), m.value,
                        100.0 * ratio(m.value, wall), wall);
        }
        if (!traceOut.empty()) {
            writeTrace(traceOut, log, ctx,
                       "{\"metrics\": " + jsonMetrics(metrics, true) +
                           ", \"self_time_s\": " +
                           jsonMetrics(self, false) +
                           ", \"wall_s\": " + telemetry::jsonNumber(wall) +
                           "}");
        }
    }

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", reps.size(), failed,
                jsonMetrics(metrics, false).c_str());
    return 0;
}
