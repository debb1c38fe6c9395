/**
 * @file
 * Tests for the SimulationSession checkpoint/restore layer: a run of
 * N steps must be bit-identical — spike counts, spike events, probe
 * traces, final membrane state, counters — to running k steps,
 * saving a checkpoint, restoring it into a freshly constructed
 * session, and running the remaining N - k steps. Exercised for
 * every dense backend at several thread counts, for the
 * event-driven engine, with STDP mutating weights mid-run, and for
 * restore-onto-a-used-session semantics.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "features/model_table.hh"
#include "nets/table1.hh"
#include "snn/auto_engine.hh"
#include "snn/event_driven.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace flexon {
namespace {

struct RunResult
{
    std::vector<uint64_t> spikeCounts;
    std::vector<SpikeEvent> events;
    std::vector<std::vector<double>> traces;
    std::vector<double> membranes;
    uint64_t steps = 0;
    uint64_t spikes = 0;
    uint64_t synapseEvents = 0;
};

RunResult
capture(const SimulationSession &sim, size_t numProbes)
{
    RunResult r;
    r.spikeCounts = sim.spikeCounts();
    r.events = sim.spikeEvents();
    for (size_t p = 0; p < numProbes; ++p)
        r.traces.push_back(sim.probeTrace(p));
    for (uint32_t n = 0; n < sim.network().numNeurons(); ++n)
        r.membranes.push_back(sim.membrane(n));
    const PhaseStats &st = sim.stats();
    r.steps = st.steps;
    r.spikes = st.spikes;
    r.synapseEvents = st.synapseEvents;
    return r;
}

void
expectIdentical(const RunResult &full, const RunResult &restored)
{
    EXPECT_EQ(full.steps, restored.steps);
    EXPECT_EQ(full.spikes, restored.spikes);
    EXPECT_EQ(full.synapseEvents, restored.synapseEvents);
    EXPECT_EQ(full.spikeCounts, restored.spikeCounts);

    ASSERT_EQ(full.events.size(), restored.events.size());
    for (size_t i = 0; i < full.events.size(); ++i) {
        EXPECT_EQ(full.events[i].step, restored.events[i].step);
        EXPECT_EQ(full.events[i].neuron, restored.events[i].neuron);
    }

    ASSERT_EQ(full.traces.size(), restored.traces.size());
    for (size_t p = 0; p < full.traces.size(); ++p) {
        ASSERT_EQ(full.traces[p].size(), restored.traces[p].size());
        for (size_t t = 0; t < full.traces[p].size(); ++t) {
            // Bit-identical, not just "close".
            EXPECT_EQ(full.traces[p][t], restored.traces[p][t])
                << "probe " << p << " step " << t;
        }
    }

    ASSERT_EQ(full.membranes.size(), restored.membranes.size());
    for (size_t n = 0; n < full.membranes.size(); ++n) {
        EXPECT_EQ(full.membranes[n], restored.membranes[n])
            << "neuron " << n;
    }
}

SimulatorOptions
denseOptions(BackendKind backend, size_t threads)
{
    SimulatorOptions opts;
    opts.backend = backend;
    opts.threads = threads;
    opts.recordSpikes = true;
    opts.probes = {0, 7, 42};
    return opts;
}

using DenseRestartParam = std::tuple<BackendKind, size_t>;

class DenseRestart
    : public ::testing::TestWithParam<DenseRestartParam>
{
};

TEST_P(DenseRestart, SplitRunMatchesFullRunBitForBit)
{
    const auto [backend, threads] = GetParam();
    const uint64_t total = 160, split = 70;
    const SimulatorOptions opts = denseOptions(backend, threads);

    BenchmarkInstance a =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    BenchmarkInstance b =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    std::stringstream snapshot;
    {
        Simulator first(b.network, b.stimulus, opts);
        first.run(split);
        first.saveCheckpoint(snapshot);
        EXPECT_EQ(first.checkpointSaves(), 1u);
    } // the first session object is gone: restore must be
      // self-contained

    Simulator second(b.network, b.stimulus, opts);
    second.loadCheckpoint(snapshot);
    EXPECT_TRUE(second.restored());
    EXPECT_EQ(second.restoredStep(), split);
    EXPECT_EQ(second.currentStep(), split);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size()),
                    capture(second, opts.probes.size()));
    EXPECT_GT(full.stats().spikes, 0u) << "network stayed silent";
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, DenseRestart,
    ::testing::Combine(
        ::testing::Values(BackendKind::Reference, BackendKind::Flexon,
                          BackendKind::Folded),
        ::testing::Values(size_t{1}, size_t{3}, size_t{4})),
    [](const ::testing::TestParamInfo<DenseRestartParam> &info) {
        const BackendKind backend = std::get<0>(info.param);
        const size_t threads = std::get<1>(info.param);
        std::string name;
        switch (backend) {
          case BackendKind::Reference: name = "Reference"; break;
          case BackendKind::Flexon: name = "Flexon"; break;
          case BackendKind::Folded: name = "Folded"; break;
          default: name = "Unknown"; break;
        }
        return name + "T" + std::to_string(threads);
    });

/** A recurrent LLIF network with background stimulus. */
struct LlifSetup
{
    Network net;
    StimulusGenerator stim{1};
};

LlifSetup
llifNetwork(size_t neurons, double rate, uint64_t seed,
            double connectProb = 0.05)
{
    LlifSetup s;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t pop = s.net.addPopulation("llif", p, neurons);
    Rng rng(seed);
    s.net.connectRandom(pop, pop, connectProb, 0.4, 1, 6, 0, rng);
    s.net.finalize();
    s.stim = StimulusGenerator(seed ^ 0xabcdULL);
    s.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), rate, 0.8f, 0));
    return s;
}

SessionOptions
evOptions()
{
    SessionOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};
    return opts;
}

TEST(EventDrivenRestart, SplitRunMatchesFullRunBitForBit)
{
    const uint64_t total = 1200, split = 500;
    const SessionOptions opts = evOptions();

    LlifSetup a = llifNetwork(80, 0.02, 7);
    EventDrivenSimulator full(a.net, a.stim, opts);
    full.run(total);

    LlifSetup b = llifNetwork(80, 0.02, 7);
    std::stringstream snapshot;
    {
        EventDrivenSimulator first(b.net, b.stim, opts);
        first.run(split);
        first.saveCheckpoint(snapshot);
    }

    EventDrivenSimulator second(b.net, b.stim, opts);
    second.loadCheckpoint(snapshot);
    EXPECT_EQ(second.restoredStep(), split);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size()),
                    capture(second, opts.probes.size()));
    EXPECT_GT(full.stats().spikes, 0u);
    // The event-driven statistics view must continue across the
    // restore too (updates are part of the checkpoint).
    EXPECT_EQ(second.stats().updates, full.stats().updates);
    EXPECT_EQ(second.stats().denseUpdates, full.stats().denseUpdates);
}

TEST(SessionCheckpoint, RestoreOntoUsedSessionEqualsFreshRestore)
{
    const uint64_t total = 150, split = 60;
    const SimulatorOptions opts =
        denseOptions(BackendKind::Flexon, 1);

    BenchmarkInstance a =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    BenchmarkInstance b =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    std::stringstream snapshot;
    Simulator first(b.network, b.stimulus, opts);
    first.run(split);
    first.saveCheckpoint(snapshot);

    // A session that has already simulated unrelated steps must be
    // indistinguishable from a fresh object after loadCheckpoint.
    Simulator second(b.network, b.stimulus, opts);
    second.run(37);
    second.loadCheckpoint(snapshot);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size()),
                    capture(second, opts.probes.size()));
}

TEST(SessionCheckpoint, StdpWeightsRehydrateAndLearningContinues)
{
    const uint64_t total = 400, split = 170;

    // Uninterrupted baseline: dense simulator + STDP, stepped
    // manually so the plasticity hook sees every step's fired flags.
    LlifSetup a = llifNetwork(60, 0.05, 21);
    SimulatorOptions opts;
    opts.probes = {0, 5};
    opts.recordSpikes = true;
    Simulator full(a.net, a.stim, opts);
    StdpEngine fullStdp(a.net, {});
    for (uint64_t t = 0; t < total; ++t) {
        full.stepOnce();
        fullStdp.onStep(full.lastFired());
    }

    // Split run over an identically built network.
    LlifSetup b = llifNetwork(60, 0.05, 21);
    std::stringstream snapshot;
    {
        Simulator first(b.net, b.stim, opts);
        StdpEngine firstStdp(b.net, {});
        for (uint64_t t = 0; t < split; ++t) {
            first.stepOnce();
            firstStdp.onStep(first.lastFired());
        }
        first.saveCheckpoint(snapshot);
        firstStdp.saveState(snapshot);
    }

    // Fresh objects. The network still holds the split-time weights
    // (they live in the Network), but loadCheckpoint rewrites them
    // from the snapshot anyway — the restore does not depend on the
    // shared Network's incidental state.
    Simulator second(b.net, b.stim, opts);
    StdpEngine secondStdp(b.net, {});
    second.loadCheckpoint(snapshot, &b.net);
    secondStdp.loadState(snapshot);
    for (uint64_t t = split; t < total; ++t) {
        second.stepOnce();
        secondStdp.onStep(second.lastFired());
    }

    expectIdentical(capture(full, opts.probes.size()),
                    capture(second, opts.probes.size()));

    // The learned weights themselves must match bit for bit.
    ASSERT_GT(fullStdp.plasticSynapses(), 0u);
    EXPECT_EQ(fullStdp.meanPlasticWeight(),
              secondStdp.meanPlasticWeight());
    for (uint64_t i = 0; i < a.net.numSynapses(); ++i) {
        EXPECT_EQ(std::as_const(a.net).synapseAt(i).weight,
                  std::as_const(b.net).synapseAt(i).weight)
            << "synapse " << i;
    }
}

TEST(SessionCheckpoint, StdpCheckpointNeedsTheMutableNetwork)
{
    LlifSetup s = llifNetwork(40, 0.05, 3);
    SimulatorOptions opts;
    Simulator sim(s.net, s.stim, opts);
    StdpEngine stdp(s.net, {});
    for (uint64_t t = 0; t < 50; ++t) {
        sim.stepOnce();
        stdp.onStep(sim.lastFired());
    }
    std::stringstream snapshot;
    sim.saveCheckpoint(snapshot);

    Simulator second(s.net, s.stim, opts);
    EXPECT_DEATH(second.loadCheckpoint(snapshot),
                 "mutated synapse weights");
}

TEST(SessionCheckpoint, RejectsEngineKindMismatch)
{
    LlifSetup a = llifNetwork(30, 0.02, 9);
    Simulator dense(a.net, a.stim, SimulatorOptions{});
    dense.run(20);
    std::stringstream snapshot;
    dense.saveCheckpoint(snapshot);

    LlifSetup b = llifNetwork(30, 0.02, 9);
    EventDrivenSimulator sparse(b.net, b.stim);
    EXPECT_DEATH(sparse.loadCheckpoint(snapshot),
                 "written by a 'dense' engine");
}

TEST(SessionCheckpoint, RejectsNeuronCountMismatch)
{
    LlifSetup a = llifNetwork(30, 0.02, 9);
    Simulator dense(a.net, a.stim, SimulatorOptions{});
    dense.run(10);
    std::stringstream snapshot;
    dense.saveCheckpoint(snapshot);

    LlifSetup b = llifNetwork(31, 0.02, 9);
    Simulator other(b.net, b.stim, SimulatorOptions{});
    EXPECT_DEATH(other.loadCheckpoint(snapshot), "neurons");
}

// ---- Rate-adaptive engine switch --------------------------------

/**
 * A densely wired network (K ~ 45) whose sustained rate clears the
 * 1 / (K + 1) x (1 + kSwitchHysteresis) switch point, so an adaptive
 * session (which starts event-driven on the silent fresh network)
 * must hand off to dense at an early decision boundary.
 */
LlifSetup
busyNetwork()
{
    return llifNetwork(90, 0.05, 13, 0.5);
}

AutoEngineOptions
forcedSwitchOptions()
{
    AutoEngineOptions a;
    a.engine = EngineKind::Auto;
    a.decisionWindow = 64;
    return a;
}

TEST(AutoEngine, SwitchingRunMatchesPinnedEnginesBitForBit)
{
    const uint64_t total = 640;
    SimulatorOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};

    LlifSetup a = busyNetwork();
    Simulator dense(a.net, a.stim, opts);
    dense.run(total);
    ASSERT_GT(dense.stats().spikes, 0u) << "network stayed silent";

    LlifSetup b = busyNetwork();
    AutoSession autoSim(b.net, b.stim, opts, forcedSwitchOptions());
    ASSERT_TRUE(autoSim.adaptive());
    autoSim.run(total);
    EXPECT_GE(autoSim.switches(), 1u)
        << "sustained rate never cleared the crossover (ewma "
        << autoSim.session().ewmaRate() << ", crossover "
        << autoSim.crossoverRate() << ")";
    EXPECT_FALSE(autoSim.eventActive());

    expectIdentical(capture(dense, opts.probes.size()),
                    capture(autoSim.session(), opts.probes.size()));
}

TEST(AutoEngine, CheckpointAcrossSwitchRestoresBitForBit)
{
    const uint64_t total = 640, split = 320;
    SimulatorOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};

    // Uninterrupted adaptive baseline.
    LlifSetup a = busyNetwork();
    AutoSession full(a.net, a.stim, opts, forcedSwitchOptions());
    full.run(total);
    ASSERT_GE(full.switches(), 1u);

    // Same run split at a point past the switch; the snapshot is
    // written by whichever engine is live at the split.
    const std::string path =
        ::testing::TempDir() + "auto-switch.fxc";
    LlifSetup b = busyNetwork();
    {
        AutoSession first(b.net, b.stim, opts,
                          forcedSwitchOptions());
        first.run(split);
        ASSERT_GE(first.switches(), 1u)
            << "split point landed before the switch";
        EXPECT_FALSE(first.eventActive());
        ASSERT_TRUE(first.saveCheckpointFile(path));
    } // restore below must be self-contained

    // A fresh adaptive session starts on the event engine; the
    // restore must rebuild the engine the checkpoint was written by
    // and then continue bit-exactly, including later decisions (the
    // EWMA estimator travels in the snapshot).
    AutoSession second(b.net, b.stim, opts, forcedSwitchOptions());
    EXPECT_TRUE(second.eventActive());
    second.loadCheckpointFile(path);
    EXPECT_FALSE(second.eventActive());
    EXPECT_EQ(second.session().restoredStep(), split);
    second.run(total - split);

    expectIdentical(capture(full.session(), opts.probes.size()),
                    capture(second.session(), opts.probes.size()));
}

TEST(AutoEngine, CrossoverIsInverseMeanFanOutPlusOne)
{
    LlifSetup s = busyNetwork();
    AutoSession sim(s.net, s.stim, SimulatorOptions{},
                    forcedSwitchOptions());
    ASSERT_TRUE(sim.adaptive());
    const double k = static_cast<double>(s.net.numSynapses()) /
                     static_cast<double>(s.net.numNeurons());
    EXPECT_EQ(sim.crossoverRate(), 1.0 / (k + 1.0));
    EXPECT_EQ(sim.session().planInfo().crossoverRate,
              sim.crossoverRate());

    // A pinned session has no crossover.
    LlifSetup t = busyNetwork();
    AutoEngineOptions pin;
    pin.engine = EngineKind::Event;
    AutoSession pinned(t.net, t.stim, SimulatorOptions{}, pin);
    EXPECT_EQ(pinned.crossoverRate(), 0.0);
    EXPECT_EQ(pinned.session().planInfo().strategy, "event");
    EXPECT_EQ(pinned.session().planInfo().crossoverRate, 0.0);
}

/**
 * Every engine kind, at several thread counts, produces the same
 * spike train as the dense engine — bit for bit. Engine choice only
 * ever changes *which* engine steps, never what it computes.
 */
TEST(PlanBitIdentity, PlannedStrategiesMatchPinnedEngines)
{
    const uint64_t total = 640;
    for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
        SimulatorOptions opts;
        opts.recordSpikes = true;
        opts.threads = threads;

        LlifSetup a = llifNetwork(90, 0.05, 13);
        Simulator dense(a.net, a.stim, opts);
        dense.run(total);
        ASSERT_GT(dense.stats().spikes, 0u) << "silent network";

        for (const EngineKind kind :
             {EngineKind::Dense, EngineKind::Event,
              EngineKind::Auto}) {
            LlifSetup b = llifNetwork(90, 0.05, 13);
            AutoEngineOptions autoOpts;
            autoOpts.engine = kind;
            AutoSession sim(b.net, b.stim, opts, autoOpts);
            sim.run(total);
            EXPECT_EQ(sim.session().spikeCounts(),
                      dense.spikeCounts())
                << "threads=" << threads << " engine="
                << engineKindName(kind);
            EXPECT_EQ(sim.session().stats().spikes,
                      dense.stats().spikes);
        }
    }
}

/** The engine selection flows into the session's plan info (what the
 *  run report's plan section is generated from). */
TEST(PlanBitIdentity, PlanInfoReachesTheSession)
{
    LlifSetup s = llifNetwork(60, 0.03, 5);
    AutoEngineOptions autoOpts;
    autoOpts.engine = EngineKind::Auto;
    AutoSession sim(s.net, s.stim, SimulatorOptions{}, autoOpts);
    const PlanInfo &info = sim.session().planInfo();
    EXPECT_TRUE(info.present);
    EXPECT_EQ(info.strategy, "auto");
    EXPECT_GT(info.crossoverRate, 0.0);
}

TEST(AutoEngine, PinnedKindsNeverSwitch)
{
    LlifSetup a = llifNetwork(50, 0.05, 5);
    AutoEngineOptions pin;
    pin.engine = EngineKind::Event;
    AutoSession ev(a.net, a.stim, SimulatorOptions{}, pin);
    EXPECT_FALSE(ev.adaptive());
    EXPECT_TRUE(ev.eventActive());
    ev.run(300);
    EXPECT_EQ(ev.switches(), 0u);

    LlifSetup b = llifNetwork(50, 0.05, 5);
    pin.engine = EngineKind::Dense;
    AutoSession dense(b.net, b.stim, SimulatorOptions{}, pin);
    EXPECT_FALSE(dense.adaptive());
    EXPECT_FALSE(dense.eventActive());
    dense.run(300);
    EXPECT_EQ(dense.switches(), 0u);

    // Identical spikes regardless of the pin.
    EXPECT_EQ(ev.session().spikeCounts(),
              dense.session().spikeCounts());
}

TEST(AutoEngine, PinnedEventRejectsNonReferenceBackend)
{
    // The event engine computes the reference arithmetic; a pinned
    // event run on another backend would silently swap it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon;
    AutoEngineOptions pin;
    pin.engine = EngineKind::Event;
    EXPECT_DEATH(AutoSession(s.net, s.stim, opts, pin),
                 "requires the reference backend");
}

TEST(AutoEngine, AutoFallsBackToDenseWhenIneligible)
{
    // A non-LLIF network cannot run event-driven; Auto must pin
    // dense instead of dying.
    Network net;
    net.addPopulation("lif", defaultParams(ModelKind::LIF), 40);
    net.finalize();
    StimulusGenerator stim(3);
    stim.addSource(StimulusSource::poisson(0, 40, 0.05, 0.8f, 0));

    AutoSession sim(net, stim, SimulatorOptions{},
                    AutoEngineOptions{});
    EXPECT_FALSE(sim.adaptive());
    EXPECT_FALSE(sim.eventActive());
    sim.run(100);
    EXPECT_EQ(sim.switches(), 0u);
    EXPECT_EQ(sim.session().currentStep(), 100u);
}

// ---- Throughput after a restore or hand-off ---------------------

/** The number following `"key": ` in a report document. */
double
reportNumber(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/** The number printed after `name` in printStats() output. */
double
statsNumber(const std::string &text, const std::string &name)
{
    const size_t at = text.find(name);
    EXPECT_NE(at, std::string::npos) << name;
    if (at == std::string::npos)
        return -1.0;
    return std::strtod(text.c_str() + text.find_first_of(
                                          "0123456789", at + name.size()),
                       nullptr);
}

/**
 * Check that the report and --stats divide by the steps (and the
 * synapse events) the timers cover, and return the report text.
 */
std::string
expectThroughputOverTimedSteps(const SimulationSession &sim,
                               uint64_t timedSteps,
                               const std::string &reportName)
{
    const PhaseStats &st = sim.stats();
    EXPECT_EQ(st.timedSteps, timedSteps);
    EXPECT_LE(st.timedSynapseEvents, st.synapseEvents);
    EXPECT_GT(st.totalSec(), 0.0);
    const double expected =
        static_cast<double>(timedSteps) / st.totalSec();
    const double expectedEvents =
        static_cast<double>(st.timedSynapseEvents) / st.totalSec();

    const std::string path = ::testing::TempDir() + reportName;
    EXPECT_TRUE(sim.writeRunReport(path));
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string json = buffer.str();
    EXPECT_EQ(reportNumber(json, "timed_steps"),
              static_cast<double>(timedSteps));
    EXPECT_NEAR(reportNumber(json, "steps_per_sec"), expected,
                1e-6 * expected);
    EXPECT_NEAR(reportNumber(json, "synapse_events_per_sec"),
                expectedEvents, 1e-6 * expectedEvents);

    std::ostringstream stats;
    sim.printStats(stats);
    EXPECT_NEAR(statsNumber(stats.str(), "sim.steps_per_sec"), expected,
                1e-6 * expected);
    EXPECT_NEAR(statsNumber(stats.str(), "sim.synapse_events_per_sec"),
                expectedEvents, 1e-6 * expectedEvents);
    return json;
}

TEST(SessionThroughput, RestoreDividesByStepsSinceRestore)
{
    LlifSetup a = llifNetwork(40, 0.02, 21);
    Simulator first(a.net, a.stim, SimulatorOptions{});
    first.run(300);
    std::stringstream snapshot;
    first.saveCheckpoint(snapshot);

    LlifSetup b = llifNetwork(40, 0.02, 21);
    Simulator second(b.net, b.stim, SimulatorOptions{});
    second.loadCheckpoint(snapshot);
    second.run(100);
    EXPECT_EQ(second.stats().steps, 400u);
    expectThroughputOverTimedSteps(second, 100, "restore-rate.json");
}

TEST(SessionThroughput, RestoreDividesSynapseEventsSinceRestore)
{
    LlifSetup a = busyNetwork();
    Simulator first(a.net, a.stim, SimulatorOptions{});
    first.run(300);
    const uint64_t before = first.stats().synapseEvents;
    ASSERT_GT(before, 0u);
    std::stringstream snapshot;
    first.saveCheckpoint(snapshot);

    LlifSetup b = busyNetwork();
    Simulator second(b.net, b.stim, SimulatorOptions{});
    second.loadCheckpoint(snapshot);
    second.run(100);
    const PhaseStats &st = second.stats();
    ASSERT_GT(st.synapseEvents, before) << "no deliveries after restore";
    EXPECT_EQ(st.timedSynapseEvents, st.synapseEvents - before);
    expectThroughputOverTimedSteps(second, 100, "restore-events.json");
}

TEST(SessionThroughput, HandOffDividesByStepsSinceSwitch)
{
    const uint64_t total = 640;
    LlifSetup s = busyNetwork();
    AutoSession sim(s.net, s.stim, SimulatorOptions{},
                    forcedSwitchOptions());
    sim.run(total);
    ASSERT_GE(sim.switches(), 1u);

    uint64_t lastSwitch = 0;
    for (const PlanDecision &d : sim.session().planDecisions())
        if (d.switched)
            lastSwitch = d.step;
    ASSERT_GT(lastSwitch, 0u);
    EXPECT_EQ(sim.session().stats().steps, total);
    const std::string json = expectThroughputOverTimedSteps(
        sim.session(), total - lastSwitch, "handoff-rate.json");
    const PhaseStats &st = sim.session().stats();
    const double perStep =
        st.totalSec() / static_cast<double>(total - lastSwitch);
    EXPECT_NEAR(reportNumber(json, "measured_step_sec"), perStep,
                1e-6 * perStep);
}

TEST(SessionCheckpoint, ReportCarriesCheckpointSection)
{
    LlifSetup s = llifNetwork(20, 0.02, 4);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    sim.setCheckpointCadence(25);
    sim.run(50);
    std::stringstream snapshot;
    sim.saveCheckpoint(snapshot);
    sim.saveCheckpoint(snapshot);

    const std::string path = ::testing::TempDir() + "report.json";
    ASSERT_TRUE(sim.writeRunReport(path));
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string json = buffer.str();
    EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
    EXPECT_NE(json.find("\"every\": 25"), std::string::npos);
    EXPECT_NE(json.find("\"saves\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"restored\": false"), std::string::npos);
}

} // namespace
} // namespace flexon
