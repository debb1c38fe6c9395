/**
 * @file
 * The ConnectivityProvider contract: materialized, compressed, and
 * procedural synapse storage are three encodings of the same wiring,
 * so a simulation must produce bit-identical spike trains under any
 * of them, at any thread count — compression and regeneration only
 * change where the delivery records come from, never their values or
 * their per-cell accumulation order. Also covered: the memory side
 * of the bargain (compressed tables measurably smaller, procedural
 * smaller still), the STDP weight-delta overlay, and checkpoint
 * round-trips including the procedural `weights 2` form and
 * backward-compatible v2 snapshots.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "snn/auto_engine.hh"
#include "snn/connectivity.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace flexon {
namespace {

struct RunResult
{
    std::vector<uint64_t> spikeCounts;
    std::vector<SpikeEvent> events;
    uint64_t spikes = 0;
    uint64_t synapseEvents = 0;
    uint64_t connectivityBytes = 0;
};

BenchmarkInstance
vogelsAbbott(bool procedural)
{
    return buildBenchmarkSpec(findBenchmark("Vogels-Abbott"), 0.1, 7,
                              procedural);
}

MicrocircuitInstance
microcircuit(bool procedural)
{
    MicrocircuitOptions mc;
    mc.scale = 60.0;
    mc.seed = 3;
    mc.rateScale = 5.0; // push the tiny instance into activity
    return buildMicrocircuitSpec(mc, procedural);
}

RunResult
resultOf(const Simulator &sim)
{
    RunResult result;
    result.spikeCounts = sim.spikeCounts();
    result.events = sim.spikeEvents();
    result.spikes = sim.stats().spikes;
    result.synapseEvents = sim.stats().synapseEvents;
    result.connectivityBytes = sim.stats().connectivityBytes;
    return result;
}

RunResult
runWith(const Network &net, const StimulusGenerator &stim,
        ConnectivityKind kind, size_t threads, uint64_t steps)
{
    SimulatorOptions opts;
    opts.threads = threads;
    opts.recordSpikes = true;
    opts.connectivity = kind;
    Simulator sim(net, stim, opts);
    sim.run(steps);
    return resultOf(sim);
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.spikes, b.spikes);
    EXPECT_EQ(a.synapseEvents, b.synapseEvents);
    EXPECT_EQ(a.spikeCounts, b.spikeCounts);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].step, b.events[i].step) << "event " << i;
        EXPECT_EQ(a.events[i].neuron, b.events[i].neuron)
            << "event " << i;
    }
}

TEST(ConnectivityGeometry, PartitionsTargetsAndRoundTripsDelays)
{
    BenchmarkInstance inst = vogelsAbbott(false);
    const ConnectivityGeometry geo =
        buildConnectivityGeometry(inst.network, 4);
    ASSERT_GE(geo.shardCount, 1u);
    // Shard boundaries are a monotone partition of the target space.
    EXPECT_EQ(geo.shardTargetBegin.front(), 0u);
    EXPECT_EQ(geo.shardTargetBegin.back(),
              inst.network.numNeurons());
    for (size_t s = 0; s + 1 < geo.shardTargetBegin.size(); ++s)
        EXPECT_LE(geo.shardTargetBegin[s], geo.shardTargetBegin[s + 1]);
    // bucketOf and bucketDelay are inverse over the realized delays.
    for (size_t b = 0; b < geo.bucketDelay.size(); ++b)
        EXPECT_EQ(geo.bucketOf[geo.bucketDelay[b]],
                  static_cast<int>(b));
}

/** The procedural rows of `proc` streamed through addSynapse(). */
Network
streamedCopy(const Network &proc)
{
    Network net;
    for (size_t p = 0; p < proc.numPopulations(); ++p) {
        const Population &pop = proc.population(p);
        net.addPopulation(pop.name, pop.params, pop.count);
    }
    std::vector<Synapse> scratch;
    for (uint32_t n = 0; n < proc.numNeurons(); ++n) {
        for (const Synapse &syn : proc.rowFor(n, scratch))
            net.addSynapse(n, syn);
    }
    net.finalize();
    return net;
}

/** Every row, row start and geometry cache of `a` equals `b`'s. */
void
expectSameRealization(const Network &a, const Network &b)
{
    ASSERT_EQ(a.numNeurons(), b.numNeurons());
    ASSERT_EQ(a.numSynapses(), b.numSynapses());
    EXPECT_EQ(a.incomingCounts(), b.incomingCounts());
    EXPECT_EQ(a.delaysUsed(), b.delaysUsed());
    EXPECT_EQ(a.maxDelay(), b.maxDelay());
    std::vector<Synapse> sa, sb;
    for (uint32_t n = 0; n < a.numNeurons(); ++n) {
        ASSERT_EQ(a.rowStart(n), b.rowStart(n)) << "row " << n;
        const auto ra = a.rowFor(n, sa);
        const auto rb = b.rowFor(n, sb);
        ASSERT_EQ(ra.size(), rb.size()) << "row " << n;
        for (size_t i = 0; i < ra.size(); ++i) {
            ASSERT_EQ(ra[i].target, rb[i].target) << "row " << n;
            ASSERT_EQ(ra[i].weight, rb[i].weight) << "row " << n;
            ASSERT_EQ(ra[i].delay, rb[i].delay) << "row " << n;
            ASSERT_EQ(ra[i].type, rb[i].type) << "row " << n;
        }
    }
}

/** FNV-1a over the row starts and every (target, weight bits,
 *  delay, type) of a materialized CSR. */
uint64_t
csrHash(const Network &net)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (uint32_t n = 0; n < net.numNeurons(); ++n) {
        mix(net.rowStart(n), 8);
        for (const Synapse &syn : net.outgoing(n)) {
            uint32_t bits;
            std::memcpy(&bits, &syn.weight, sizeof bits);
            mix(syn.target, 4);
            mix(bits, 4);
            mix(syn.delay, 1);
            mix(syn.type, 1);
        }
    }
    mix(net.numSynapses(), 8);
    return h;
}

/**
 * A small spec that reaches every generator branch: a p = 1
 * Bernoulli projection (with an autapse to skip), a p < 1 one and a
 * fixed fanout. A p = 1 row's length and targets take no draws, so
 * its few synapses get delays from a wide range of their own: a
 * geometry pass that skips the weight draws wrongly shows up in
 * delaysUsed() and maxDelay().
 */
Network
allBranches(bool procedural)
{
    const NeuronParams params =
        vogelsAbbott(false).network.population(0).params;
    Network net;
    net.addPopulation("a", params, 37);
    net.addPopulation("b", params, 23);
    ConnectivitySpec spec;
    spec.seed = 11;
    const auto project = [&](Projection::Rule rule, uint32_t srcBase,
                             uint32_t srcCount, uint32_t dstBase,
                             uint32_t dstCount, double probability,
                             uint32_t fanout, double weight,
                             uint8_t delayMin, uint8_t delayMax) {
        Projection p;
        p.rule = rule;
        p.srcBase = srcBase;
        p.srcCount = srcCount;
        p.dstBase = dstBase;
        p.dstCount = dstCount;
        p.probability = probability;
        p.fanout = fanout;
        p.weightMean = weight;
        p.delayMin = delayMin;
        p.delayMax = delayMax;
        p.type = weight < 0.0 ? 1 : 0;
        spec.projections.push_back(p);
    };
    project(Projection::Rule::Bernoulli, 0, 3, 0, 5, 1.0, 0, 0.2, 10,
            250);
    project(Projection::Rule::Bernoulli, 37, 23, 0, 60, 0.3, 0, -0.5,
            1, 6);
    project(Projection::Rule::FixedFanout, 0, 60, 37, 23, 0.0, 9, 0.1,
            1, 6);
    net.buildFromSpec(spec, procedural);
    return net;
}

TEST(ConnectivitySpec, SpecBuildsMatchAcrossStorageModes)
{
    // Fixed fanout (microcircuit) and Bernoulli (Vogels-Abbott): the
    // materialized build, the procedural geometry and the procedural
    // rows streamed through addSynapse + finalize() are one CSR.
    MicrocircuitInstance mcMat = microcircuit(false);
    MicrocircuitInstance mcProc = microcircuit(true);
    EXPECT_FALSE(mcMat.network.procedural());
    EXPECT_TRUE(mcProc.network.procedural());
    expectSameRealization(mcMat.network, mcProc.network);
    expectSameRealization(mcMat.network, streamedCopy(mcProc.network));

    BenchmarkInstance vaMat = vogelsAbbott(false);
    BenchmarkInstance vaProc = vogelsAbbott(true);
    expectSameRealization(vaMat.network, vaProc.network);
    expectSameRealization(vaMat.network, streamedCopy(vaProc.network));

    // Every generator branch, p = 1 Bernoulli included.
    const Network allMat = allBranches(false);
    const Network allProc = allBranches(true);
    expectSameRealization(allMat, allProc);
    expectSameRealization(allMat, streamedCopy(allProc));

    // Golden: any change to the generator's draw sequence or to the
    // realization shows up here.
    EXPECT_EQ(csrHash(mcMat.network), 0x524b52d513e90453ULL);
}

class ProviderEquivalence
    : public ::testing::TestWithParam<ConnectivityKind>
{
};

TEST_P(ProviderEquivalence, VogelsAbbottBitIdenticalAtAnyThreadCount)
{
    const ConnectivityKind kind = GetParam();
    BenchmarkInstance mat = vogelsAbbott(false);
    const RunResult baseline = runWith(
        mat.network, mat.stimulus, ConnectivityKind::Materialized, 1,
        500);
    ASSERT_GT(baseline.spikes, 0u) << "network stayed silent";

    BenchmarkInstance other =
        vogelsAbbott(kind != ConnectivityKind::Materialized);
    for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
        expectIdentical(baseline, runWith(other.network,
                                          other.stimulus, kind,
                                          threads, 500));
    }
}

TEST_P(ProviderEquivalence, MicrocircuitBitIdenticalAtAnyThreadCount)
{
    const ConnectivityKind kind = GetParam();
    MicrocircuitInstance mat = microcircuit(false);
    const RunResult baseline = runWith(
        mat.network, mat.stimulus, ConnectivityKind::Materialized, 1,
        300);
    ASSERT_GT(baseline.spikes, 0u) << "network stayed silent";

    MicrocircuitInstance other =
        microcircuit(kind != ConnectivityKind::Materialized);
    for (const size_t threads : {size_t{1}, size_t{3}, size_t{4}}) {
        expectIdentical(baseline, runWith(other.network,
                                          other.stimulus, kind,
                                          threads, 300));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProviders, ProviderEquivalence,
    ::testing::Values(ConnectivityKind::Materialized,
                      ConnectivityKind::Compressed,
                      ConnectivityKind::Procedural),
    [](const ::testing::TestParamInfo<ConnectivityKind> &info) {
        return std::string(connectivityKindName(info.param));
    });

TEST(ConnectivityMemory, CompressedAtLeastFourTimesSmaller)
{
    BenchmarkInstance mat =
        buildBenchmarkSpec(findBenchmark("Vogels-Abbott"), 0.2, 7,
                           false);
    BenchmarkInstance comp =
        buildBenchmarkSpec(findBenchmark("Vogels-Abbott"), 0.2, 7,
                           true);
    const RunResult m = runWith(mat.network, mat.stimulus,
                                ConnectivityKind::Materialized, 2,
                                50);
    const RunResult c = runWith(comp.network, comp.stimulus,
                                ConnectivityKind::Compressed, 2, 50);
    ASSERT_GT(c.connectivityBytes, 0u);
    EXPECT_GE(m.connectivityBytes, 4 * c.connectivityBytes)
        << "materialized " << m.connectivityBytes
        << " bytes vs compressed " << c.connectivityBytes;
    const RunResult p = runWith(comp.network, comp.stimulus,
                                ConnectivityKind::Procedural, 2, 50);
    EXPECT_LT(p.connectivityBytes, c.connectivityBytes)
        << "procedural tables must undercut compressed ones";
}

/** Drive the same STDP schedule under two storage modes. */
double
runStdp(Network &net, const StimulusGenerator &stim,
        ConnectivityKind kind, std::vector<SpikeEvent> &events)
{
    SimulatorOptions opts;
    opts.threads = 3;
    opts.recordSpikes = true;
    opts.connectivity = kind;
    Simulator sim(net, stim, opts);
    StdpConfig config;
    config.aPlus = 0.01;
    config.aMinus = 0.012;
    config.wMin = 0.0f;
    config.wMax = 0.5f;
    StdpEngine engine(net, config);
    for (int step = 0; step < 400; ++step) {
        sim.run(1);
        engine.onStep(sim.lastFired());
    }
    events = sim.spikeEvents();
    return engine.meanPlasticWeight();
}

TEST(ConnectivityStdp, OverlayMatchesMaterializedWeights)
{
    BenchmarkInstance mat = vogelsAbbott(false);
    BenchmarkInstance proc = vogelsAbbott(true);
    std::vector<SpikeEvent> matEvents, procEvents;
    const double matMean = runStdp(mat.network, mat.stimulus,
                                   ConnectivityKind::Materialized,
                                   matEvents);
    const double procMean = runStdp(proc.network, proc.stimulus,
                                    ConnectivityKind::Procedural,
                                    procEvents);

    // The learning loop (reads through the overlay, writes through
    // the logging mutator, delivery through regenerated rows) must
    // track the in-place materialized weights bit for bit.
    EXPECT_EQ(matMean, procMean);
    ASSERT_GT(proc.network.overlaySize(), 0u)
        << "STDP never touched the procedural overlay";
    ASSERT_EQ(matEvents.size(), procEvents.size());
    for (size_t i = 0; i < matEvents.size(); ++i) {
        EXPECT_EQ(matEvents[i].step, procEvents[i].step);
        EXPECT_EQ(matEvents[i].neuron, procEvents[i].neuron);
    }
    std::vector<Synapse> scratch;
    for (uint32_t n = 0; n < mat.network.numNeurons(); n += 17) {
        const auto a = mat.network.outgoing(n);
        const auto b = proc.network.rowFor(n, scratch);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i)
            EXPECT_EQ(a[i].weight, b[i].weight)
                << "row " << n << " entry " << i;
    }
}

TEST(ConnectivityCheckpoint, ProceduralRoundTripIsBitExact)
{
    const uint64_t total = 600, split = 300;
    SimulatorOptions opts;
    opts.threads = 3;
    opts.recordSpikes = true;
    opts.connectivity = ConnectivityKind::Procedural;

    // Uninterrupted baseline, with a weight nudge so the snapshot
    // carries a non-empty `weights 2` overlay block.
    BenchmarkInstance a = vogelsAbbott(true);
    Simulator full(a.network, a.stimulus, opts);
    a.network.setSynapseWeight(5, 0.123f);
    a.network.setSynapseWeight(999, 0.0625f);
    full.run(total);

    const std::string path =
        ::testing::TempDir() + "procedural.fxc";
    BenchmarkInstance b = vogelsAbbott(true);
    {
        Simulator first(b.network, b.stimulus, opts);
        b.network.setSynapseWeight(5, 0.123f);
        b.network.setSynapseWeight(999, 0.0625f);
        first.run(split);
        ASSERT_TRUE(first.saveCheckpointFile(path));
    }

    // Restore into a freshly generated network from the same spec:
    // only the seed and the overlay travel in the file.
    BenchmarkInstance c = vogelsAbbott(true);
    Simulator second(c.network, c.stimulus, opts);
    second.loadCheckpointFile(path, &c.network);
    EXPECT_EQ(second.restoredStep(), split);
    second.run(total - split);

    EXPECT_EQ(full.stats().spikes, second.stats().spikes);
    EXPECT_EQ(full.stats().synapseEvents,
              second.stats().synapseEvents);
    EXPECT_EQ(full.spikeCounts(), second.spikeCounts());
    float w = 0.0f;
    ASSERT_TRUE(c.network.overlayWeight(5, w));
    EXPECT_EQ(w, 0.123f);
}

TEST(ConnectivityCheckpoint, LegacyUndoKeysRestoreIntoDecodingProvider)
{
    // The materialized bucket scan (sparse delivery off) leaves
    // (bucket << 32 | source) undo keys in the snapshot. A
    // procedural session undoes them by decoding the row again — the
    // only row re-decode left in the ring clear.
    const uint64_t total = 500, split = 250;
    for (const size_t threads : {size_t{1}, size_t{3}}) {
        SimulatorOptions opts;
        opts.threads = threads;
        opts.recordSpikes = true;

        BenchmarkInstance a = vogelsAbbott(false);
        Simulator full(a.network, a.stimulus, opts);
        full.run(total);

        SimulatorOptions scanOpts = opts;
        scanOpts.sparseDelivery = false;
        BenchmarkInstance b = vogelsAbbott(false);
        std::stringstream snapshot;
        {
            Simulator first(b.network, b.stimulus, scanOpts);
            first.run(split);
            first.saveCheckpoint(snapshot);
        }
        // The routed touch lists come first in the router block; at
        // least one must hold a legacy key (bit 63 clear).
        bool legacyKey = false;
        {
            std::istringstream text(snapshot.str());
            std::string line;
            while (std::getline(text, line) && !legacyKey) {
                if (line.rfind("touch ", 0) != 0)
                    continue;
                std::istringstream fields(line.substr(6));
                uint64_t cost = 0, key = 0;
                size_t count = 0;
                fields >> cost >> count;
                for (size_t k = 0; k < count && fields >> key; ++k)
                    legacyKey = legacyKey || (key >> 63) == 0;
            }
        }
        ASSERT_TRUE(legacyKey) << "threads " << threads;

        SimulatorOptions procOpts = opts;
        procOpts.connectivity = ConnectivityKind::Procedural;
        BenchmarkInstance c = vogelsAbbott(true);
        Simulator second(c.network, c.stimulus, procOpts);
        second.loadCheckpoint(snapshot, &c.network);
        EXPECT_EQ(second.restoredStep(), split);
        second.run(total - split);

        SCOPED_TRACE(threads);
        expectIdentical(resultOf(full), resultOf(second));
    }
}

TEST(ConnectivityCheckpoint, ReadsVersion2Snapshots)
{
    const uint64_t total = 400, split = 200;
    SimulatorOptions opts;
    opts.threads = 2;
    opts.recordSpikes = true;

    BenchmarkInstance a = vogelsAbbott(false);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    const std::string path = ::testing::TempDir() + "compat.fxc";
    BenchmarkInstance b = vogelsAbbott(false);
    {
        Simulator first(b.network, b.stimulus, opts);
        first.run(split);
        ASSERT_TRUE(first.saveCheckpointFile(path));
    }

    // A fixed-weight materialized snapshot is byte-compatible with
    // the v2 format; rewrite the header to what an older build would
    // have written and make sure this build still restores it.
    std::string text;
    {
        std::ifstream is(path);
        std::stringstream ss;
        ss << is.rdbuf();
        text = ss.str();
    }
    const size_t at = text.find("flexon-checkpoint v4");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 20, "flexon-checkpoint v2");
    // v2 files predate the plasticity block; drop it too.
    const size_t pl = text.find("\nplasticity 0\n");
    ASSERT_NE(pl, std::string::npos);
    text.erase(pl, 14);
    {
        std::ofstream os(path);
        os << text;
    }

    Simulator second(b.network, b.stimulus, opts);
    second.loadCheckpointFile(path, &b.network);
    EXPECT_EQ(second.restoredStep(), split);
    second.run(total - split);
    EXPECT_EQ(full.stats().spikes, second.stats().spikes);
    EXPECT_EQ(full.spikeCounts(), second.spikeCounts());
}

TEST(ConnectivityGuards, MisconfigurationsDieWithClearMessages)
{
    // Earlier tests leave worker threads alive; the default fork()
    // death-test style can deadlock in that state. "threadsafe"
    // re-executes the binary for the death assertion instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BenchmarkInstance proc = vogelsAbbott(true);
    SimulatorOptions opts;
    // A procedural network cannot back a materialized router.
    EXPECT_DEATH(Simulator(proc.network, proc.stimulus, opts),
                 "procedural");
    // The event engine has no non-materialized delivery path.
    BenchmarkInstance mat = vogelsAbbott(false);
    SimulatorOptions compOpts;
    compOpts.connectivity = ConnectivityKind::Compressed;
    AutoEngineOptions eventOpts;
    eventOpts.engine = EngineKind::Event;
    EXPECT_DEATH(AutoSession(mat.network, mat.stimulus, compOpts,
                             eventOpts),
                 "materialized");
}

} // namespace
} // namespace flexon
