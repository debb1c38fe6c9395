#include "snn/simulator.hh"

#include <utility>

#include "common/logging.hh"

namespace flexon {

namespace {

SessionOptions
toSessionOptions(const SimulatorOptions &options)
{
    SessionOptions session;
    session.stimulusSeed = options.stimulusSeed;
    session.threads = options.threads;
    session.recordSpikes = options.recordSpikes;
    session.probes = options.probes;
    session.health = options.health;
    session.metricsOut = options.metricsOut;
    session.metricsEvery = options.metricsEvery;
    session.label = options.label;
    return session;
}

} // namespace

Simulator::Simulator(const Network &network, StimulusGenerator stimulus,
                     const SimulatorOptions &options)
    : SimulationSession(network, std::move(stimulus),
                        toSessionOptions(options)),
      options_(options)
{
    backend_ = makeBackend(options_.backend, network, options_.mode,
                           options_.solver, options_.threads);
    router_ = std::make_unique<SpikeRouter>(
        network, options_.threads == 0 ? 1 : options_.threads,
        &metrics(), options_.connectivity);
    router_->setSparseDelivery(options_.sparseDelivery);
}

void
Simulator::engineInjectStimulus(uint64_t t,
                                std::span<const StimulusSpike> spikes)
{
    auto current = router_->slot(t);
    for (const StimulusSpike &s : spikes) {
        flexon_assert(s.target < network().numNeurons());
        flexon_assert(s.type < maxSynapseTypes);
        const uint32_t cell = s.target * maxSynapseTypes + s.type;
        current[cell] += s.weight;
        router_->noteStimulus(t, cell);
    }
}

void
Simulator::engineStepNeurons(uint64_t t, std::vector<uint8_t> &fired)
{
    backend_->step(router_->slot(t), fired);
}

void
Simulator::enginePrepareDelivery()
{
    router_->refreshWeights();
}

void
Simulator::engineDeliverSpikes(uint64_t t,
                               std::span<const uint32_t> fired)
{
    // Clear the consumed slot (activity-proportionally) and stream
    // the fired rows' delivery records into the t + delay slots —
    // bit-identical to the serial scan at any thread count (see
    // snn/routing.hh).
    router_->routeStep(t, fired);
}

void
Simulator::engineReset()
{
    backend_->reset();
    router_->reset();
}

double
Simulator::engineModelSecondsPerStep() const
{
    return backend_->modelSecondsPerStep();
}

void
Simulator::refreshEngineStats(PhaseStats &view) const
{
    view.synapseEvents = router_->events();
    view.routingTableBytes =
        router_->kind() == ConnectivityKind::Materialized
            ? router_->table().memoryBytes()
            : 0;
    view.connectivityBytes = router_->connectivityBytes() +
                             network().connectivityBytes();
    view.rowCacheHits = 0; // no provider keeps rows across steps
    view.rowCacheMisses = router_->rowCacheMisses();
    view.ringDenseClears = router_->denseClears();
    view.ringSparseClears = router_->sparseClears();
    view.ringCellsCleared = router_->cellsCleared();
    view.routerShardsSkipped = router_->shardsSkipped();
    view.routerBucketsVisited = router_->bucketsVisited();
}

void
Simulator::engineReportConfig(telemetry::ReportFields &config) const
{
    config.emplace_back(
        "backend",
        telemetry::jsonQuoted(backendName(options_.backend)));
    config.emplace_back("connectivity",
                        telemetry::jsonQuoted(connectivityKindName(
                            options_.connectivity)));
}

void
Simulator::engineSaveState(std::ostream &os) const
{
    backend_->saveState(os);
    router_->saveState(os);
}

void
Simulator::engineLoadState(std::istream &is)
{
    backend_->loadState(is);
    router_->loadState(is);
}

void
Simulator::engineHealthScan(uint64_t begin, uint64_t end,
                            health::HealthScan &scan) const
{
    backend_->healthProbe(static_cast<size_t>(begin),
                          static_cast<size_t>(end), scan);
    // Ring watermark: pending writes against the ring's cell count.
    // Duplicate writes count twice, so the session clamps the
    // fraction at 1.
    scan.ringOccupancy = router_->pendingWrites();
    scan.ringCapacity = static_cast<uint64_t>(router_->ringDepth()) *
                        router_->slotSize();
}

bool
Simulator::engineExportTransfer(EngineTransfer &out) const
{
    if (!backend_->exportLlifState(out.v, out.refractory))
        return false;
    out.t = currentStep();
    out.synapseEvents = router_->events();
    router_->exportRing(out.t, out.ring);
    return true;
}

bool
Simulator::engineImportTransfer(const EngineTransfer &in)
{
    flexon_assert(in.t == currentStep());
    if (!backend_->importLlifState(in.v, in.refractory))
        return false;
    router_->importRing(in.t, in.ring);
    router_->seedEvents(in.synapseEvents);
    return true;
}

} // namespace flexon
