#include "snn/session.hh"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/debug.hh"
#include "common/logging.hh"
#include "snn/plasticity.hh"
#include "snn/serialize.hh"

namespace flexon {

SimulationSession::SimulationSession(const Network &network,
                                     StimulusGenerator stimulus,
                                     const SessionOptions &options)
    : network_(network), stimulus_(std::move(stimulus)),
      stimulusInitial_(stimulus_), options_(options),
      stimulusTimer_(metrics_.timer(
          "phase.stimulus", "host seconds in stimulus generation")),
      neuronTimer_(metrics_.timer(
          "phase.neuron", "host seconds in neuron computation")),
      synapseTimer_(metrics_.timer(
          "phase.synapse", "host seconds in synapse calculation")),
      routeTimer_(metrics_.timer(
          "phase.synapse.route",
          "host seconds in the delivery engine (clear + route)")),
      probeTimer_(metrics_.timer(
          "phase.probe", "host seconds sampling membrane probes")),
      stepsCounter_(
          metrics_.counter("sim.steps", "time steps simulated")),
      spikesCounter_(
          metrics_.counter("sim.spikes", "output spikes fired")),
      modelNeuronSecGauge_(metrics_.gauge(
          "hw.model_neuron_sec",
          "modelled hardware neuron-phase seconds"))
{
    if (!network_.finalized())
        fatal("network must be finalized before simulation");
    spikeCounts_.assign(network_.numNeurons(), 0);
    for (uint32_t probe : options_.probes)
        flexon_assert(probe < network_.numNeurons());
    probeTraces_.resize(options_.probes.size());
    firedList_.reserve(network_.numNeurons());

    // Health monitoring: resolve the effective switch once (the
    // per-step gate is then a single bool) and defend against
    // degenerate cadences.
    if (options_.health.samplePeriod == 0)
        options_.health.samplePeriod = 1;
    if (options_.metricsEvery == 0)
        options_.metricsEvery = 1;
    healthActive_ =
        options_.health.enabled && !health::globallyDisabled();
    lastFixSaturations_ = health::fixSaturations();
    if (!options_.metricsOut.empty())
        exporter_ = std::make_unique<health::MetricsExporter>(
            options_.metricsOut, options_.label);
}

SimulationSession::~SimulationSession()
{
    // If this session's registry was registered for crash dumps,
    // unregister it — a dump taken later must not read freed memory.
    health::clearCrashDumpRegistry(&metrics_);
}

const std::vector<double> &
SimulationSession::probeTrace(size_t probe) const
{
    flexon_assert(probe < probeTraces_.size());
    return probeTraces_[probe];
}

void
SimulationSession::attachPlasticityRule(PlasticityRule *rule)
{
    flexon_assert(rule != nullptr);
    plasticityRules_.push_back(rule);
}

void
SimulationSession::phaseStimulus()
{
    telemetry::ScopedTimer scope(stimulusTimer_, "sim.stimulus");
    engineInjectStimulus(t_, stimulus_.generate(t_));
}

void
SimulationSession::phaseNeuron()
{
    {
        telemetry::ScopedTimer scope(neuronTimer_, "sim.neuron");
        engineStepNeurons(t_, fired_);
    }
    modelNeuronSecGauge_.add(engineModelSecondsPerStep());
}

void
SimulationSession::phaseSynapse()
{
    telemetry::ScopedTimer scope(synapseTimer_, "sim.synapse");

    // Re-mirror any plasticity weight updates into the engine's
    // delivery structures (one counter compare when nothing changed).
    enginePrepareDelivery();

    // Serial bookkeeping sweep: spike counters, optional event
    // recording, and the ascending fired list delivery iterates.
    firedList_.clear();
    const uint32_t numNeurons =
        static_cast<uint32_t>(network_.numNeurons());
    for (uint32_t n = 0; n < numNeurons; ++n) {
        if (!fired_[n])
            continue;
        firedList_.push_back(n);
        ++spikeCounts_[n];
        if (options_.recordSpikes)
            spikeEvents_.push_back({t_, n});
    }
    spikesCounter_.add(firedList_.size());

    // Rate estimator for the auto engine switch: pure function of
    // the spike history, so it stays deterministic and restorable.
    if (numNeurons > 0) {
        const double inst = static_cast<double>(firedList_.size()) /
                            static_cast<double>(numNeurons);
        ewmaRate_ += (inst - ewmaRate_) * kEwmaAlpha;
    }

    telemetry::ScopedTimer routeScope(routeTimer_,
                                      "sim.synapse.route");
    engineDeliverSpikes(t_, firedList_);
}

void
SimulationSession::stepOnce()
{
    telemetry::TraceScope step("sim.step");

    // Clear the previous step's fired flags before the engine runs:
    // only the neurons in firedList_ are set, so undoing those beats
    // an O(N) fill (sparse engines skip silent neurons entirely).
    if (fired_.size() != network_.numNeurons()) {
        fired_.assign(network_.numNeurons(), 0);
    } else {
        for (uint32_t n : firedList_)
            fired_[n] = 0;
    }

    phaseStimulus();
    phaseNeuron();
    phaseSynapse();
    // Plasticity observes the completed step: same ordering as the
    // external convention (run a step, then onStep(lastFired())), so
    // attached and hand-driven rules learn identically.
    for (PlasticityRule *rule : plasticityRules_)
        rule->onStep(fired_);
    FLEXON_DPRINTF(Simulator, "step %llu: %llu spikes so far",
                   static_cast<unsigned long long>(t_),
                   static_cast<unsigned long long>(
                       spikesCounter_.value()));
    ++t_;
    stepsCounter_.add(1);
    // Probes sample after the step counter advances so membrane()
    // implementations that reconstruct state from elapsed steps (the
    // event-driven engine) see t_ = completed steps, exactly as an
    // external caller between steps would.
    if (!options_.probes.empty()) {
        telemetry::ScopedTimer scope(probeTimer_);
        for (size_t i = 0; i < options_.probes.size(); ++i)
            probeTraces_[i].push_back(membrane(options_.probes[i]));
    }
    // Health layer: a sampled detector sweep, the watchdog
    // heartbeat, and the live exporter. All three gates are a bool
    // test / relaxed load on the default path.
    if (healthActive_ && t_ % options_.health.samplePeriod == 0)
        healthSweep();
    if (health::watchdogArmed())
        health::heartbeat(t_);
    if (exporter_ && t_ % options_.metricsEvery == 0)
        exporter_->exportNow(metrics_, t_, engineKind());
}

void
SimulationSession::healthApply(health::Policy policy,
                               const char *detector, uint64_t events,
                               const std::string &message)
{
    switch (policy) {
      case health::Policy::Off:
      case health::Policy::Report:
        break;
      case health::Policy::Warn:
        // Rate-limited: the first few firings in full, then every
        // 64th — a persistent fault must not flood stderr.
        if (events <= 5 || events % 64 == 0)
            logTagged(LogLevel::Warn, "health", "%s: %s", detector,
                      message.c_str());
        break;
      case health::Policy::Abort:
        logTagged(LogLevel::Warn, "health",
                  "%s: %s (policy abort, exit %d)", detector,
                  message.c_str(), health::kDetectorExitCode);
        health::heartbeat(t_);
        health::writeCrashDump(detector);
        std::exit(health::kDetectorExitCode);
    }
    if (telemetry::traceEnabled())
        telemetry::traceInstant("health.detector");
}

void
SimulationSession::healthSweep()
{
    const health::HealthOptions &ho = options_.health;
    ++healthCounters_.sweeps;

    // Engine state scan over a rotating window, so big populations
    // are covered incrementally at O(window) per sweep.
    health::HealthScan scan;
    const uint64_t numNeurons = network_.numNeurons();
    const bool wantScan = ho.nan != health::Policy::Off ||
                          ho.saturation != health::Policy::Off ||
                          ho.ring != health::Policy::Off;
    if (wantScan && numNeurons > 0) {
        uint64_t begin = 0;
        uint64_t end = numNeurons;
        if (ho.maxScanNeurons > 0 && numNeurons > ho.maxScanNeurons) {
            begin = healthCursor_;
            end = std::min(begin + ho.maxScanNeurons, numNeurons);
            healthCursor_ = end < numNeurons ? end : 0;
        }
        engineHealthScan(begin, end, scan);
        healthCounters_.neuronsChecked += scan.checked;
    }

    if (ho.nan != health::Policy::Off && scan.nonFinite > 0) {
        ++healthCounters_.nanEvents;
        std::ostringstream msg;
        msg << scan.nonFinite << " non-finite membrane value(s), "
            << "first at neuron " << scan.firstBad << ", step " << t_;
        healthApply(ho.nan, "nan", healthCounters_.nanEvents,
                    msg.str());
    }

    // Fix saturation: the kernels tally rails process-wide; the
    // sweep attributes the delta since the previous sweep, plus any
    // membranes the scan found pinned at a rail.
    const uint64_t satNow = health::fixSaturations();
    const uint64_t satDelta = satNow - lastFixSaturations_;
    lastFixSaturations_ = satNow;
    if (ho.saturation != health::Policy::Off &&
        (satDelta > 0 || scan.saturated > 0)) {
        healthCounters_.saturationHits += satDelta + scan.saturated;
        ++healthCounters_.saturationEvents;
        std::ostringstream msg;
        msg << satDelta << " fixed-point saturation(s)";
        if (scan.saturated > 0)
            msg << " + " << scan.saturated << " railed membrane(s)";
        msg << " since last sweep, step " << t_;
        healthApply(ho.saturation, "saturation",
                    healthCounters_.saturationEvents, msg.str());
    }

    // Rate anomalies engage after the warmup transient: the EWMA
    // needs history before "explosion" or "silence" means anything.
    if (ho.rate != health::Policy::Off && t_ >= ho.rateWarmupSteps) {
        if (ewmaRate_ > ho.rateExplosion) {
            ++healthCounters_.rateExplosions;
            std::ostringstream msg;
            msg << "EWMA firing rate " << ewmaRate_
                << " above explosion threshold " << ho.rateExplosion
                << ", step " << t_;
            healthApply(ho.rate, "rate-explosion",
                        healthCounters_.rateExplosions, msg.str());
        } else if (ewmaRate_ < ho.rateSilence) {
            ++healthCounters_.rateSilences;
            std::ostringstream msg;
            msg << "EWMA firing rate " << ewmaRate_
                << " below silence threshold " << ho.rateSilence
                << ", step " << t_;
            healthApply(ho.rate, "rate-silence",
                        healthCounters_.rateSilences, msg.str());
        }
    }

    // Ring watermark: only meaningful for bounded rings (capacity 0
    // = heap-backed, can't overflow). pendingWrites counts duplicate
    // cell writes separately, so clamp the fraction at 1.
    if (ho.ring != health::Policy::Off && scan.ringCapacity > 0) {
        const double fraction =
            std::min(1.0, static_cast<double>(scan.ringOccupancy) /
                              static_cast<double>(scan.ringCapacity));
        if (fraction > healthCounters_.ringPeakFraction)
            healthCounters_.ringPeakFraction = fraction;
        if (fraction >= ho.ringWatermark && scan.ringOccupancy > 0) {
            ++healthCounters_.ringHighWater;
            std::ostringstream msg;
            msg << "delay-ring occupancy " << scan.ringOccupancy
                << "/" << scan.ringCapacity << " ("
                << static_cast<int>(fraction * 100.0)
                << "%) at/above watermark, step " << t_;
            healthApply(ho.ring, "ring-watermark",
                        healthCounters_.ringHighWater, msg.str());
        }
    }
}

void
SimulationSession::recordPlanDecision(const PlanDecision &decision)
{
    ++planDecisionsTotal_;
    if (planDecisions_.size() < kPlanAuditCapacity)
        planDecisions_.push_back(decision);
    if (telemetry::traceEnabled())
        telemetry::traceInstant("plan.decision");
}

void
SimulationSession::run(uint64_t steps)
{
    if (steps == 0)
        return;
    // Reserve recording capacity up front so per-step push_backs do
    // not reallocate mid-run. Spike-event growth is estimated from
    // the observed rate (a modest prior on a fresh session) and
    // capped so absurd step counts cannot over-commit memory.
    if (options_.recordSpikes && network_.numNeurons() > 0) {
        constexpr uint64_t maxReserveAhead = uint64_t{1} << 22;
        const double rate =
            stepsCounter_.value() > 0 ? meanRate() : 0.02;
        const double expected =
            1.25 * rate * static_cast<double>(steps) *
            static_cast<double>(network_.numNeurons());
        const auto ahead = static_cast<uint64_t>(
            std::min(expected, 1e18));
        spikeEvents_.reserve(spikeEvents_.size() +
                             std::min(ahead, maxReserveAhead));
    }
    for (auto &trace : probeTraces_)
        trace.reserve(trace.size() + steps);

    for (uint64_t i = 0; i < steps; ++i)
        stepOnce();
}

double
SimulationSession::meanRate() const
{
    const uint64_t steps = stepsCounter_.value();
    if (steps == 0 || network_.numNeurons() == 0)
        return 0.0;
    return static_cast<double>(spikesCounter_.value()) /
           (static_cast<double>(steps) *
            static_cast<double>(network_.numNeurons()));
}

const PhaseStats &
SimulationSession::stats() const
{
    statsView_.stimulusSec = stimulusTimer_.seconds();
    statsView_.neuronSec = neuronTimer_.seconds();
    statsView_.synapseSec = synapseTimer_.seconds();
    statsView_.synapseRouteSec = routeTimer_.seconds();
    statsView_.probeSec = probeTimer_.seconds();
    statsView_.steps = stepsCounter_.value();
    statsView_.timedSteps = statsView_.steps - timedFromStep_;
    statsView_.spikes = spikesCounter_.value();
    statsView_.modelNeuronSec = modelNeuronSecGauge_.value();
    statsView_.threadsUsed =
        options_.threads == 0 ? 1 : options_.threads;
    refreshEngineStats(statsView_);
    statsView_.timedSynapseEvents =
        statsView_.synapseEvents - timedFromEvents_;
    // The route interval is strictly nested inside the synapse-phase
    // interval on the same steady clock.
    flexon_debug_assert(statsView_.synapseRouteSec <=
                        statsView_.synapseSec);
    const uint64_t synapses = network_.numSynapses();
    statsView_.bytesPerSynapse =
        synapses == 0
            ? 0.0
            : static_cast<double>(statsView_.connectivityBytes) /
                  static_cast<double>(synapses);
    return statsView_;
}

void
SimulationSession::printStats(std::ostream &os) const
{
    const PhaseStats &view = stats();
    auto line = [&os](const char *name, double value,
                      const char *desc) {
        os << std::left << std::setw(34) << name << ' '
           << std::setprecision(9) << value << "  # " << desc
           << '\n';
    };
    os << "---------- simulation statistics ----------\n";
    line("sim.steps", static_cast<double>(view.steps),
         "time steps simulated");
    line("sim.neurons", static_cast<double>(network_.numNeurons()),
         "neurons in the network");
    line("sim.synapses", static_cast<double>(network_.numSynapses()),
         "synapses in the network");
    line("sim.spikes", static_cast<double>(view.spikes),
         "output spikes fired");
    line("sim.rate", meanRate(), "spikes per neuron per step");
    line("sim.synapse_events",
         static_cast<double>(view.synapseEvents),
         "synaptic weight deliveries");
    line("phase.stimulus_sec", view.stimulusSec,
         "host seconds in stimulus generation");
    line("phase.neuron_sec", view.neuronSec,
         "host seconds in neuron computation");
    line("phase.synapse_sec", view.synapseSec,
         "host seconds in synapse calculation");
    line("phase.synapse_route_sec", view.synapseRouteSec,
         "host seconds in parallel spike routing");
    line("phase.probe_sec", view.probeSec,
         "host seconds sampling membrane probes");
    if (view.totalSec() > 0.0) {
        line("sim.steps_per_sec",
             static_cast<double>(view.timedSteps) / view.totalSec(),
             "simulated steps per host second");
        line("sim.synapse_events_per_sec",
             static_cast<double>(view.timedSynapseEvents) /
                 view.totalSec(),
             "synaptic deliveries per host second");
    }
    line("engine.threads", static_cast<double>(view.threadsUsed),
         "worker lanes per phase (1 = serial)");
    if (view.synapseSec > 0.0) {
        line("engine.route_share",
             view.synapseRouteSec / view.synapseSec,
             "delivery-engine fraction of the synapse phase");
    }
    line("engine.routing_table_bytes",
         static_cast<double>(view.routingTableBytes),
         "precompiled spike-routing table footprint");
    line("engine.connectivity_bytes",
         static_cast<double>(view.connectivityBytes),
         "total connectivity footprint (provider + network)");
    line("engine.bytes_per_synapse", view.bytesPerSynapse,
         "connectivity bytes per synapse");
    line("engine.row_cache_hits",
         static_cast<double>(view.rowCacheHits),
         "rows served without decoding (always 0)");
    line("engine.row_cache_misses",
         static_cast<double>(view.rowCacheMisses),
         "procedural rows decoded for delivery");
    line("engine.ring_dense_clears",
         static_cast<double>(view.ringDenseClears),
         "ring-slot clears via dense fill");
    line("engine.ring_sparse_clears",
         static_cast<double>(view.ringSparseClears),
         "ring-slot clears via tracked-write undo");
    line("engine.ring_cells_cleared",
         static_cast<double>(view.ringCellsCleared),
         "cells zeroed by sparse clears");
    line("engine.router_shards_skipped",
         static_cast<double>(view.routerShardsSkipped),
         "target shards skipped by sparse delivery");
    line("engine.router_buckets_visited",
         static_cast<double>(view.routerBucketsVisited),
         "(shard, delay-bucket) pairs streamed");
    if (view.totalSec() > 0.0) {
        line("phase.neuron_share",
             view.neuronSec / view.totalSec(),
             "neuron-computation fraction of the step (Figure 3)");
    }
    if (view.modelNeuronSec > 0.0) {
        line("hw.model_neuron_sec", view.modelNeuronSec,
             "modelled hardware neuron-phase seconds");
        line("hw.speedup_vs_host",
             view.neuronSec / view.modelNeuronSec,
             "modelled hardware speedup over this host");
    }
    os << "--------------------------------------------\n";
}

void
SimulationSession::reset()
{
    engineReset();
    std::fill(spikeCounts_.begin(), spikeCounts_.end(), 0);
    // Drop the previous run's fired flags too: lastFired() must
    // report "no step taken yet" after a reset, not stale spikes.
    fired_.clear();
    firedList_.clear();
    spikeEvents_.clear();
    for (auto &trace : probeTraces_)
        trace.clear();
    metrics_.reset();
    timedFromStep_ = 0;
    timedFromEvents_ = 0;
    statsView_ = PhaseStats{};
    t_ = 0;
    ewmaRate_ = 0.0;
    stimulus_ = stimulusInitial_;
    restored_ = false;
    restoredStep_ = 0;
    healthCounters_ = health::HealthCounters{};
    healthCursor_ = 0;
    lastFixSaturations_ = health::fixSaturations();
    planDecisions_.clear();
    planDecisionsTotal_ = 0;
}

void
SimulationSession::adoptSessionCore(const SimulationSession &other)
{
    if (&network_ != &other.network_)
        fatal("adoptSessionCore requires the same network");
    if (options_.probes != other.options_.probes ||
        options_.recordSpikes != other.options_.recordSpikes ||
        options_.stimulusSeed != other.options_.stimulusSeed)
        fatal("adoptSessionCore requires identical session options");

    reset();
    t_ = other.t_;
    fired_ = other.fired_;
    firedList_ = other.firedList_;
    spikeCounts_ = other.spikeCounts_;
    spikeEvents_ = other.spikeEvents_;
    probeTraces_ = other.probeTraces_;
    stimulus_ = other.stimulus_;
    ewmaRate_ = other.ewmaRate_;
    // Simulation-meaningful counters continue; wall-clock timers
    // restart from zero, exactly as after a checkpoint restore, so
    // the timed-step and timed-event bases move up to the adopted
    // counts (engineImportTransfer seeds this engine's event count
    // with exactly other's).
    stepsCounter_.add(other.stepsCounter_.value());
    timedFromStep_ = stepsCounter_.value();
    timedFromEvents_ = other.stats().synapseEvents;
    spikesCounter_.add(other.spikesCounter_.value());
    modelNeuronSecGauge_.add(other.modelNeuronSecGauge_.value());
    checkpointSaves_ = other.checkpointSaves_;
    restored_ = other.restored_;
    restoredStep_ = other.restoredStep_;
    checkpointEvery_ = other.checkpointEvery_;
    planInfo_ = other.planInfo_;
    // Health tallies and the plan audit describe the whole run, so
    // an engine hand-off carries them into the new session. The
    // saturation watermark re-anchors to the process counter's
    // current value (reset() already did, but the source session may
    // have consumed deltas since this session was constructed).
    healthCounters_ = other.healthCounters_;
    healthCursor_ = other.healthCursor_;
    lastFixSaturations_ = other.lastFixSaturations_;
    planDecisions_ = other.planDecisions_;
    planDecisionsTotal_ = other.planDecisionsTotal_;
}

bool
SimulationSession::writeRunReport(const std::string &path) const
{
    const PhaseStats &view = stats();
    telemetry::ReportContext context;
    auto &config = context.config;
    engineReportConfig(config);
    config.emplace_back("threads",
                        std::to_string(view.threadsUsed));
    config.emplace_back("stimulus_seed",
                        std::to_string(options_.stimulusSeed));
    config.emplace_back("neurons",
                        std::to_string(network_.numNeurons()));
    config.emplace_back("synapses",
                        std::to_string(network_.numSynapses()));
    config.emplace_back("probes",
                        std::to_string(options_.probes.size()));
    config.emplace_back("record_spikes",
                        options_.recordSpikes ? "true" : "false");

    auto &stats = context.stats;
    auto num = [](double x) { return telemetry::jsonNumber(x); };
    stats.emplace_back("steps", std::to_string(view.steps));
    stats.emplace_back("timed_steps", std::to_string(view.timedSteps));
    stats.emplace_back("spikes", std::to_string(view.spikes));
    stats.emplace_back("synapse_events",
                       std::to_string(view.synapseEvents));
    stats.emplace_back("mean_rate", num(meanRate()));
    stats.emplace_back("stimulus_sec", num(view.stimulusSec));
    stats.emplace_back("neuron_sec", num(view.neuronSec));
    stats.emplace_back("synapse_sec", num(view.synapseSec));
    stats.emplace_back("synapse_route_sec",
                       num(view.synapseRouteSec));
    stats.emplace_back("probe_sec", num(view.probeSec));
    stats.emplace_back("total_sec", num(view.totalSec()));
    stats.emplace_back("model_neuron_sec",
                       num(view.modelNeuronSec));
    stats.emplace_back("routing_table_bytes",
                       std::to_string(view.routingTableBytes));
    stats.emplace_back("connectivity_bytes",
                       std::to_string(view.connectivityBytes));
    stats.emplace_back("bytes_per_synapse",
                       num(view.bytesPerSynapse));
    stats.emplace_back("row_cache_hits",
                       std::to_string(view.rowCacheHits));
    stats.emplace_back("row_cache_misses",
                       std::to_string(view.rowCacheMisses));
    stats.emplace_back("ring_dense_clears",
                       std::to_string(view.ringDenseClears));
    stats.emplace_back("ring_sparse_clears",
                       std::to_string(view.ringSparseClears));
    stats.emplace_back("ring_cells_cleared",
                       std::to_string(view.ringCellsCleared));
    stats.emplace_back("router_shards_skipped",
                       std::to_string(view.routerShardsSkipped));
    stats.emplace_back("router_buckets_visited",
                       std::to_string(view.routerBucketsVisited));
    stats.emplace_back("ewma_rate", num(ewmaRate_));
    if (view.totalSec() > 0.0) {
        stats.emplace_back(
            "steps_per_sec",
            num(static_cast<double>(view.timedSteps) /
                view.totalSec()));
        stats.emplace_back(
            "synapse_events_per_sec",
            num(static_cast<double>(view.timedSynapseEvents) /
                view.totalSec()));
    }
    engineReportStats(stats);

    telemetry::ReportFields checkpoint;
    checkpoint.emplace_back(
        "enabled", checkpointEvery_ > 0 ? "true" : "false");
    checkpoint.emplace_back("every",
                            std::to_string(checkpointEvery_));
    checkpoint.emplace_back("saves",
                            std::to_string(checkpointSaves_));
    checkpoint.emplace_back("restored",
                            restored_ ? "true" : "false");
    checkpoint.emplace_back("restored_step",
                            std::to_string(restoredStep_));
    context.sections.emplace_back("checkpoint",
                                  std::move(checkpoint));

    // Health section (always present in v5): what the detectors were
    // configured to do and what they saw.
    telemetry::ReportFields healthFields;
    healthFields.emplace_back("enabled",
                              healthActive_ ? "true" : "false");
    healthFields.emplace_back(
        "policy",
        telemetry::jsonQuoted(health::specString(options_.health)));
    healthFields.emplace_back(
        "sample_every", std::to_string(options_.health.samplePeriod));
    healthFields.emplace_back(
        "sweeps", std::to_string(healthCounters_.sweeps));
    healthFields.emplace_back(
        "neurons_checked",
        std::to_string(healthCounters_.neuronsChecked));
    healthFields.emplace_back(
        "nan_events", std::to_string(healthCounters_.nanEvents));
    healthFields.emplace_back(
        "saturation_events",
        std::to_string(healthCounters_.saturationEvents));
    healthFields.emplace_back(
        "saturation_hits",
        std::to_string(healthCounters_.saturationHits));
    healthFields.emplace_back(
        "rate_explosions",
        std::to_string(healthCounters_.rateExplosions));
    healthFields.emplace_back(
        "rate_silences",
        std::to_string(healthCounters_.rateSilences));
    healthFields.emplace_back(
        "ring_high_water",
        std::to_string(healthCounters_.ringHighWater));
    healthFields.emplace_back(
        "ring_peak_fraction",
        num(healthCounters_.ringPeakFraction));
    healthFields.emplace_back(
        "watchdog_stalls", std::to_string(health::watchdogStalls()));
    context.sections.emplace_back("health",
                                  std::move(healthFields));

    // Plan-decision audit trail (only when anyone recorded one).
    if (planDecisionsTotal_ > 0) {
        telemetry::ReportFields audit;
        audit.emplace_back("recorded",
                           std::to_string(planDecisions_.size()));
        audit.emplace_back(
            "dropped", std::to_string(planDecisionsTotal_ -
                                      planDecisions_.size()));
        std::string decisions = "[";
        for (size_t i = 0; i < planDecisions_.size(); ++i) {
            const PlanDecision &d = planDecisions_[i];
            if (i > 0)
                decisions += ", ";
            decisions += "{\"step\": " + std::to_string(d.step) +
                         ", \"ewma_rate\": " + num(d.ewmaRate) +
                         ", \"chosen\": " +
                         telemetry::jsonQuoted(d.chosen) +
                         ", \"switched\": " +
                         (d.switched ? "true" : "false") + "}";
        }
        decisions += "]";
        audit.emplace_back("decisions", std::move(decisions));
        context.sections.emplace_back("plan_audit",
                                      std::move(audit));
    }

    if (planInfo_.present) {
        telemetry::ReportFields planFields;
        planFields.emplace_back(
            "strategy", telemetry::jsonQuoted(planInfo_.strategy));
        const double measured =
            view.timedSteps > 0
                ? view.totalSec() /
                      static_cast<double>(view.timedSteps)
                : 0.0;
        planFields.emplace_back("measured_step_sec", num(measured));
        planFields.emplace_back("crossover_rate",
                                num(planInfo_.crossoverRate));
        context.sections.emplace_back("plan",
                                      std::move(planFields));
    }

    context.metrics = &metrics_;
    return telemetry::writeReportFile(path, context);
}

// ---- Checkpoint/restore ----------------------------------------

void
SimulationSession::saveCheckpoint(std::ostream &os) const
{
    // Arms the stream: 17 significant digits from here on.
    writeCheckpointHeader(os, engineKind());

    os << "session " << network_.numNeurons() << ' ' << t_ << '\n';
    // Only simulation-meaningful counters are captured; wall-clock
    // phase timers are host-specific and restart from zero. The EWMA
    // rate rides along so engine-selection decisions continue
    // deterministically after a restore.
    os << "counters " << stepsCounter_.value() << ' '
       << spikesCounter_.value() << ' '
       << modelNeuronSecGauge_.value() << ' ' << ewmaRate_ << '\n';

    os << "spike_counts";
    for (const uint64_t c : spikeCounts_)
        os << ' ' << c;
    os << '\n';

    os << "probes " << probeTraces_.size() << '\n';
    for (const auto &trace : probeTraces_) {
        os << "trace " << trace.size();
        for (const double v : trace)
            os << ' ' << v;
        os << '\n';
    }

    os << "spike_events " << spikeEvents_.size();
    for (const SpikeEvent &e : spikeEvents_)
        os << ' ' << e.step << ' ' << e.neuron;
    os << '\n';

    stimulus_.saveState(os);

    // Plasticity-mutated weights. The watermark is informational
    // (diagnostics); restore rewrites the weights through the
    // logging mutators, which floods the network's mutation log and
    // lets delivery providers re-mirror on their next
    // refreshWeights(). Materialized networks snapshot the full
    // weight vector (form 1); procedural networks snapshot the spec
    // seed plus the sparse overlay (form 2) — the generator
    // reproduces every untouched weight, so the checkpoint stays
    // O(mutated) instead of O(synapses).
    const bool haveWeights = network_.weightMutations() > 0;
    if (!haveWeights) {
        os << "weights 0\n";
    } else if (network_.procedural()) {
        const auto overlay = network_.sortedOverlay();
        os << "weights 2\n";
        os << network_.connectivitySpec().seed << ' '
           << overlay.size();
        for (const auto &[idx, w] : overlay)
            os << ' ' << idx << ' ' << w;
        os << '\n';
    } else {
        os << "weights 1\n";
        os << network_.weightMutations() << ' '
           << network_.numSynapses();
        for (uint64_t i = 0; i < network_.numSynapses(); ++i)
            os << ' ' << network_.synapseAt(i).weight;
        os << '\n';
    }

    // Attached plasticity rules (v4): one tagged state record per
    // rule, in attachment order. Rules driven externally (never
    // attached) keep checkpointing their state beside the session's,
    // as before.
    os << "plasticity " << plasticityRules_.size() << '\n';
    for (const PlasticityRule *rule : plasticityRules_) {
        os << "rule " << rule->kind() << '\n';
        rule->saveState(os);
    }

    os << "engine\n";
    engineSaveState(os);
    os << "end\n";

    ++checkpointSaves_;
}

void
SimulationSession::loadCheckpoint(std::istream &is,
                                  Network *mutableNetwork)
{
    // Restoring onto a used session must equal restoring onto a
    // fresh one: wipe everything first (also zeroes the registry the
    // counters below are re-seeded into).
    reset();

    const CheckpointHeader header = readCheckpointHeaderInfo(is);
    if (header.engine != engineKind()) {
        fatal("checkpoint was written by a '%s' engine, cannot "
              "restore into '%s'",
              header.engine.c_str(), engineKind());
    }

    std::string tag;
    uint64_t neurons = 0;
    is >> tag >> neurons >> t_;
    if (tag != "session" || !is)
        fatal("malformed checkpoint session line");
    if (neurons != network_.numNeurons()) {
        fatal("checkpoint is for %llu neurons, this network has "
              "%llu",
              static_cast<unsigned long long>(neurons),
              static_cast<unsigned long long>(
                  network_.numNeurons()));
    }

    uint64_t steps = 0, spikes = 0;
    double modelSec = 0.0;
    is >> tag >> steps >> spikes >> modelSec >> ewmaRate_;
    if (tag != "counters" || !is)
        fatal("malformed checkpoint counters line");
    stepsCounter_.add(steps);
    // The phase timers restart here; throughput counts from this
    // step on.
    timedFromStep_ = stepsCounter_.value();
    spikesCounter_.add(spikes);
    modelNeuronSecGauge_.add(modelSec);

    is >> tag;
    if (tag != "spike_counts")
        fatal("malformed checkpoint spike_counts block");
    for (uint64_t &c : spikeCounts_)
        is >> c;

    size_t numProbes = 0;
    is >> tag >> numProbes;
    if (tag != "probes" || !is)
        fatal("malformed checkpoint probes block");
    if (numProbes != probeTraces_.size()) {
        fatal("checkpoint has %zu probe traces, session is "
              "configured with %zu probes",
              numProbes, probeTraces_.size());
    }
    for (auto &trace : probeTraces_) {
        size_t len = 0;
        is >> tag >> len;
        if (tag != "trace" || !is)
            fatal("malformed checkpoint probe trace");
        trace.resize(len);
        for (double &v : trace)
            is >> v;
    }

    size_t numEvents = 0;
    is >> tag >> numEvents;
    if (tag != "spike_events" || !is)
        fatal("malformed checkpoint spike_events block");
    spikeEvents_.resize(numEvents);
    for (SpikeEvent &e : spikeEvents_)
        is >> e.step >> e.neuron;

    stimulus_.loadState(is);

    int haveWeights = 0;
    is >> tag >> haveWeights;
    if (tag != "weights" || !is)
        fatal("malformed checkpoint weights block");
    if (haveWeights != 0 && mutableNetwork != &network_) {
        fatal("checkpoint carries mutated synapse weights; "
              "loadCheckpoint needs the session's own Network "
              "passed as mutableNetwork");
    }
    if (haveWeights == 1) {
        if (network_.procedural())
            fatal("checkpoint carries a full weight vector "
                  "(materialized storage); this network is "
                  "procedural — restore with the connectivity mode "
                  "that wrote it");
        uint64_t watermark = 0, numSynapses = 0;
        is >> watermark >> numSynapses;
        if (!is || numSynapses != network_.numSynapses())
            fatal("checkpoint weight vector does not match the "
                  "network's synapse count");
        for (uint64_t i = 0; i < numSynapses; ++i) {
            float w = 0.0f;
            is >> w;
            // Through the logging mutator: delivery tables notice
            // and re-mirror on their next refreshWeights().
            mutableNetwork->synapseAt(i).weight = w;
        }
    } else if (haveWeights == 2) {
        if (!network_.procedural())
            fatal("checkpoint carries a procedural weight overlay; "
                  "this network stores its synapses — restore with "
                  "--connectivity=procedural");
        uint64_t seed = 0, count = 0;
        is >> seed >> count;
        if (!is || seed != network_.connectivitySpec().seed)
            fatal("checkpoint overlay was generated from spec seed "
                  "%llu, this network uses %llu",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(
                      network_.connectivitySpec().seed));
        // Start from generated weights, then re-apply the deltas
        // (both through log-flooding mutators, so caches refresh).
        mutableNetwork->clearWeightOverlay();
        for (uint64_t i = 0; i < count; ++i) {
            uint64_t idx = 0;
            float w = 0.0f;
            is >> idx >> w;
            if (!is || idx >= network_.numSynapses())
                fatal("malformed checkpoint overlay entry %llu",
                      static_cast<unsigned long long>(i));
            mutableNetwork->setSynapseWeight(idx, w);
        }
    } else if (haveWeights != 0) {
        fatal("unknown checkpoint weights form %d", haveWeights);
    }

    // Plasticity block (v4+). Older snapshots have none: any rules
    // attached to this session keep their current state, matching
    // the historical external convention.
    if (header.version >= 4) {
        size_t numRules = 0;
        is >> tag >> numRules;
        if (tag != "plasticity" || !is)
            fatal("malformed checkpoint plasticity block");
        if (numRules != plasticityRules_.size()) {
            fatal("checkpoint carries %zu plasticity rules, this "
                  "session has %zu attached",
                  numRules, plasticityRules_.size());
        }
        for (PlasticityRule *rule : plasticityRules_) {
            std::string kind;
            is >> tag >> kind;
            if (tag != "rule" || !is || kind != rule->kind()) {
                fatal("checkpoint plasticity rule '%s' does not "
                      "match attached rule '%s'",
                      kind.c_str(), rule->kind());
            }
            rule->loadState(is);
        }
    }

    is >> tag;
    if (tag != "engine" || !is)
        fatal("malformed checkpoint engine block");
    engineLoadState(is);

    is >> tag;
    if (tag != "end" || !is)
        fatal("truncated checkpoint (missing end marker)");

    restored_ = true;
    restoredStep_ = t_;
    // The engine block restored the event count; throughput counts
    // deliveries from here on, like steps.
    timedFromEvents_ = stats().synapseEvents;
}

bool
SimulationSession::saveCheckpointFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open checkpoint file '%s' for writing",
             path.c_str());
        return false;
    }
    saveCheckpoint(os);
    os.flush();
    if (!os) {
        warn("failed writing checkpoint file '%s'", path.c_str());
        return false;
    }
    return true;
}

void
SimulationSession::loadCheckpointFile(const std::string &path,
                                      Network *mutableNetwork)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open checkpoint file '%s'", path.c_str());
    loadCheckpoint(is, mutableNetwork);
}

} // namespace flexon
