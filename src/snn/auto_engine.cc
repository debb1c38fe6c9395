#include "snn/auto_engine.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "snn/event_driven.hh"
#include "snn/serialize.hh"

namespace flexon {

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
    case EngineKind::Dense:
        return "dense";
    case EngineKind::Event:
        return "event";
    case EngineKind::Auto:
        return "auto";
    }
    return "?";
}

bool
parseEngineKind(const std::string &text, EngineKind &out)
{
    if (text == "dense")
        out = EngineKind::Dense;
    else if (text == "event")
        out = EngineKind::Event;
    else if (text == "auto")
        out = EngineKind::Auto;
    else
        return false;
    return true;
}

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

AutoSession::AutoSession(const Network &network,
                         StimulusGenerator stimulus,
                         const SimulatorOptions &options,
                         const AutoEngineOptions &autoOptions)
    : network_(network), stimulus_(std::move(stimulus)),
      options_(options), auto_(autoOptions)
{
    bool startEvent = auto_.engine == EngineKind::Event;

    if (options_.connectivity != ConnectivityKind::Materialized &&
        auto_.engine == EngineKind::Event) {
        // The event-driven engine walks stored rows through its own
        // materialized table; running it would silently ignore the
        // requested representation.
        fatal("engine=event requires materialized connectivity "
              "(requested %s)",
              connectivityKindName(options_.connectivity));
    }

    if (auto_.engine == EngineKind::Auto) {
        // Adaptivity requires the bit-exact hand-off, which exists
        // for the Reference backend's discrete LLIF path only.
        std::string why;
        if (options_.backend != BackendKind::Reference)
            why = "the " +
                  std::string(backendName(options_.backend)) +
                  " backend models hardware timing and cannot hand "
                  "off neuron state";
        else if (options_.mode != IntegrationMode::Discrete)
            why = "continuous integration carries solver state the "
                  "event-driven engine cannot reproduce";
        else if (options_.connectivity !=
                 ConnectivityKind::Materialized)
            why = std::string(connectivityKindName(
                      options_.connectivity)) +
                  " connectivity has no event-driven delivery path";
        else
            eventDrivenEligible(network_, &why);
        adaptive_ = why.empty();
        if (!adaptive_)
            warn("engine=auto: pinned to the dense engine (%s)",
                 why.c_str());
    }

    if (adaptive_) {
        // Dense and event-driven step costs tie at r = 1 / (K + 1)
        // (see the file comment). K is 0 for an empty network, which
        // puts the crossover at 1: event-driven at every rate.
        const double neurons =
            static_cast<double>(network_.numNeurons());
        const double fanOut =
            neurons == 0.0
                ? 0.0
                : static_cast<double>(network_.numSynapses()) /
                      neurons;
        crossoverRate_ = std::clamp(1.0 / (fanOut + 1.0), 0.0, 1.0);
        // A fresh network is silent: start event-driven.
        startEvent = true;
    }

    child_ = makeEngine(startEvent);
    eventActive_ = startEvent;
    // Report "plan" section; adoptSessionCore carries it across
    // hand-offs.
    PlanInfo info;
    info.present = true;
    info.strategy = adaptive_ ? "auto" : eventActive_ ? "event" : "dense";
    info.crossoverRate = crossoverRate_;
    child_->setPlanInfo(info);
    if (adaptive_) {
        // Audit the implicit step-0 decision (the silent network
        // picking the event engine) alongside the windowed ones.
        recordDecision(false);
    }
}

void
AutoSession::recordDecision(bool switched)
{
    PlanDecision d;
    d.step = child_->currentStep();
    d.ewmaRate = child_->ewmaRate();
    d.chosen = eventActive_ ? "event" : "dense";
    d.switched = switched;
    child_->recordPlanDecision(d);
}

std::unique_ptr<SimulationSession>
AutoSession::makeEngine(bool event) const
{
    if (event)
        return std::make_unique<EventDrivenSimulator>(
            network_, stimulus_, toSessionOptions(options_));
    return std::make_unique<Simulator>(network_, stimulus_, options_);
}

const char *
AutoSession::activeEngine() const
{
    return eventActive_ ? "event-driven" : "dense";
}

void
AutoSession::switchEngine(bool toEvent)
{
    if (toEvent == eventActive_)
        return;
    EngineTransfer xfer;
    if (!child_->engineExportTransfer(xfer)) {
        warn("engine=auto: %s engine cannot export its state; "
             "switching disabled",
             activeEngine());
        adaptive_ = false;
        return;
    }
    std::unique_ptr<SimulationSession> next = makeEngine(toEvent);
    next->adoptSessionCore(*child_);
    if (!next->engineImportTransfer(xfer)) {
        warn("engine=auto: hand-off import failed; switching "
             "disabled");
        adaptive_ = false;
        return;
    }
    child_ = std::move(next);
    eventActive_ = toEvent;
    ++switches_;
}

void
AutoSession::decide()
{
    const double rate = child_->ewmaRate();
    const double margin = 1.0 + auto_.hysteresis;
    const bool wasEvent = eventActive_;
    if (eventActive_) {
        if (rate > crossoverRate_ * margin)
            switchEngine(false);
    } else {
        if (rate * margin < crossoverRate_)
            switchEngine(true);
    }
    // Record after any switch so the entry lands in the session
    // core the run continues with (adoptSessionCore carries the
    // trail across a hand-off).
    recordDecision(eventActive_ != wasEvent);
}

void
AutoSession::run(uint64_t steps)
{
    if (!adaptive_ || auto_.decisionWindow == 0) {
        child_->run(steps);
        return;
    }
    while (steps > 0) {
        // Decide on absolute window boundaries, so a restored run
        // re-evaluates at the same steps as the original.
        const uint64_t window = auto_.decisionWindow;
        const uint64_t toBoundary =
            window - child_->currentStep() % window;
        const uint64_t chunk = std::min(steps, toBoundary);
        child_->run(chunk);
        steps -= chunk;
        if (child_->currentStep() % window == 0)
            decide();
    }
}

bool
AutoSession::saveCheckpointFile(const std::string &path) const
{
    return child_->saveCheckpointFile(path);
}

void
AutoSession::loadCheckpointFile(const std::string &path,
                                Network *mutableNetwork)
{
    if (adaptive_) {
        // Resume on the engine that wrote the snapshot; the rate
        // estimator it carries drives later decisions as usual.
        const std::string kind = peekCheckpointFileEngine(path);
        const bool wantEvent = kind == "event-driven";
        if (wantEvent != eventActive_) {
            const PlanInfo planInfo = child_->planInfo();
            child_ = makeEngine(wantEvent);
            eventActive_ = wantEvent;
            child_->setPlanInfo(planInfo);
        }
    }
    child_->loadCheckpointFile(path, mutableNetwork);
}

} // namespace flexon
