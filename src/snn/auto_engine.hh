/**
 * @file
 * Rate-adaptive engine selection (the dense/event-driven switch).
 *
 * The dense Simulator and the event-driven LLIF engine are
 * step-equivalent but have opposite cost profiles: dense work is
 * O(N) per step regardless of activity, event-driven work scales
 * with the spike traffic. Which one wins therefore depends on the
 * *current* firing rate — a quantity that changes over a run (onset
 * transients, stimulus episodes, synchronous bursts).
 *
 * AutoSession owns whichever engine is currently cheaper and switches
 * between them mid-run using the bit-exact hand-off machinery
 * (SimulationSession::adoptSessionCore + EngineTransfer): the spike
 * trains, probe traces and checkpoints of an auto run are identical
 * to both static engines' output, so engine choice is purely a
 * performance knob.
 *
 * The decision input is the session's EWMA firing-rate estimator
 * (SimulationSession::ewmaRate), which derives only from the spike
 * history — so decisions are deterministic and survive
 * checkpoint/restore. The crossover is r* = 1 / (K + 1) for mean
 * fan-out K: a dense step updates all N neurons, an event-driven
 * step costs about (K + 1) units per fired neuron (its own update
 * plus catching up K targets), and both pay the same per-synapse
 * delivery, so the two tie at r N (K + 1) = N.
 */

#ifndef FLEXON_SNN_AUTO_ENGINE_HH
#define FLEXON_SNN_AUTO_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "snn/network.hh"
#include "snn/session.hh"
#include "snn/simulator.hh"
#include "snn/stimulus.hh"

namespace flexon {

/** Which delivery engine a run is pinned to (or Auto to adapt). */
enum class EngineKind {
    Dense, ///< dense three-phase Simulator
    Event, ///< event-driven LLIF engine
    Auto,  ///< rate-adaptive switch between the two
};

/** Printable engine-kind name ("dense" / "event" / "auto"). */
const char *engineKindName(EngineKind kind);

/** Parse "dense" / "event" / "auto"; returns false on anything
 *  else. */
bool parseEngineKind(const std::string &text, EngineKind &out);

/**
 * Relative switch margin for the rate-adaptive engine: the engine
 * flips only when the EWMA rate clears the crossover by this factor
 * (event->dense at r > r* x (1 + h), dense->event at
 * r x (1 + h) < r*), leaving a dead band of (1 + h)^2 ~ 1.44x so a
 * rate hovering at the crossover cannot thrash hand-off costs.
 */
inline constexpr double kSwitchHysteresis = 0.2;

/**
 * Steps between engine-switch decisions. Spike output is
 * decision-window invariant (decisions land on absolute step
 * boundaries), so this only trades reaction latency against hand-off
 * frequency.
 */
inline constexpr uint64_t kDecisionWindow = 256;

/** Tunables of the rate-adaptive switch. */
struct AutoEngineOptions
{
    EngineKind engine = EngineKind::Auto;
    /**
     * Steps between switch decisions (kDecisionWindow). Small enough
     * to catch regime changes, large enough that a hand-off
     * (O(N + ring) copies) amortizes to noise.
     */
    uint64_t decisionWindow = kDecisionWindow;
    /**
     * Relative margin the estimated winner must beat the incumbent
     * by before a switch happens (thrash guard, kSwitchHysteresis).
     */
    double hysteresis = kSwitchHysteresis;
};

/**
 * A simulation session with a selectable (or self-selecting)
 * delivery engine.
 *
 * Facade contract: session() returns the live SimulationSession for
 * reads (stats, probes, spikes, reports); run() and the checkpoint
 * calls must go through AutoSession, because they are the points
 * where the underlying engine may be replaced. The reference
 * returned by session() is invalidated by run(), loadCheckpointFile()
 * and reset() — re-fetch it afterwards.
 */
class AutoSession
{
  public:
    /**
     * @param network finalized; kept by reference (must outlive the
     *        session)
     * @param stimulus stimulus sources (copied; a pristine copy is
     *        kept for rebuilding engines)
     * @param options dense-engine options (backend, threads, probes,
     *        sparse delivery, ...); the event engine shares the
     *        session-level subset
     * @param autoOptions engine pin / switch tunables. EngineKind::
     *        Auto silently pins to Dense (with a warn) when the
     *        configuration cannot hand off: non-Reference backend,
     *        non-discrete mode, or a network the event engine cannot
     *        run (eventDrivenEligible).
     */
    AutoSession(const Network &network, StimulusGenerator stimulus,
                const SimulatorOptions &options = {},
                const AutoEngineOptions &autoOptions = {});

    /** The live engine session (see the facade contract above). */
    SimulationSession &session() { return *child_; }
    const SimulationSession &session() const { return *child_; }

    /** Run `steps` steps, deciding the engine every
     *  decisionWindow. */
    void run(uint64_t steps);

    /** Engine kind currently executing ("dense" /
     *  "event-driven"). */
    const char *activeEngine() const;

    /** True while the event-driven engine is active. */
    bool eventActive() const { return eventActive_; }

    /** Completed engine switches this run. */
    uint64_t switches() const { return switches_; }

    /** True when rate-adaptive switching is in effect. */
    bool adaptive() const { return adaptive_; }

    /**
     * Firing rate (spikes/neuron/step) above which the dense engine
     * is estimated cheaper (before hysteresis): 1 / (K + 1) for mean
     * fan-out K while adaptive, 0 otherwise.
     */
    double crossoverRate() const { return crossoverRate_; }

    /**
     * Checkpoint via the live engine. The snapshot records that
     * engine's kind; restore (here or in a pinned session of the
     * matching kind) resumes bit-exactly.
     */
    bool saveCheckpointFile(const std::string &path) const;

    /**
     * Restore from `path`, rebuilding the engine the checkpoint was
     * written by when it differs from the live one (only when the
     * session is not pinned; a pinned session of the wrong kind
     * fatal()s inside loadCheckpoint, as before).
     */
    void loadCheckpointFile(const std::string &path,
                            Network *mutableNetwork = nullptr);

  private:
    std::unique_ptr<SimulationSession> makeEngine(bool event) const;
    /** Hand the live state to the other engine (bit-exact). */
    void switchEngine(bool toEvent);
    /** Compare the EWMA rate with the crossover; switch if warranted. */
    void decide();

    const Network &network_;
    StimulusGenerator stimulus_; ///< pristine copy for rebuilds
    SimulatorOptions options_;
    AutoEngineOptions auto_;

    /**
     * Stamp the decision just taken into the live engine's plan
     * audit trail (report "plan_audit" section, trace instants).
     * Called after any switch, so the record lands in the session
     * core the run continues with.
     */
    void recordDecision(bool switched);

    std::unique_ptr<SimulationSession> child_;
    bool eventActive_ = false;
    bool adaptive_ = false;
    double crossoverRate_ = 0.0;
    uint64_t switches_ = 0;
};

} // namespace flexon

#endif // FLEXON_SNN_AUTO_ENGINE_HH
