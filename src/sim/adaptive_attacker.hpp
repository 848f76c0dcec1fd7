// The ROADMAP's adaptive attacker, built as a pure trace consumer.
//
// The paper's Section 5/6.2 attacker re-strikes a neighborhood after it
// repairs. The static form (FaultPlan::correlated_outage) re-strikes the
// *same* nodes on a timer — blind to where the repair actually landed. This
// attacker instead subscribes to the run's trace stream and watches
// `recovery_adopt` events: when active recovery closes a gap, the adopting
// node (and the originator it adopted) are exactly the servers now carrying
// the repaired neighborhood, so that is where the next strike lands.
//
// Deliberately restricted to information a real observer could have: it
// sees only emitted events (no routing tables, no liveness oracle) and acts
// through scheduled kill/revive (events of its kind block, 0x600), after a
// configurable reaction delay.
// Budgeted (max_strikes) and rate-limited (cooldown) so the comparison
// bench can hold total firepower equal between the static and adaptive
// forms. Attaching it to the Tracer is the whole integration — it is also
// the proof-of-API test for TraceSink subscribers.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/sink.hpp"

namespace hours::sim {

class RingSimulation;

struct AdaptiveAttackerConfig {
  /// Nodes per strike: the adopter, the repair originator, then clockwise
  /// successors of the adopter until the set is this large.
  std::uint32_t neighborhood = 3;
  /// Observe -> strike latency (the attacker is not instantaneous).
  Ticks reaction_delay = 500;
  Ticks strike_duration = 15'000;
  /// Re-strikes the attacker may launch over the whole run.
  std::uint32_t max_strikes = 2;
  /// Minimum gap between consecutive strike launches; adoption events
  /// arriving inside it are observed but not acted on (a strike window
  /// produces a burst of adoptions — one answer per burst).
  Ticks cooldown = 10'000;
};

class AdaptiveAttacker final : public trace::TraceSink {
 public:
  /// Claims the attacker kind block on the ring's simulator. The ring must
  /// outlive the attacker, and the attacker the simulator's use; attach
  /// with tracer.add_sink(&a).
  AdaptiveAttacker(RingSimulation& ring, AdaptiveAttackerConfig config);

  AdaptiveAttacker(const AdaptiveAttacker&) = delete;
  AdaptiveAttacker& operator=(const AdaptiveAttacker&) = delete;

  /// Trace callback: reacts to kRecoveryAdopt, ignores everything else.
  /// Never mutates the simulation synchronously — strikes are scheduled.
  void on_event(const trace::Event& event) override;

  [[nodiscard]] std::uint64_t adoptions_seen() const noexcept { return adoptions_seen_; }
  [[nodiscard]] std::uint32_t strikes_launched() const noexcept { return strikes_; }
  /// The node sets struck so far, in launch order.
  [[nodiscard]] const std::vector<std::vector<std::uint32_t>>& strike_sets() const noexcept {
    return strike_sets_;
  }

 private:
  RingSimulation& ring_;
  AdaptiveAttackerConfig config_;
  std::uint64_t adoptions_seen_ = 0;
  std::uint32_t strikes_ = 0;
  Ticks last_launch_at_ = 0;
  bool launched_any_ = false;
  std::vector<std::vector<std::uint32_t>> strike_sets_;
};

}  // namespace hours::sim
