#include "sim/adaptive_attacker.hpp"

#include <algorithm>

#include "ids/ring.hpp"
#include "sim/ring_protocol.hpp"
#include "snapshot/event_kinds.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

AdaptiveAttacker::AdaptiveAttacker(RingSimulation& ring, AdaptiveAttackerConfig config)
    : ring_(ring), config_(config) {
  HOURS_EXPECTS(config_.neighborhood >= 1);
  HOURS_EXPECTS(config_.strike_duration > 0);
  // A strike kills its live targets and schedules the revive of just those.
  ring_.simulator().set_runner(snapshot::kAttackerStrike, [this](std::uint32_t kind,
                                                                 const std::uint64_t* args,
                                                                 std::size_t count) {
    std::vector<std::uint64_t> downed;
    for (std::size_t i = 0; i < count; ++i) {
      const auto node = static_cast<std::uint32_t>(args[i]);
      if (kind == snapshot::kAttackerRevive) {
        ring_.revive(node);
      } else if (ring_.alive(node)) {
        ring_.kill(node);
        downed.push_back(node);
      }
    }
    if (kind == snapshot::kAttackerStrike) {
      ring_.simulator().schedule(config_.strike_duration, snapshot::kAttackerRevive,
                                 downed.data(), downed.size());
    }
  });
}

void AdaptiveAttacker::on_event(const trace::Event& event) {
  if (event.type != trace::EventType::kRecoveryAdopt) return;
  ++adoptions_seen_;
  if (strikes_ >= config_.max_strikes) return;

  auto& sim = ring_.simulator();
  if (launched_any_ && sim.now() < last_launch_at_ + config_.cooldown) return;

  const std::uint32_t size = ring_.config().size;
  if (event.node >= size) return;  // not a ring adoption event

  // The repaired neighborhood: the adopter, the originator it adopted, then
  // the adopter's clockwise successors until the strike set is full.
  std::vector<std::uint32_t> targets{event.node};
  auto push = [&targets](std::uint32_t n) {
    if (std::find(targets.begin(), targets.end(), n) == targets.end()) {
      targets.push_back(n);
    }
  };
  if (event.peer < size) push(event.peer);
  for (std::uint32_t step = 1;
       targets.size() < config_.neighborhood && step < size; ++step) {
    push(ids::clockwise_step(event.node, step, size));
  }

  ++strikes_;
  launched_any_ = true;
  last_launch_at_ = sim.now();
  // Strike after the reaction delay; never synchronously from inside the
  // protocol handler that emitted the event.
  const std::vector<std::uint64_t> words(targets.begin(), targets.end());
  sim.schedule(config_.reaction_delay, snapshot::kAttackerStrike, words.data(), words.size());
  strike_sets_.push_back(std::move(targets));
}

}  // namespace hours::sim
