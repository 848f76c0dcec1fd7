// Churn and fault-injection engine for the discrete-event simulations.
//
// A FaultPlan is a declarative, seeded schedule of faults — fail-stop
// crashes with timed recoveries, flapping nodes, correlated sibling-set
// outages (the Section 5 attacker re-striking after repair), link-level
// partitions and single-link cuts (nodes alive but mutually unreachable),
// lossy-link episodes, stochastic churn, and insider (byzantine) behavior
// switches.
// A FaultInjector expands the plan into simulator events against any
// target exposing the FaultTarget hooks, so the same schedule can drive a
// RingSimulation, a HierarchySimulation, or future engines. Everything is
// deterministic: a fixed plan + seed yields a bit-identical fault timeline.
//
// Overlapping fault windows are reference-counted per node: a node stays
// down while *any* window covers it and revives only when the last one
// lifts, so composed schedules (churn on top of a scripted outage) behave
// as the union of their down intervals. Link-level faults are refcounted
// the same way, per directed (from, to) pair, independently of the node
// refcounts: crashing a partitioned node and lifting the crash leaves the
// node alive but still unreachable until the partition heals.
//
// One injector can carry several plans: add() arms a further plan at the
// current instant against the same refcounts and the same link filter, so
// overlapping windows of different plans compose exactly like overlapping
// windows of one plan.
//
// Snapshot integration: arm() first expands the plan into an indexed,
// deterministic action list (build_schedule()); each simulator event is the
// described datum {kFaultAction, [index]}, run through the fault block's
// runner the injector claims on its simulator at construction. A snapshot
// stores indices, and a restored injector — constructed with the identical
// plan — re-expands the identical list. FaultInjector is a
// snapshot::Participant; FaultPlan round-trips through describe()/parse().
// An injector holding added plans refuses to save.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "overlay/overlay.hpp"
#include "sim/simulator.hpp"
#include "snapshot/participant.hpp"
#include "trace/sink.hpp"

namespace hours::sim {

class RingSimulation;
class HierarchySimulation;

/// Uniform control surface the injector drives. Adapters exist for both
/// event-engine simulations; anything exposing these hooks can be faulted.
struct FaultTarget {
  Simulator* sim = nullptr;
  std::uint32_t node_count = 0;
  std::function<void(std::uint32_t)> kill;
  std::function<void(std::uint32_t)> revive;
  std::function<bool(std::uint32_t)> alive;
  std::function<void(double)> set_loss;  ///< null: loss episodes unsupported
  std::function<double()> loss;
  /// Installs the transport's per-link reachability predicate (null hook:
  /// link-level faults unsupported). The injector passes a predicate bound
  /// to its own refcounted link state; passing null restores connectivity.
  std::function<void(std::function<bool(std::uint32_t, std::uint32_t)>)> set_link_filter;
  /// null: insider behavior unsupported (e.g. the ring protocol).
  std::function<void(std::uint32_t, overlay::NodeBehavior)> set_behavior;
};

[[nodiscard]] FaultTarget make_fault_target(RingSimulation& ring);
[[nodiscard]] FaultTarget make_fault_target(HierarchySimulation& hierarchy);

/// Declarative fault schedule; builder calls may be chained. Times are
/// absolute simulation ticks (relative to the injector's arm() instant).
class FaultPlan {
 public:
  /// Fail-stop crash at `at`; recovers at `recover_at` (0 = permanent).
  FaultPlan& crash(std::uint32_t node, Ticks at, Ticks recover_at = 0);

  /// `cycles` down/up oscillations starting at `start`: down for `down`
  /// ticks, then up for `up` ticks. Ends alive.
  FaultPlan& flap(std::uint32_t node, Ticks start, Ticks down, Ticks up, std::uint32_t cycles);

  /// Kills every listed node at once, restores them `duration` later, and
  /// repeats the strike `strikes` times with `strike_gap` ticks of calm in
  /// between — the paper-§5 attacker re-striking a repaired neighborhood.
  FaultPlan& correlated_outage(std::vector<std::uint32_t> nodes, Ticks at, Ticks duration,
                               std::uint32_t strikes = 1, Ticks strike_gap = 0);

  /// Severs every link between nodes of *different* groups during
  /// [at, heal_at): both sides stay alive yet mutually unreachable, the
  /// ROADMAP's two-half-rings scenario. Nodes absent from every group keep
  /// full connectivity; links within a group are untouched. heal_at == 0
  /// leaves the partition in force forever.
  FaultPlan& partition(std::vector<std::vector<std::uint32_t>> groups, Ticks at,
                       Ticks heal_at = 0);

  /// Severs the single bidirectional link a <-> b during [at, heal_at);
  /// heal_at == 0 = permanent.
  FaultPlan& cut_link(std::uint32_t a, std::uint32_t b, Ticks at, Ticks heal_at = 0);

  /// Sets the transport loss rate to `probability` during [from, until),
  /// then restores whatever rate was in force when the episode began.
  FaultPlan& loss_episode(double probability, Ticks from, Ticks until);

  /// Switches a node's insider behavior at `at` (Section 5.3).
  FaultPlan& byzantine(std::uint32_t node, overlay::NodeBehavior behavior, Ticks at);

  /// `events` crash+recover pairs at seeded-random nodes and instants in
  /// [from, until); downtimes are uniform in [mean_downtime/2,
  /// 3*mean_downtime/2). Nodes listed in `spare` are never chosen (protect
  /// the query source, a bench's measurement target, ...).
  FaultPlan& random_churn(std::uint32_t events, Ticks from, Ticks until, Ticks mean_downtime,
                          std::uint64_t seed, std::vector<std::uint32_t> spare = {});

  [[nodiscard]] bool needs_loss_hooks() const noexcept { return !loss_episodes_.empty(); }
  [[nodiscard]] bool needs_behavior_hook() const noexcept { return !byzantine_.empty(); }
  [[nodiscard]] bool needs_link_hook() const noexcept {
    return !partitions_.empty() || !cut_links_.empty();
  }

  /// One builder call per line, in builder-call syntax — enough to re-type
  /// a failing fuzz schedule by hand, and exact enough to round-trip:
  /// parse(describe(p)) == p (doubles are printed with 17 significant
  /// digits). Logged alongside the generating seed in fuzz artifacts and
  /// stored verbatim in snapshots.
  [[nodiscard]] std::string describe() const;

  /// Parses describe() output back into a plan. Returns std::nullopt — and
  /// fills `error`, when given — on malformed text. Syntax errors are
  /// reported; semantic violations (e.g. a zero-cycle flap) go through the
  /// builders and abort exactly as the equivalent code would.
  [[nodiscard]] static std::optional<FaultPlan> parse(std::string_view text,
                                                      std::string* error = nullptr);

  [[nodiscard]] bool operator==(const FaultPlan&) const = default;

 private:
  friend class FaultInjector;

  struct CrashSpec {
    std::uint32_t node = 0;
    Ticks at = 0;
    Ticks recover_at = 0;  ///< 0 = permanent
    [[nodiscard]] bool operator==(const CrashSpec&) const = default;
  };
  struct FlapSpec {
    std::uint32_t node = 0;
    Ticks start = 0;
    Ticks down = 0;
    Ticks up = 0;
    std::uint32_t cycles = 0;
    [[nodiscard]] bool operator==(const FlapSpec&) const = default;
  };
  struct OutageSpec {
    std::vector<std::uint32_t> nodes;
    Ticks at = 0;
    Ticks duration = 0;
    std::uint32_t strikes = 1;
    Ticks strike_gap = 0;
    [[nodiscard]] bool operator==(const OutageSpec&) const = default;
  };
  struct PartitionSpec {
    std::vector<std::vector<std::uint32_t>> groups;
    Ticks at = 0;
    Ticks heal_at = 0;  ///< 0 = permanent
    [[nodiscard]] bool operator==(const PartitionSpec&) const = default;
  };
  struct CutLinkSpec {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    Ticks at = 0;
    Ticks heal_at = 0;  ///< 0 = permanent
    [[nodiscard]] bool operator==(const CutLinkSpec&) const = default;
  };
  struct LossSpec {
    double probability = 0.0;
    Ticks from = 0;
    Ticks until = 0;
    [[nodiscard]] bool operator==(const LossSpec&) const = default;
  };
  struct ByzantineSpec {
    std::uint32_t node = 0;
    overlay::NodeBehavior behavior = overlay::NodeBehavior::kHonest;
    Ticks at = 0;
    [[nodiscard]] bool operator==(const ByzantineSpec&) const = default;
  };
  struct ChurnSpec {
    std::uint32_t events = 0;
    Ticks from = 0;
    Ticks until = 0;
    Ticks mean_downtime = 0;
    std::uint64_t seed = 0;
    std::vector<std::uint32_t> spare;
    [[nodiscard]] bool operator==(const ChurnSpec&) const = default;
  };

  std::vector<CrashSpec> crashes_;
  std::vector<FlapSpec> flaps_;
  std::vector<OutageSpec> outages_;
  std::vector<PartitionSpec> partitions_;
  std::vector<CutLinkSpec> cut_links_;
  std::vector<LossSpec> loss_episodes_;
  std::vector<ByzantineSpec> byzantine_;
  std::vector<ChurnSpec> churn_;
};

/// Transitions actually applied (filtered through the per-node down
/// refcount), observable after — or during — a run.
struct FaultInjectorStats {
  std::uint64_t kills = 0;             ///< alive -> dead transitions
  std::uint64_t revivals = 0;          ///< dead -> alive transitions
  std::uint64_t link_cuts = 0;         ///< directed links passable -> severed
  std::uint64_t link_heals = 0;        ///< directed links severed -> passable
  std::uint64_t loss_changes = 0;      ///< set_loss invocations (incl. restores)
  std::uint64_t behavior_changes = 0;  ///< insider switches applied
};

class FaultInjector : public snapshot::Participant {
 public:
  /// Claims the fault kind block on the target's simulator, which must not
  /// have been claimed already. The target's simulator/hooks must outlive
  /// the injector; the injector itself must outlive the run (its runner
  /// and scheduled events point back into it).
  FaultInjector(FaultTarget target, FaultPlan plan);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Expands the plan into simulator events, offset from the current
  /// simulation instant. Call exactly once, before running the schedule
  /// window — and not at all when the injector is about to be restored
  /// from a snapshot.
  void arm();

  /// Arms a further plan on an armed injector, offset from the current
  /// simulation instant. Its windows share the down and link refcounts with
  /// every plan already armed, so a node stays down while any window of any
  /// plan covers it. After this call save_state() refuses.
  void add(const FaultPlan& plan);

  /// Attaches the trace stream (kill/revive/link/loss/behavior events as
  /// they are applied); null detaches. Must outlive the run.
  void set_tracer(trace::Tracer* tracer) { trace_ = tracer; }

  [[nodiscard]] const FaultInjectorStats& stats() const noexcept { return stats_; }

  /// True while any armed fault window holds `node` down.
  [[nodiscard]] bool held_down(std::uint32_t node) const;

  /// True while any armed partition/cut window severs the directed link
  /// `from` -> `to`. Both directions are severed together by every builder,
  /// but the state is tracked (and queryable) per direction.
  [[nodiscard]] bool link_severed(std::uint32_t from, std::uint32_t to) const;

  // -- snapshot (snapshot::Participant) -----------------------------------------
  [[nodiscard]] std::string section() const override { return "faults"; }
  [[nodiscard]] snapshot::Json save_state(std::string& error) const override;
  [[nodiscard]] std::string restore_state(const snapshot::Json& state) override;
  [[nodiscard]] bool owns(std::uint32_t kind) const override;

 private:
  /// One expanded plan step. `at` is the delay from the arm() instant;
  /// apply_planned() interprets the rest. A link action covers BOTH
  /// directions of the (a, b) pair, matching how every builder severs.
  struct PlannedAction {
    enum class Kind : std::uint8_t {
      kDown,
      kUp,
      kLinkDown,
      kLinkUp,
      kLossSet,
      kLossRestore,
      kBehavior,
    };
    Kind kind = Kind::kDown;
    Ticks at = 0;
    std::uint32_t a = 0;  ///< node, link endpoint, or behavior target
    std::uint32_t b = 0;  ///< second link endpoint
    double probability = 0.0;                                    ///< kLossSet
    std::size_t slot = 0;  ///< loss episode index (kLossSet/kLossRestore)
    overlay::NodeBehavior behavior = overlay::NodeBehavior::kHonest;
  };

  /// Pure, deterministic expansion of `plan`, its loss episodes numbered
  /// from `first_loss_slot`. The vector ORDER is part of the snapshot
  /// contract: same-instant actions fire in list order (the simulator's
  /// FIFO tie-break), so it must never be reordered across versions
  /// without bumping kSnapshotVersion.
  [[nodiscard]] std::vector<PlannedAction> build_schedule(const FaultPlan& plan,
                                                          std::size_t first_loss_slot) const;
  /// Appends `plan`'s actions to schedule_ and schedules them from now.
  void schedule_plan(const FaultPlan& plan);
  void apply_planned(std::size_t index);
  void install_link_filter();

  void apply_down(std::uint32_t node);
  void apply_up(std::uint32_t node);
  void apply_link_down(std::uint32_t a, std::uint32_t b);
  void apply_link_up(std::uint32_t a, std::uint32_t b);

  FaultTarget target_;
  FaultPlan plan_;
  FaultInjectorStats stats_;
  trace::Tracer* trace_ = nullptr;
  std::vector<PlannedAction> schedule_;  ///< built by arm() / restore_state(); add() appends
  std::vector<double> loss_saved_;       ///< per-episode pre-episode loss rate
  std::vector<std::uint32_t> down_count_;
  /// Directed (from, to) -> number of severing windows currently in force.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint32_t> link_down_count_;
  bool armed_ = false;
  bool added_plans_ = false;
  bool link_filter_installed_ = false;
};

}  // namespace hours::sim
