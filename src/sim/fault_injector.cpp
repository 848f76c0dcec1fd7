#include "sim/fault_injector.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/ring_protocol.hpp"
#include "sim/transport.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/json.hpp"
#include "snapshot/reader.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

FaultTarget make_fault_target(RingSimulation& ring) {
  FaultTarget target;
  target.sim = &ring.simulator();
  target.node_count = ring.config().size;
  target.kill = [&ring](std::uint32_t node) { ring.kill(node); };
  target.revive = [&ring](std::uint32_t node) { ring.revive(node); };
  target.alive = [&ring](std::uint32_t node) { return ring.alive(node); };
  target.set_loss = [&ring](double p) { ring.set_loss_probability(p); };
  target.loss = [&ring] { return ring.loss_probability(); };
  target.set_link_filter = [&ring](LinkFilter filter) {
    ring.set_link_filter(std::move(filter));
  };
  // set_behavior stays null: ring processes have no insider modes.
  return target;
}

FaultTarget make_fault_target(HierarchySimulation& hierarchy) {
  FaultTarget target;
  target.sim = &hierarchy.simulator();
  target.node_count = hierarchy.node_count();
  target.kill = [&hierarchy](std::uint32_t node) { hierarchy.kill_id(node); };
  target.revive = [&hierarchy](std::uint32_t node) { hierarchy.revive_id(node); };
  target.alive = [&hierarchy](std::uint32_t node) { return hierarchy.alive_id(node); };
  target.set_loss = [&hierarchy](double p) { hierarchy.set_loss_probability(p); };
  target.loss = [&hierarchy] { return hierarchy.loss_probability(); };
  target.set_link_filter = [&hierarchy](LinkFilter filter) {
    hierarchy.set_link_filter(std::move(filter));
  };
  target.set_behavior = [&hierarchy](std::uint32_t node, overlay::NodeBehavior behavior) {
    hierarchy.set_behavior_id(node, behavior);
  };
  return target;
}

// -- FaultPlan builders ---------------------------------------------------------------

namespace {

// One precondition per builder, asserted by the builder and checked by
// FaultPlan::parse, so a plan line parse accepts never aborts a builder.

bool window_ok(Ticks at, Ticks end) { return end == 0 || end > at; }

bool flap_ok(Ticks down, Ticks up, std::uint32_t cycles) {
  return down > 0 && up > 0 && cycles > 0;
}

bool outage_ok(const std::vector<std::uint32_t>& nodes, Ticks duration,
               std::uint32_t strikes) {
  return !nodes.empty() && duration > 0 && strikes > 0;
}

/// At least two non-empty, pairwise disjoint groups.
bool partition_ok(const std::vector<std::vector<std::uint32_t>>& groups, Ticks at,
                  Ticks heal_at) {
  if (groups.size() < 2 || !window_ok(at, heal_at)) return false;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) return false;
    for (std::size_t h = g + 1; h < groups.size(); ++h) {
      for (const auto a : groups[g]) {
        if (std::find(groups[h].begin(), groups[h].end(), a) != groups[h].end()) return false;
      }
    }
  }
  return true;
}

bool cut_link_ok(std::uint32_t a, std::uint32_t b, Ticks at, Ticks heal_at) {
  return a != b && window_ok(at, heal_at);
}

bool loss_episode_ok(double probability, Ticks from, Ticks until) {
  return is_loss_probability(probability) && until > from;
}

bool churn_ok(std::uint32_t events, Ticks from, Ticks until, Ticks mean_downtime) {
  return events > 0 && until > from && mean_downtime > 0;
}

}  // namespace

FaultPlan& FaultPlan::crash(std::uint32_t node, Ticks at, Ticks recover_at) {
  HOURS_EXPECTS(window_ok(at, recover_at));
  crashes_.push_back(CrashSpec{node, at, recover_at});
  return *this;
}

FaultPlan& FaultPlan::flap(std::uint32_t node, Ticks start, Ticks down, Ticks up,
                           std::uint32_t cycles) {
  HOURS_EXPECTS(flap_ok(down, up, cycles));
  flaps_.push_back(FlapSpec{node, start, down, up, cycles});
  return *this;
}

FaultPlan& FaultPlan::correlated_outage(std::vector<std::uint32_t> nodes, Ticks at,
                                        Ticks duration, std::uint32_t strikes,
                                        Ticks strike_gap) {
  HOURS_EXPECTS(outage_ok(nodes, duration, strikes));
  outages_.push_back(OutageSpec{std::move(nodes), at, duration, strikes, strike_gap});
  return *this;
}

FaultPlan& FaultPlan::partition(std::vector<std::vector<std::uint32_t>> groups, Ticks at,
                                Ticks heal_at) {
  HOURS_EXPECTS(partition_ok(groups, at, heal_at));
  partitions_.push_back(PartitionSpec{std::move(groups), at, heal_at});
  return *this;
}

FaultPlan& FaultPlan::cut_link(std::uint32_t a, std::uint32_t b, Ticks at, Ticks heal_at) {
  HOURS_EXPECTS(cut_link_ok(a, b, at, heal_at));
  cut_links_.push_back(CutLinkSpec{a, b, at, heal_at});
  return *this;
}

FaultPlan& FaultPlan::loss_episode(double probability, Ticks from, Ticks until) {
  HOURS_EXPECTS(loss_episode_ok(probability, from, until));
  loss_episodes_.push_back(LossSpec{probability, from, until});
  return *this;
}

FaultPlan& FaultPlan::byzantine(std::uint32_t node, overlay::NodeBehavior behavior, Ticks at) {
  byzantine_.push_back(ByzantineSpec{node, behavior, at});
  return *this;
}

FaultPlan& FaultPlan::random_churn(std::uint32_t events, Ticks from, Ticks until,
                                   Ticks mean_downtime, std::uint64_t seed,
                                   std::vector<std::uint32_t> spare) {
  HOURS_EXPECTS(churn_ok(events, from, until, mean_downtime));
  churn_.push_back(ChurnSpec{events, from, until, mean_downtime, seed, std::move(spare)});
  return *this;
}

std::string FaultPlan::check_nodes(std::uint64_t node_count) const {
  std::string out;
  const auto check = [&out, node_count](const char* builder, std::uint32_t node) {
    if (out.empty() && node >= node_count) {
      out = std::string(builder) + "() names node " + std::to_string(node) + ", past the " +
            std::to_string(node_count) + " nodes of the system";
    }
  };
  for (const auto& s : crashes_) check("crash", s.node);
  for (const auto& s : flaps_) check("flap", s.node);
  for (const auto& s : outages_) {
    for (const auto node : s.nodes) check("correlated_outage", node);
  }
  for (const auto& s : partitions_) {
    for (const auto& group : s.groups) {
      for (const auto node : group) check("partition", node);
    }
  }
  for (const auto& s : cut_links_) {
    check("cut_link", s.a);
    check("cut_link", s.b);
  }
  for (const auto& s : byzantine_) check("byzantine", s.node);
  for (const auto& s : churn_) {
    if (out.empty() && s.spare.size() >= node_count) {
      out = "random_churn() spares " + std::to_string(s.spare.size()) + " of the " +
            std::to_string(node_count) + " nodes of the system";
    }
  }
  return out;
}

std::string FaultPlan::describe() const {
  std::string out;
  char line[256];
  const auto add = [&out, &line] { out += line; };
  for (const auto& s : crashes_) {
    std::snprintf(line, sizeof(line), "crash(%u, %" PRIu64 ", %" PRIu64 ")\n", s.node, s.at,
                  s.recover_at);
    add();
  }
  for (const auto& s : flaps_) {
    std::snprintf(line, sizeof(line), "flap(%u, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %u)\n",
                  s.node, s.start, s.down, s.up, s.cycles);
    add();
  }
  for (const auto& s : outages_) {
    std::string nodes;
    for (const auto n : s.nodes) {
      if (!nodes.empty()) nodes += ", ";
      nodes += std::to_string(n);
    }
    out += "correlated_outage({" + nodes + "}, " + std::to_string(s.at) + ", " +
           std::to_string(s.duration) + ", " + std::to_string(s.strikes) + ", " +
           std::to_string(s.strike_gap) + ")\n";
  }
  for (const auto& s : partitions_) {
    std::string groups;
    for (const auto& g : s.groups) {
      if (!groups.empty()) groups += ", ";
      groups += "{";
      for (std::size_t i = 0; i < g.size(); ++i) {
        if (i != 0) groups += ", ";
        groups += std::to_string(g[i]);
      }
      groups += "}";
    }
    out += "partition({" + groups + "}, " + std::to_string(s.at) + ", " +
           std::to_string(s.heal_at) + ")\n";
  }
  for (const auto& s : cut_links_) {
    std::snprintf(line, sizeof(line), "cut_link(%u, %u, %" PRIu64 ", %" PRIu64 ")\n", s.a, s.b,
                  s.at, s.heal_at);
    add();
  }
  for (const auto& s : loss_episodes_) {
    // %.17g: enough digits to reconstruct the exact double, so the
    // describe()/parse() round-trip is lossless.
    std::snprintf(line, sizeof(line), "loss_episode(%.17g, %" PRIu64 ", %" PRIu64 ")\n",
                  s.probability, s.from, s.until);
    add();
  }
  for (const auto& s : byzantine_) {
    std::snprintf(line, sizeof(line), "byzantine(%u, NodeBehavior(%d), %" PRIu64 ")\n", s.node,
                  static_cast<int>(s.behavior), s.at);
    add();
  }
  for (const auto& s : churn_) {
    std::string spare;
    for (const auto n : s.spare) {
      if (!spare.empty()) spare += ", ";
      spare += std::to_string(n);
    }
    out += "random_churn(" + std::to_string(s.events) + ", " + std::to_string(s.from) + ", " +
           std::to_string(s.until) + ", " + std::to_string(s.mean_downtime) + ", " +
           std::to_string(s.seed) + ", {" + spare + "})\n";
  }
  return out;
}

// -- FaultPlan::parse -----------------------------------------------------------------

namespace {

/// Tiny cursor over one describe() line.
struct Cursor {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  }
  [[nodiscard]] bool done() {
    skip_ws();
    return pos == s.size();
  }
  bool eat(char c) {
    skip_ws();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool eat_word(std::string_view word) {
    skip_ws();
    if (s.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }
  bool u64(std::uint64_t& out) {
    skip_ws();
    const std::size_t start = pos;
    out = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      out = out * 10 + static_cast<std::uint64_t>(s[pos] - '0');
      ++pos;
    }
    return pos != start;
  }
  bool u32(std::uint32_t& out) {
    std::uint64_t v = 0;
    if (!u64(v) || v > 0xFFFFFFFFULL) return false;
    out = static_cast<std::uint32_t>(v);
    return true;
  }
  bool i32(std::int32_t& out) {
    skip_ws();
    const bool negative = pos < s.size() && s[pos] == '-';
    if (negative) ++pos;
    std::uint64_t v = 0;
    if (!u64(v) || v > 0x7FFFFFFFULL) return false;
    out = negative ? -static_cast<std::int32_t>(v) : static_cast<std::int32_t>(v);
    return true;
  }
  bool dbl(double& out) {
    skip_ws();
    char buf[64];
    std::size_t n = 0;
    while (pos + n < s.size() && n + 1 < sizeof(buf)) {
      const char c = s[pos + n];
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
                           c == '+' || c == '-';
      if (!numeric) break;
      buf[n++] = c;
    }
    if (n == 0) return false;
    buf[n] = '\0';
    char* end = nullptr;
    out = std::strtod(buf, &end);
    if (end == buf) return false;
    pos += static_cast<std::size_t>(end - buf);
    return true;
  }
  /// {a, b, ...} — possibly empty.
  bool list(std::vector<std::uint32_t>& out) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    while (true) {
      std::uint32_t v = 0;
      if (!u32(v)) return false;
      out.push_back(v);
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
  /// {{...}, {...}} — at least the outer braces.
  bool group_list(std::vector<std::vector<std::uint32_t>>& out) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    while (true) {
      std::vector<std::uint32_t> group;
      if (!list(group)) return false;
      out.push_back(std::move(group));
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
};

}  // namespace

std::optional<FaultPlan> FaultPlan::parse(std::string_view text, std::string* error) {
  FaultPlan plan;
  // Errors carry the failure position: the cursor stops just past the last
  // token it consumed, so "col" points at (1-based) the first character that
  // did not parse and "near" quotes what the parser was looking at.
  const auto fail = [error](std::size_t line_no, const Cursor& c,
                            const std::string& what) -> std::optional<FaultPlan> {
    if (error != nullptr) {
      const std::size_t col = std::min(c.pos, c.s.size());
      const std::string_view rest = c.s.substr(col);
      std::string near{rest.substr(0, 24)};
      if (rest.size() > 24) near += "...";
      *error = "line " + std::to_string(line_no) + ", col " + std::to_string(col + 1) + ": " +
               what + (near.empty() ? " at end of line" : " near \"" + near + "\"");
    }
    return std::nullopt;
  };

  std::size_t line_no = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string_view line =
        text.substr(start, nl == std::string_view::npos ? text.size() - start : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    Cursor c{line};
    if (c.done()) continue;  // blank line
    // A line that breaks its builder's precondition is located at its start.
    const auto broken = [&](const char* what) { return fail(line_no, Cursor{line}, what); };

    if (c.eat_word("crash(")) {
      std::uint32_t node = 0;
      Ticks at = 0;
      Ticks recover_at = 0;
      if (!(c.u32(node) && c.eat(',') && c.u64(at) && c.eat(',') && c.u64(recover_at) &&
            c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed crash()");
      }
      if (!window_ok(at, recover_at)) return broken("crash() needs recover_at 0 or past at");
      plan.crash(node, at, recover_at);
    } else if (c.eat_word("flap(")) {
      std::uint32_t node = 0;
      std::uint32_t cycles = 0;
      Ticks begin = 0;
      Ticks down = 0;
      Ticks up = 0;
      if (!(c.u32(node) && c.eat(',') && c.u64(begin) && c.eat(',') && c.u64(down) &&
            c.eat(',') && c.u64(up) && c.eat(',') && c.u32(cycles) && c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed flap()");
      }
      if (!flap_ok(down, up, cycles)) return broken("flap() needs down, up and cycles >= 1");
      plan.flap(node, begin, down, up, cycles);
    } else if (c.eat_word("correlated_outage(")) {
      std::vector<std::uint32_t> nodes;
      Ticks at = 0;
      Ticks duration = 0;
      std::uint32_t strikes = 0;
      Ticks gap = 0;
      if (!(c.list(nodes) && c.eat(',') && c.u64(at) && c.eat(',') && c.u64(duration) &&
            c.eat(',') && c.u32(strikes) && c.eat(',') && c.u64(gap) && c.eat(')') &&
            c.done())) {
        return fail(line_no, c, "malformed correlated_outage()");
      }
      if (!outage_ok(nodes, duration, strikes)) {
        return broken("correlated_outage() needs a node, duration >= 1 and strikes >= 1");
      }
      plan.correlated_outage(std::move(nodes), at, duration, strikes, gap);
    } else if (c.eat_word("partition(")) {
      std::vector<std::vector<std::uint32_t>> groups;
      Ticks at = 0;
      Ticks heal_at = 0;
      if (!(c.group_list(groups) && c.eat(',') && c.u64(at) && c.eat(',') && c.u64(heal_at) &&
            c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed partition()");
      }
      if (!partition_ok(groups, at, heal_at)) {
        return broken("partition() needs 2+ disjoint non-empty groups, heal_at 0 or past at");
      }
      plan.partition(std::move(groups), at, heal_at);
    } else if (c.eat_word("cut_link(")) {
      std::uint32_t a = 0;
      std::uint32_t b = 0;
      Ticks at = 0;
      Ticks heal_at = 0;
      if (!(c.u32(a) && c.eat(',') && c.u32(b) && c.eat(',') && c.u64(at) && c.eat(',') &&
            c.u64(heal_at) && c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed cut_link()");
      }
      if (!cut_link_ok(a, b, at, heal_at)) {
        return broken("cut_link() needs two distinct nodes and heal_at 0 or past at");
      }
      plan.cut_link(a, b, at, heal_at);
    } else if (c.eat_word("loss_episode(")) {
      double probability = 0.0;
      Ticks from = 0;
      Ticks until = 0;
      if (!(c.dbl(probability) && c.eat(',') && c.u64(from) && c.eat(',') && c.u64(until) &&
            c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed loss_episode()");
      }
      if (!loss_episode_ok(probability, from, until)) {
        return broken("loss_episode() needs a probability in [0, 1) and until past from");
      }
      plan.loss_episode(probability, from, until);
    } else if (c.eat_word("byzantine(")) {
      std::uint32_t node = 0;
      std::int32_t behavior = 0;
      Ticks at = 0;
      if (!(c.u32(node) && c.eat(',') && c.eat_word("NodeBehavior(") && c.i32(behavior) &&
            c.eat(')') && c.eat(',') && c.u64(at) && c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed byzantine()");
      }
      plan.byzantine(node, static_cast<overlay::NodeBehavior>(behavior), at);
    } else if (c.eat_word("random_churn(")) {
      std::uint32_t events = 0;
      Ticks from = 0;
      Ticks until = 0;
      Ticks mean_downtime = 0;
      std::uint64_t seed = 0;
      std::vector<std::uint32_t> spare;
      if (!(c.u32(events) && c.eat(',') && c.u64(from) && c.eat(',') && c.u64(until) &&
            c.eat(',') && c.u64(mean_downtime) && c.eat(',') && c.u64(seed) && c.eat(',') &&
            c.list(spare) && c.eat(')') && c.done())) {
        return fail(line_no, c, "malformed random_churn()");
      }
      if (!churn_ok(events, from, until, mean_downtime)) {
        return broken("random_churn() needs events and mean_downtime >= 1, until past from");
      }
      plan.random_churn(events, from, until, mean_downtime, seed, std::move(spare));
    } else {
      c.skip_ws();
      std::size_t end = c.pos;
      while (end < line.size() && line[end] != '(' && line[end] != ' ' && line[end] != '\t') {
        ++end;
      }
      return fail(line_no, c,
                  "unknown builder call \"" + std::string(line.substr(c.pos, end - c.pos)) +
                      "\"");
    }
  }
  return plan;
}

// -- FaultInjector --------------------------------------------------------------------

FaultInjector::FaultInjector(FaultTarget target, FaultPlan plan)
    : target_(std::move(target)), plan_(std::move(plan)) {
  HOURS_EXPECTS(target_.sim != nullptr && target_.node_count > 0);
  HOURS_EXPECTS(target_.kill != nullptr && target_.revive != nullptr);
  down_count_.assign(target_.node_count, 0);
  target_.sim->set_runner(snapshot::kFaultAction,
                          [this](std::uint32_t kind, const std::uint64_t* args,
                                 std::size_t count) {
                            HOURS_EXPECTS(kind == snapshot::kFaultAction && count == 1);
                            apply_planned(static_cast<std::size_t>(args[0]));
                          });
}

bool FaultInjector::held_down(std::uint32_t node) const {
  HOURS_EXPECTS(node < down_count_.size());
  return down_count_[node] > 0;
}

bool FaultInjector::link_severed(std::uint32_t from, std::uint32_t to) const {
  const auto it = link_down_count_.find({from, to});
  return it != link_down_count_.end() && it->second > 0;
}

void FaultInjector::apply_link_down(std::uint32_t a, std::uint32_t b) {
  if (++link_down_count_[{a, b}] == 1) {
    ++stats_.link_cuts;
    HOURS_TRACE_EMIT(trace_, {.at = target_.sim->now(),
                              .type = trace::EventType::kLinkCut,
                              .node = a,
                              .peer = b});
  }
}

void FaultInjector::apply_link_up(std::uint32_t a, std::uint32_t b) {
  const auto it = link_down_count_.find({a, b});
  HOURS_EXPECTS(it != link_down_count_.end() && it->second > 0);
  if (--it->second == 0) {
    link_down_count_.erase(it);
    ++stats_.link_heals;
    HOURS_TRACE_EMIT(trace_, {.at = target_.sim->now(),
                              .type = trace::EventType::kLinkHeal,
                              .node = a,
                              .peer = b});
  }
}

void FaultInjector::apply_down(std::uint32_t node) {
  HOURS_EXPECTS(node < down_count_.size());
  if (++down_count_[node] == 1) {
    target_.kill(node);
    ++stats_.kills;
    HOURS_TRACE_EMIT(trace_, {.at = target_.sim->now(),
                              .type = trace::EventType::kFaultKill,
                              .node = node});
  }
}

void FaultInjector::apply_up(std::uint32_t node) {
  HOURS_EXPECTS(node < down_count_.size());
  HOURS_EXPECTS(down_count_[node] > 0);
  if (--down_count_[node] == 0) {
    target_.revive(node);
    ++stats_.revivals;
    HOURS_TRACE_EMIT(trace_, {.at = target_.sim->now(),
                              .type = trace::EventType::kFaultRevive,
                              .node = node});
  }
}

std::vector<FaultInjector::PlannedAction> FaultInjector::build_schedule(
    const FaultPlan& plan, std::size_t first_loss_slot) const {
  using Kind = PlannedAction::Kind;
  HOURS_EXPECTS(plan.check_nodes(target_.node_count).empty());
  std::vector<PlannedAction> out;
  const auto node_action = [&out](Kind kind, std::uint32_t node, Ticks at) {
    PlannedAction action;
    action.kind = kind;
    action.at = at;
    action.a = node;
    out.push_back(action);
  };
  const auto link_window = [&out](std::uint32_t a, std::uint32_t b, Ticks at, Ticks heal_at) {
    PlannedAction down;
    down.kind = Kind::kLinkDown;
    down.at = at;
    down.a = a;
    down.b = b;
    out.push_back(down);
    if (heal_at != 0) {
      PlannedAction up = down;
      up.kind = Kind::kLinkUp;
      up.at = heal_at;
      out.push_back(up);
    }
  };

  for (const auto& spec : plan.crashes_) {
    node_action(Kind::kDown, spec.node, spec.at);
    if (spec.recover_at != 0) node_action(Kind::kUp, spec.node, spec.recover_at);
  }

  for (const auto& spec : plan.flaps_) {
    const Ticks cycle = spec.down + spec.up;
    for (std::uint32_t c = 0; c < spec.cycles; ++c) {
      node_action(Kind::kDown, spec.node, spec.start + c * cycle);
      node_action(Kind::kUp, spec.node, spec.start + c * cycle + spec.down);
    }
  }

  for (const auto& spec : plan.outages_) {
    for (std::uint32_t s = 0; s < spec.strikes; ++s) {
      const Ticks base = spec.at + s * (spec.duration + spec.strike_gap);
      for (const auto node : spec.nodes) {
        node_action(Kind::kDown, node, base);
        node_action(Kind::kUp, node, base + spec.duration);
      }
    }
  }

  for (const auto& spec : plan.partitions_) {
    for (std::size_t g = 0; g < spec.groups.size(); ++g) {
      for (std::size_t h = g + 1; h < spec.groups.size(); ++h) {
        for (const auto a : spec.groups[g]) {
          for (const auto b : spec.groups[h]) link_window(a, b, spec.at, spec.heal_at);
        }
      }
    }
  }

  for (const auto& spec : plan.cut_links_) {
    link_window(spec.a, spec.b, spec.at, spec.heal_at);
  }

  for (std::size_t slot = 0; slot < plan.loss_episodes_.size(); ++slot) {
    const auto& spec = plan.loss_episodes_[slot];
    PlannedAction set;
    set.kind = Kind::kLossSet;
    set.at = spec.from;
    set.probability = spec.probability;
    set.slot = first_loss_slot + slot;
    out.push_back(set);
    PlannedAction restore;
    restore.kind = Kind::kLossRestore;
    restore.at = spec.until;
    restore.slot = first_loss_slot + slot;
    out.push_back(restore);
  }

  for (const auto& spec : plan.byzantine_) {
    PlannedAction action;
    action.kind = Kind::kBehavior;
    action.at = spec.at;
    action.a = spec.node;
    action.behavior = spec.behavior;
    out.push_back(action);
  }

  for (const auto& spec : plan.churn_) {
    rng::Xoshiro256 rng{spec.seed};
    for (std::uint32_t e = 0; e < spec.events; ++e) {
      std::uint32_t node = 0;
      do {
        node = static_cast<std::uint32_t>(rng.below(target_.node_count));
      } while (std::find(spec.spare.begin(), spec.spare.end(), node) != spec.spare.end());
      const Ticks at = spec.from + rng.below(spec.until - spec.from);
      const Ticks downtime = spec.mean_downtime / 2 + rng.below(spec.mean_downtime);
      node_action(Kind::kDown, node, at);
      node_action(Kind::kUp, node, at + downtime);
    }
  }

  return out;
}

void FaultInjector::apply_planned(std::size_t index) {
  HOURS_EXPECTS(index < schedule_.size());
  const PlannedAction& action = schedule_[index];
  switch (action.kind) {
    case PlannedAction::Kind::kDown:
      apply_down(action.a);
      break;
    case PlannedAction::Kind::kUp:
      apply_up(action.a);
      break;
    case PlannedAction::Kind::kLinkDown:
      // Both directions: a partitioned pair exchanges nothing either way.
      apply_link_down(action.a, action.b);
      apply_link_down(action.b, action.a);
      break;
    case PlannedAction::Kind::kLinkUp:
      apply_link_up(action.a, action.b);
      apply_link_up(action.b, action.a);
      break;
    case PlannedAction::Kind::kLossSet:
      // The restore value is whatever rate is in force when the episode
      // starts, so stacked episodes unwind in order.
      loss_saved_[action.slot] = target_.loss();
      target_.set_loss(action.probability);
      ++stats_.loss_changes;
      HOURS_TRACE_EMIT(trace_,
                       {.at = target_.sim->now(),
                        .type = trace::EventType::kLossChange,
                        .value = static_cast<std::uint64_t>(action.probability * 1e6)});
      break;
    case PlannedAction::Kind::kLossRestore:
      target_.set_loss(loss_saved_[action.slot]);
      ++stats_.loss_changes;
      HOURS_TRACE_EMIT(
          trace_, {.at = target_.sim->now(),
                   .type = trace::EventType::kLossChange,
                   .value = static_cast<std::uint64_t>(loss_saved_[action.slot] * 1e6)});
      break;
    case PlannedAction::Kind::kBehavior:
      target_.set_behavior(action.a, action.behavior);
      ++stats_.behavior_changes;
      HOURS_TRACE_EMIT(trace_, {.at = target_.sim->now(),
                                .type = trace::EventType::kBehaviorChange,
                                .node = action.a,
                                .value = static_cast<std::uint64_t>(action.behavior)});
      break;
  }
}

void FaultInjector::install_link_filter() {
  HOURS_EXPECTS(target_.set_link_filter != nullptr);
  if (link_filter_installed_) return;  // one filter serves every plan
  link_filter_installed_ = true;
  // The injector owns the refcounted link state; the transport consults
  // it on every delivery. (The injector must outlive the run anyway.)
  target_.set_link_filter([this](std::uint32_t from, std::uint32_t to) {
    return !link_severed(from, to);
  });
}

void FaultInjector::arm() {
  HOURS_EXPECTS(!armed_);
  armed_ = true;
  schedule_plan(plan_);
}

void FaultInjector::add(const FaultPlan& plan) {
  HOURS_EXPECTS(armed_);
  added_plans_ = true;
  schedule_plan(plan);
}

void FaultInjector::schedule_plan(const FaultPlan& plan) {
  if (plan.needs_loss_hooks()) {
    HOURS_EXPECTS(target_.set_loss != nullptr && target_.loss != nullptr);
  }
  if (plan.needs_behavior_hook()) HOURS_EXPECTS(target_.set_behavior != nullptr);
  if (plan.needs_link_hook()) install_link_filter();

  const std::size_t first = schedule_.size();
  auto actions = build_schedule(plan, loss_saved_.size());
  schedule_.insert(schedule_.end(), actions.begin(), actions.end());
  loss_saved_.resize(loss_saved_.size() + plan.loss_episodes_.size(), 0.0);
  for (std::size_t i = first; i < schedule_.size(); ++i) {
    const std::uint64_t index = i;
    target_.sim->schedule(schedule_[i].at, snapshot::kFaultAction, &index, 1);
  }
}

// -- snapshot (snapshot::Participant) ------------------------------------------------

snapshot::Json FaultInjector::save_state(std::string& error) const {
  using snapshot::Json;
  // The section echoes one plan; actions of added plans have no place in it.
  if (added_plans_) {
    error = "injector holds plans added after arm() (unserializable)";
    return Json::object();
  }
  Json out = Json::object();
  out["armed"] = Json(static_cast<std::uint64_t>(armed_ ? 1 : 0));
  out["plan"] = Json(plan_.describe());
  Json down = Json::array();
  for (const auto count : down_count_) down.push(Json(static_cast<std::uint64_t>(count)));
  out["down_count"] = std::move(down);
  Json links = Json::array();
  for (const auto& [pair, count] : link_down_count_) {
    Json row = Json::array();
    row.push(Json(static_cast<std::uint64_t>(pair.first)));
    row.push(Json(static_cast<std::uint64_t>(pair.second)));
    row.push(Json(static_cast<std::uint64_t>(count)));
    links.push(std::move(row));
  }
  out["links"] = std::move(links);
  Json loss = Json::array();
  for (const auto saved : loss_saved_) loss.push(Json(snapshot::bits_from_double(saved)));
  out["loss_saved"] = std::move(loss);
  Json stats = Json::object();
  stats["kills"] = Json(stats_.kills);
  stats["revivals"] = Json(stats_.revivals);
  stats["link_cuts"] = Json(stats_.link_cuts);
  stats["link_heals"] = Json(stats_.link_heals);
  stats["loss_changes"] = Json(stats_.loss_changes);
  stats["behavior_changes"] = Json(stats_.behavior_changes);
  out["stats"] = std::move(stats);
  return out;
}

std::string FaultInjector::restore_state(const snapshot::Json& state) {
  std::string error;
  const snapshot::Reader in{state, "faults", error};
  if (armed_) {
    in.reject("restore requires a freshly constructed (un-armed) injector");
    return error;
  }
  if (const snapshot::Reader plan = in.field("plan"); plan.str() != plan_.describe()) {
    plan.fail("does not match this injector's plan");
  }
  const bool armed = in.field("armed").flag();
  const snapshot::Reader down = in.field("down_count");
  for (std::size_t i = 0; i < down.size(down_count_.size()); ++i) {
    down_count_[i] = down.at(i).u32();
  }
  link_down_count_.clear();
  const snapshot::Reader links = in.field("links");
  for (std::size_t l = 0; l < links.size(); ++l) {
    const snapshot::Reader row = links.at(l);
    (void)row.size(3);
    link_down_count_[{row.at(0).u32(), row.at(1).u32()}] = row.at(2).u32();
  }
  loss_saved_.assign(plan_.loss_episodes_.size(), 0.0);
  const snapshot::Reader loss = in.field("loss_saved");
  for (std::size_t i = 0; i < loss.size(loss_saved_.size()); ++i) {
    loss_saved_[i] = loss.at(i).bits();
    if (!is_loss_probability(loss_saved_[i])) loss.at(i).fail("is not a rate in [0, 1)");
  }
  const snapshot::Reader stats = in.field("stats");
  stats_.kills = stats.field("kills").u64();
  stats_.revivals = stats.field("revivals").u64();
  stats_.link_cuts = stats.field("link_cuts").u64();
  stats_.link_heals = stats.field("link_heals").u64();
  stats_.loss_changes = stats.field("loss_changes").u64();
  stats_.behavior_changes = stats.field("behavior_changes").u64();
  if (!error.empty() || !armed) return error;

  armed_ = true;
  if (plan_.needs_loss_hooks() && (target_.set_loss == nullptr || target_.loss == nullptr)) {
    in.reject("plan needs loss hooks the target does not provide");
  } else if (plan_.needs_behavior_hook() && target_.set_behavior == nullptr) {
    in.reject("plan needs the behavior hook the target does not provide");
  } else if (plan_.needs_link_hook() && target_.set_link_filter == nullptr) {
    in.reject("plan needs the link hook the target does not provide");
  } else {
    if (plan_.needs_link_hook()) install_link_filter();
    schedule_ = build_schedule(plan_, 0);
  }
  return error;
}

bool FaultInjector::owns(std::uint32_t kind) const {
  return snapshot::kind_block(kind) == snapshot::kind_block(snapshot::kFaultAction);
}

}  // namespace hours::sim
