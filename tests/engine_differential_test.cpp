// Graph-vs-event differential test. With zero loss and the same routing
// tables, the graph engine (hierarchy::Router), the event engine's
// in-network queries (HierarchySimulation::run_query) and client-driven
// queries (QueryClient over make_query_network) all apply Algorithm 3 in
// one order, so they must agree on which queries are delivered and, for a
// delivered query, on its custody path: the nodes that held it, in order.
//
// Seed control, as in the other fuzz harnesses:
//   HOURS_FUZZ_SEEDS=N   sweep seeds 1..N per configuration (default 25)
//   HOURS_FUZZ_SEED=S    run exactly seed S
//
// The ring engine is outside this test: in backward mode it does not
// re-run rule 1 (docs/PROTOCOL.md §7).
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hierarchy/model.hpp"
#include "hierarchy/router.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"
#include "trace/sink.hpp"

namespace hours {
namespace {

using hierarchy::NodePath;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

/// The graph engine's view of the event engine's tables: a uniform-fanout
/// hierarchy whose overlays take HierarchySimulation's per-ring seeds.
class EventSeededHierarchy final : public hierarchy::HierarchyModel {
 public:
  EventSeededHierarchy(std::vector<std::uint32_t> fanout, overlay::OverlayParams params,
                       std::uint64_t seed, bool ring_repaired)
      : fanout_(std::move(fanout)), params_(params), seed_(seed), ring_repaired_(ring_repaired) {}

  std::uint32_t child_count(const NodePath& path) override {
    return path.size() < fanout_.size() ? fanout_[path.size()] : 0;
  }
  overlay::Overlay& overlay_of(const NodePath& path) override {
    auto& slot = overlays_[path];
    if (slot == nullptr) {
      overlay::OverlayParams params = params_;
      params.seed = hierarchy::overlay_seed(seed_, hierarchy::kEventOverlaySalt, path);
      const std::uint32_t grandchildren = child_count(hierarchy::child(path, 0));
      slot = std::make_unique<overlay::Overlay>(
          child_count(path), params, overlay::TableStorage::kEager,
          [grandchildren](ids::RingIndex) { return grandchildren; });
      slot->set_ring_repaired(ring_repaired_);
    }
    return *slot;
  }
  bool root_alive() const noexcept override { return root_alive_; }
  void set_root_alive(bool alive) noexcept override { root_alive_ = alive; }

 private:
  std::vector<std::uint32_t> fanout_;
  overlay::OverlayParams params_;
  std::uint64_t seed_;
  bool ring_repaired_;
  bool root_alive_ = true;
  std::map<NodePath, std::unique_ptr<overlay::Overlay>> overlays_;
};

/// Custody path of an in-network query from its trace: the start, then the
/// peer of every hop that was not followed by a retry for the same
/// (node, peer).
class CustodySink final : public trace::TraceSink {
 public:
  void reset(std::uint32_t start) {
    hops_.assign(1, {start, true});
    pending_.clear();
  }
  void on_event(const trace::Event& e) override {
    const std::uint64_t key = (static_cast<std::uint64_t>(e.node) << 32) | e.peer;
    switch (e.type) {
      case trace::EventType::kHierHop:
      case trace::EventType::kDetourEnter:
      case trace::EventType::kRingHop:
      case trace::EventType::kBackwardHop:
      case trace::EventType::kNephewExit:
        pending_[key] = hops_.size();
        hops_.push_back({e.peer, true});
        break;
      case trace::EventType::kRetry:
        if (const auto it = pending_.find(key); it != pending_.end()) {
          hops_[it->second].held = false;
          pending_.erase(it);
        }
        break;
      default:
        break;
    }
  }
  [[nodiscard]] std::vector<std::uint32_t> path() const {
    std::vector<std::uint32_t> out;
    for (const auto& hop : hops_) {
      if (hop.held) out.push_back(hop.node);
    }
    return out;
  }

 private:
  struct Hop {
    std::uint32_t node;
    bool held;
  };
  std::vector<Hop> hops_;
  std::map<std::uint64_t, std::size_t> pending_;  ///< (node, peer) -> last hop
};

struct Config {
  overlay::Design design;
  bool ring_repaired;
};

std::string config_name(const Config& c) {
  return std::string(c.design == overlay::Design::kBase ? "Base" : "Enhanced") +
         (c.ring_repaired ? "Repaired" : "Unrepaired");
}

void run_seed(const Config& config, std::uint64_t seed) {
  SCOPED_TRACE("reproduce with HOURS_FUZZ_SEED=" + std::to_string(seed));
  rng::Xoshiro256 rng{rng::mix64(0xD1FFULL, seed)};
  const auto between = [&rng](std::uint32_t lo, std::uint32_t hi) {
    return lo + static_cast<std::uint32_t>(rng.below(hi - lo + 1));
  };

  sim::HierarchySimConfig cfg;
  cfg.fanout = {between(12, 41), between(6, 25), between(3, 8)};
  cfg.params.design = config.design;
  cfg.params.k = between(1, 5);
  cfg.params.q = between(1, 4);
  cfg.seed = rng::mix64(0x5EEDULL, seed);
  cfg.assume_ring_repaired = config.ring_repaired;
  SCOPED_TRACE(testing::Message() << "fanout " << cfg.fanout[0] << "x" << cfg.fanout[1] << "x"
                                  << cfg.fanout[2] << " k=" << cfg.params.k
                                  << " q=" << cfg.params.q);

  EventSeededHierarchy model{cfg.fanout, cfg.params, cfg.seed, config.ring_repaired};
  sim::HierarchySimulation in_network{cfg};
  sim::HierarchySimulation client_driven{cfg};
  const auto kill = [&](const NodePath& path) {
    model.kill(path);
    in_network.kill(path);
    client_driven.kill(path);
  };
  // A counter-clockwise block of up to half the children of `parent`,
  // ending at `last`.
  const auto kill_block = [&](const NodePath& parent, std::uint32_t last) {
    const std::uint32_t ring = model.child_count(parent);
    const std::uint32_t length = between(1, ring / 2);
    for (std::uint32_t s = 0; s < length; ++s) {
      kill(hierarchy::child(parent, ids::counter_clockwise_step(last, s, ring)));
    }
  };
  const auto random_level2 = [&] {
    return NodePath{between(0, cfg.fanout[0] - 1), between(0, cfg.fanout[1] - 1)};
  };
  kill_block({}, between(0, cfg.fanout[0] - 1));
  for (int b = 0; b < 3; ++b) {
    const NodePath at = random_level2();
    kill_block({at[0]}, at[1]);
  }
  for (int n = 0; n < 10; ++n) kill(random_level2());

  hierarchy::Router router{model};
  CustodySink sink;
  trace::Tracer tracer;
  tracer.add_sink(&sink);
  in_network.set_tracer(&tracer);

  sim::QueryClientConfig ccfg;
  ccfg.max_retries_per_hop = 0;
  ccfg.deadline = 0;
  ccfg.suspicion_ttl = 0;
  // The client's custody path, read from its attempts: with no retries,
  // an attempt from a node other than the current holder means the
  // previous attempt was acked and custody moved to its sender.
  sim::QueryNetwork net = sim::make_query_network(client_driven);
  std::vector<std::uint32_t> client_path;
  net.attempt = [&client_driven, &client_path](std::uint32_t from, std::uint32_t to,
                                               snapshot::DescribedView on_ack,
                                               snapshot::DescribedView on_timeout) {
    if (from != client_path.back()) client_path.push_back(from);
    client_driven.client_attempt(from, to, on_ack, on_timeout);
  };
  sim::QueryClient client{std::move(net), ccfg};

  for (int i = 0; i < 30; ++i) {
    const NodePath dest{between(0, cfg.fanout[0] - 1), between(0, cfg.fanout[1] - 1),
                        between(0, cfg.fanout[2] - 1)};
    std::uint32_t start = 0;
    if (i % 2 == 1) {
      do {
        start = between(0, in_network.node_count() - 1);
      } while (!in_network.alive_id(start));
    }
    const NodePath start_path = in_network.path_of(start);
    SCOPED_TRACE(testing::Message() << "query " << i << " from " << hierarchy::to_string(start_path)
                                    << " to " << hierarchy::to_string(dest));

    hierarchy::RouteOptions opts;
    opts.record_path = true;
    const auto graph = router.route(dest, opts, hierarchy::StartPoint{start_path});
    std::vector<std::uint32_t> graph_path;
    for (const auto& node : graph.path) graph_path.push_back(in_network.id_of(node));

    sink.reset(start);
    const auto event = in_network.run_query(dest, start_path);
    const auto event_path = sink.path();

    client_path.assign(1, start);
    const auto qid = client.submit(start, in_network.id_of(dest));
    client_driven.simulator().run();
    const bool client_delivered = client.outcome(qid).status == sim::QueryStatus::kDelivered;
    // The final hop's ack settles the query with no attempt after it.
    if (client_delivered && client_path.back() != in_network.id_of(dest)) {
      client_path.push_back(in_network.id_of(dest));
    }

    ASSERT_TRUE(event.done);
    ASSERT_NE(client.outcome(qid).status, sim::QueryStatus::kPending);
    EXPECT_EQ(event.delivered, graph.delivered) << "in-network";
    EXPECT_EQ(client_delivered, graph.delivered) << "client-driven";
    if (graph.delivered) {
      EXPECT_EQ(event_path, graph_path) << "in-network";
      EXPECT_EQ(client_path, graph_path) << "client-driven";
    }
    if (testing::Test::HasFailure()) return;
  }
}

class EngineDifferential : public ::testing::TestWithParam<Config> {};

TEST_P(EngineDifferential, GraphAndEventEnginesShareCustodyPaths) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";
  for (std::uint64_t i = 0; i < count; ++i) {
    run_seed(GetParam(), pinned != 0 ? pinned : i + 1);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, EngineDifferential,
                         ::testing::Values(Config{overlay::Design::kBase, false},
                                           Config{overlay::Design::kBase, true},
                                           Config{overlay::Design::kEnhanced, false},
                                           Config{overlay::Design::kEnhanced, true}),
                         [](const testing::TestParamInfo<Config>& param) {
                           return config_name(param.param);
                         });

}  // namespace
}  // namespace hours
