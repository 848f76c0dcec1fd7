// The event-simulation message transport: latency, acks, timeouts, loss,
// and dead-node suppression.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rng/xoshiro256.hpp"
#include "sim/transport.hpp"
#include "snapshot/described.hpp"

namespace hours::sim {
namespace {

struct Payload {
  std::string text;
};

struct Fixture {
  Simulator sim;
  TransportConfig cfg;
  // 4 nodes, default timing.
  Transport<Payload> transport{sim, cfg, 4, /*seed=*/7};
  std::vector<std::pair<std::uint32_t, std::string>> received;

  Fixture() {
    transport.set_handler([this](std::uint32_t to, const Transport<Payload>::Envelope& env) {
      received.emplace_back(to, env.payload.text);
    });
  }
};

TEST(Transport, PostDeliversWithinLatencyBounds) {
  Fixture f;
  f.transport.post(0, 1, {"hello"});
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1U);
  EXPECT_EQ(f.received[0].first, 1U);
  EXPECT_EQ(f.received[0].second, "hello");
  EXPECT_GE(f.sim.now(), f.cfg.latency_min);
  EXPECT_LE(f.sim.now(), f.cfg.latency_max);
}

TEST(Transport, DeadNodeReceivesNothing) {
  Fixture f;
  f.transport.set_alive(2, false);
  f.transport.post(0, 2, {"void"});
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
}

TEST(Transport, AckFiresOnDelivery) {
  Fixture f;
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"ping"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.run();
  EXPECT_TRUE(acked);
  EXPECT_FALSE(timed_out);
  ASSERT_EQ(f.received.size(), 1U);  // handler still runs at the receiver
}

TEST(Transport, TimeoutFiresForDeadTarget) {
  Fixture f;
  f.transport.set_alive(3, false);
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 3, {"ping"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.run();
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);
  EXPECT_GE(f.sim.now(), f.cfg.ack_timeout);
}

TEST(Transport, ExactlyOneOfAckOrTimeout) {
  Fixture f;
  int outcomes = 0;
  for (std::uint32_t to : {1U, 2U, 3U}) {
    f.transport.send_expect_ack(0, to, {"x"}, [&] { ++outcomes; }, [&] { ++outcomes; });
  }
  f.transport.set_alive(2, false);
  f.sim.run();
  EXPECT_EQ(outcomes, 3);
}

TEST(Transport, TotalLossAlwaysTimesOut) {
  Simulator sim;
  TransportConfig cfg;
  cfg.loss_probability = 0.95;
  Transport<Payload> transport{sim, cfg, 2, 7};
  transport.set_handler([](std::uint32_t, const Transport<Payload>::Envelope&) {});
  int timeouts = 0;
  int acks = 0;
  for (int i = 0; i < 100; ++i) {
    transport.send_expect_ack(0, 1, {"x"}, [&] { ++acks; }, [&] { ++timeouts; });
  }
  sim.run();
  EXPECT_EQ(acks + timeouts, 100);
  EXPECT_GT(timeouts, 80);  // ~0.95 + 0.05*0.95 of attempts lose msg or ack
  EXPECT_GT(transport.messages_lost(), 80U);
}

TEST(Transport, LossZeroLosesNothing) {
  Fixture f;
  for (int i = 0; i < 50; ++i) f.transport.post(0, 1, {"n"});
  f.sim.run();
  EXPECT_EQ(f.received.size(), 50U);
  EXPECT_EQ(f.transport.messages_lost(), 0U);
}

TEST(Transport, MessageCounterIncludesAcks) {
  Fixture f;
  f.transport.send_expect_ack(0, 1, {"ping"}, nullptr, nullptr);
  f.sim.run();
  EXPECT_EQ(f.transport.messages_sent(), 2U);  // message + ack
}

// -- ack-vs-timeout races (regression pins) -----------------------------------------
//
// Deterministic timing: latency fixed at 10, so a message lands at t=10 and
// its ack returns at t=20; the timeout arms at t=25.
struct RaceFixture {
  Simulator sim;
  Transport<Payload> transport;
  std::vector<std::uint32_t> received;

  RaceFixture() : transport{sim, make_cfg(), 4, /*seed=*/7} {
    transport.set_handler([this](std::uint32_t to, const Transport<Payload>::Envelope&) {
      received.push_back(to);
    });
  }
  static TransportConfig make_cfg() {
    TransportConfig c;
    c.latency_min = 10;
    c.latency_max = 10;
    c.ack_timeout = 25;
    return c;
  }
};

TEST(TransportRace, ReceiverDyingWithAckInFlightStillAcks) {
  // B processes the message at t=10 and dies at t=15 with its ack already in
  // flight. The ack lands anyway: only the *recipient's* liveness gates
  // delivery, and an ack's recipient is the (alive) sender. Pinned: the
  // sender rightly learns its message WAS processed before the death.
  RaceFixture f;
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.schedule(15, [&] { f.transport.set_alive(1, false); });
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1U);  // handler ran before the death
  EXPECT_TRUE(acked);
  EXPECT_FALSE(timed_out);
}

TEST(TransportRace, SenderDyingBeforeAckReturnsGetsTimeoutCallback) {
  // A sends at t=0 and dies at t=15; B's ack reaches A's address at t=20 but
  // is suppressed (dead nodes receive nothing), so the timeout fires at
  // t=25. Pinned: callbacks are engine-level and still run for a dead
  // sender — protocol code must guard with its own liveness check, exactly
  // as ring_protocol's handlers do.
  RaceFixture f;
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.schedule(15, [&] { f.transport.set_alive(0, false); });
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1U);  // B processed the message normally
  EXPECT_FALSE(acked);               // the ack was suppressed at the dead sender
  EXPECT_TRUE(timed_out);            // silence is reported despite the death
  EXPECT_EQ(f.sim.now(), 25U);
}

TEST(TransportRace, RevivedSenderDoesNotReceiveStaleAck) {
  // The suppressed ack is gone for good: reviving A after the ack's arrival
  // instant must not resurrect it, and the timeout outcome stands.
  RaceFixture f;
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.schedule(15, [&] { f.transport.set_alive(0, false); });
  f.sim.schedule(22, [&] { f.transport.set_alive(0, true); });
  f.sim.run();
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);
}

TEST(TransportRace, MessageInFlightWhenReceiverDiesIsSuppressedDespiteRevival) {
  // A sends at t=0 (arrival t=10); B dies at t=3 and is back up at t=6. The
  // restarted process has no connection state for traffic addressed to its
  // previous life: the message must NOT be delivered, and the sender's
  // timeout fires. Pinned: death *between send and delivery* voids the
  // message even when the node is alive again at the arrival instant.
  RaceFixture f;
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.schedule(3, [&] { f.transport.set_alive(1, false); });
  f.sim.schedule(6, [&] { f.transport.set_alive(1, true); });
  f.sim.run();
  EXPECT_TRUE(f.received.empty());  // never delivered
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(f.sim.now(), 25U);
}

TEST(TransportRace, MessageSentWhileReceiverDownDeliversAfterRevival) {
  // The converse ordering: B is down for [0, 6) and the message arrives at
  // t=10 into B's *current* life — it was never in flight across a death,
  // so it is delivered normally. Pinned together with the test above: what
  // matters is whether a death separates send from delivery, not whether
  // the node was ever down in between.
  RaceFixture f;
  f.transport.set_alive(1, false);
  f.transport.post(0, 1, {"x"});
  f.sim.schedule(6, [&] { f.transport.set_alive(1, true); });
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1U);
}

TEST(TransportRace, DeathAfterDeliveryDoesNotRetractIt) {
  // Delivery at t=10, death at t=12: the handler already ran and the ack is
  // already in flight; both stand.
  RaceFixture f;
  bool acked = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, nullptr);
  f.sim.schedule(12, [&] { f.transport.set_alive(1, false); });
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1U);
  EXPECT_TRUE(acked);
}

// -- link-level reachability (partitions) -------------------------------------------

TEST(TransportLink, SeveredLinkSurfacesAsAckTimeoutNotLoss) {
  RaceFixture f;
  f.transport.set_link_filter([](std::uint32_t from, std::uint32_t to) {
    return !(from == 0 && to == 1);
  });
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.run();
  EXPECT_TRUE(f.received.empty());
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);  // silence, exactly like a dead peer
  EXPECT_EQ(f.transport.messages_lost(), 0U);  // not accounted as stochastic loss
  EXPECT_EQ(f.transport.messages_link_dropped(), 1U);
}

TEST(TransportLink, AsymmetricCutBlocksTheAckDirection) {
  // Only B->A is severed: the message reaches B (handler runs) but B's ack
  // cannot return, so the sender still observes silence. One-way
  // reachability is indistinguishable from a partition to the sender.
  RaceFixture f;
  f.transport.set_link_filter([](std::uint32_t from, std::uint32_t to) {
    return !(from == 1 && to == 0);
  });
  bool acked = false;
  bool timed_out = false;
  f.transport.send_expect_ack(0, 1, {"x"}, [&] { acked = true; }, [&] { timed_out = true; });
  f.sim.run();
  EXPECT_EQ(f.received.size(), 1U);  // delivered to B
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(f.transport.messages_link_dropped(), 1U);  // the ack
}

TEST(TransportLink, FilterIsConsultedAtDeliveryTime) {
  // The link is cut at t=5 while the message (arrival t=10) is in flight:
  // it is dropped. A second message sent after the cut lifts (t=20) sails
  // through. Pinned: reachability is evaluated when the message lands, not
  // when it is sent.
  RaceFixture f;
  bool blocked = false;
  f.transport.set_link_filter(
      [&blocked](std::uint32_t, std::uint32_t) { return !blocked; });
  f.transport.post(0, 1, {"early"});
  f.sim.schedule(5, [&] { blocked = true; });
  f.sim.schedule(20, [&] {
    blocked = false;
    f.transport.post(0, 1, {"late"});
  });
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1U);
  EXPECT_EQ(f.received[0], 1U);
  EXPECT_EQ(f.transport.messages_link_dropped(), 1U);
}

TEST(TransportRace, AckAlwaysBeatsTimeoutWhenDelivered) {
  // The config contract ack_timeout > 2 * latency_max exists precisely so a
  // delivered message's ack precedes its timeout; pin it across many sends
  // with randomized latencies.
  Fixture f;
  int acks = 0;
  int timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    f.transport.send_expect_ack(0, 1 + static_cast<std::uint32_t>(i % 3), {"x"},
                                [&] { ++acks; }, [&] { ++timeouts; });
  }
  f.sim.run();
  EXPECT_EQ(acks, 200);
  EXPECT_EQ(timeouts, 0);
}

TEST(TransportPending, ThousandsOutstandingSettleOnceAndSaveInTokenOrder) {
  // 3,000 acked sends are outstanding at once, then more are sent while
  // acks, losses, deaths and timeouts of the earlier ones interleave, so
  // pending slots are reused out of token order. Every send must fire
  // exactly one callback, and every save lists the outstanding tokens in
  // ascending order.
  Simulator sim;
  TransportConfig cfg;
  cfg.loss_probability = 0.1;
  Transport<Payload> transport{sim, cfg, 8, /*seed=*/23};
  transport.set_handler([](std::uint32_t, const Transport<Payload>::Envelope&) {});
  constexpr std::uint32_t kAcked = 1;
  constexpr std::uint32_t kTimedOut = 2;
  std::vector<int> fired;
  std::uint64_t timeouts = 0;
  transport.set_continuation_runner([&](const snapshot::Described& cont) {
    ASSERT_EQ(cont.args.size(), 1U);
    ++fired[cont.args[0]];
    if (cont.kind == kTimedOut) ++timeouts;
  });
  rng::Xoshiro256 rng{0x70CE75ULL};
  const auto send = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t index = fired.size();
      fired.push_back(0);
      const auto to = static_cast<std::uint32_t>(1 + rng.below(7));
      transport.send_expect_ack(0, to, {"x"}, snapshot::Described{kAcked, {index}},
                                snapshot::Described{kTimedOut, {index}});
    }
  };
  const auto expect_token_order = [&](std::size_t at_least) {
    std::string error;
    const auto state = transport.save_state(error);
    ASSERT_TRUE(error.empty()) << error;
    const auto& pending = state.find("pending")->items();
    EXPECT_GE(pending.size(), at_least);
    for (std::size_t i = 1; i < pending.size(); ++i) {
      ASSERT_LT(pending[i - 1].items()[0].as_u64(), pending[i].items()[0].as_u64()) << i;
    }
  };

  send(3'000);
  expect_token_order(3'000);
  for (int round = 0; round < 40; ++round) {
    transport.set_alive(1 + static_cast<std::uint32_t>(rng.below(7)), rng.below(3) != 0);
    sim.run(/*limit=*/1 + rng.below(40));
    send(rng.below(200));
    expect_token_order(1);
  }
  sim.run();
  expect_token_order(0);

  EXPECT_GT(timeouts, 500U);
  EXPECT_LT(timeouts, fired.size() - 500);
  for (std::size_t i = 0; i < fired.size(); ++i) ASSERT_EQ(fired[i], 1) << "send " << i;
}

TEST(TransportPending, RestoreRebuildsTheTableAndRejectsBadTokens) {
  // A restored pending table saves back to the same document; a pending
  // entry with token 0 or a token listed twice is refused.
  const auto make = [](Simulator& sim) {
    Transport<Payload> transport{sim, TransportConfig{}, 4, /*seed=*/5};
    transport.set_continuation_runner([](const snapshot::Described&) {});
    return transport;
  };
  Simulator sim;
  Transport<Payload> transport = make(sim);
  for (std::uint64_t i = 0; i < 40; ++i) {
    transport.send_expect_ack(0, 1 + static_cast<std::uint32_t>(i % 3), {"x"},
                              snapshot::Described{1, {i}}, snapshot::Described{2, {i, i}});
  }
  sim.run(/*limit=*/30);  // some acks landed: the live slots are no longer a prefix
  std::string error;
  const snapshot::Json saved = transport.save_state(error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_GT(saved.find("pending")->items().size(), 0U);

  Simulator other_sim;
  Transport<Payload> restored = make(other_sim);
  ASSERT_EQ(restored.restore_state(saved), "");
  EXPECT_EQ(restored.save_state(error), saved);

  snapshot::Json repeated = saved;
  repeated["pending"].push(repeated["pending"].items().front());
  EXPECT_NE(make(other_sim).restore_state(repeated), "");
  snapshot::Json zero = saved;
  zero["pending"].items().front().items().front() = snapshot::Json(std::uint64_t{0});
  EXPECT_NE(make(other_sim).restore_state(zero), "");
}

}  // namespace
}  // namespace hours::sim
