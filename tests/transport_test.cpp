// The event-simulation message transport: latency, acks, timeouts, loss,
// and dead-node suppression.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rng/xoshiro256.hpp"
#include "sim/transport.hpp"
#include "snapshot/described.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/participant.hpp"
#include "test_events.hpp"

namespace hours::sim {
namespace {

struct Payload {
  std::string text;
};

// The test payload rides the described wire form one character per word.
void encode_text(const Payload& payload, std::vector<std::uint64_t>& out) {
  for (const char c : payload.text) out.push_back(static_cast<unsigned char>(c));
}
Payload decode_text(const std::uint64_t* words, std::size_t count) {
  Payload payload;
  for (std::size_t i = 0; i < count; ++i) payload.text.push_back(static_cast<char>(words[i]));
  return payload;
}

/// The participant a standalone transport's state belongs to. It owns the
/// test continuation block (0xE00, run by the fallback runner), as a
/// protocol owns its own block next to its transport's state.
class BlockOwner : public snapshot::Participant {
 public:
  explicit BlockOwner(std::uint32_t block = 0xE) : block_(block) {}
  [[nodiscard]] std::string section() const override { return "owner"; }
  [[nodiscard]] snapshot::Json save_state(std::string&) const override {
    return snapshot::Json::object();
  }
  [[nodiscard]] std::string restore_state(const snapshot::Json&) override { return ""; }
  [[nodiscard]] bool owns(std::uint32_t kind) const override {
    return snapshot::kind_block(kind) == block_;
  }

 private:
  std::uint32_t block_;
};

/// An owner of the ring block, whose kinds have registered layouts.
class RegisteredOwner : public BlockOwner {
 public:
  RegisteredOwner() : BlockOwner(snapshot::kind_block(snapshot::kRingProbeTimer)) {}
};

constexpr std::uint32_t kAcked = 0xE01;
constexpr std::uint32_t kTimedOut = 0xE02;

struct Fixture {
  Simulator sim;
  TestEvents events{sim};
  TransportConfig cfg;
  // 4 nodes, default timing.
  Transport<Payload> transport{sim, cfg, 4, /*seed=*/7, &encode_text, &decode_text};
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
  f.transport.send_expect_ack(0, 1, {"ping"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
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
  f.transport.send_expect_ack(0, 3, {"ping"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
  f.sim.run();
  EXPECT_FALSE(acked);
  EXPECT_TRUE(timed_out);
  EXPECT_GE(f.sim.now(), f.cfg.ack_timeout);
}

TEST(Transport, ExactlyOneOfAckOrTimeout) {
  Fixture f;
  int outcomes = 0;
  for (std::uint32_t to : {1U, 2U, 3U}) {
    f.transport.send_expect_ack(0, to, {"x"}, f.events.then([&] { ++outcomes; }),
                                f.events.then([&] { ++outcomes; }));
  }
  f.transport.set_alive(2, false);
  f.sim.run();
  EXPECT_EQ(outcomes, 3);
}

TEST(Transport, TotalLossAlwaysTimesOut) {
  Simulator sim;
  TransportConfig cfg;
  cfg.loss_probability = 0.95;
  Transport<Payload> transport{sim, cfg, 2, 7, &encode_text, &decode_text};
  TestEvents events{sim};
  transport.set_handler([](std::uint32_t, const Transport<Payload>::Envelope&) {});
  int timeouts = 0;
  int acks = 0;
  for (int i = 0; i < 100; ++i) {
    transport.send_expect_ack(0, 1, {"x"}, events.then([&] { ++acks; }),
                              events.then([&] { ++timeouts; }));
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
  f.transport.send_expect_ack(0, 1, {"ping"}, {}, {});
  f.sim.run();
  EXPECT_EQ(f.transport.messages_sent(), 2U);  // message + ack
}

// -- ack-vs-timeout races (regression pins) -----------------------------------------
//
// Deterministic timing: latency fixed at 10, so a message lands at t=10 and
// its ack returns at t=20; the timeout arms at t=25.
struct RaceFixture {
  Simulator sim;
  TestEvents events{sim};
  Transport<Payload> transport;
  std::vector<std::uint32_t> received;

  RaceFixture() : transport{sim, make_cfg(), 4, /*seed=*/7, &encode_text, &decode_text} {
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
  f.events.schedule(15, [&] { f.transport.set_alive(1, false); });
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
  f.events.schedule(15, [&] { f.transport.set_alive(0, false); });
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
  f.events.schedule(15, [&] { f.transport.set_alive(0, false); });
  f.events.schedule(22, [&] { f.transport.set_alive(0, true); });
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
  f.events.schedule(3, [&] { f.transport.set_alive(1, false); });
  f.events.schedule(6, [&] { f.transport.set_alive(1, true); });
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
  f.events.schedule(6, [&] { f.transport.set_alive(1, true); });
  f.sim.run();
  ASSERT_EQ(f.received.size(), 1U);
}

TEST(TransportRace, DeathAfterDeliveryDoesNotRetractIt) {
  // Delivery at t=10, death at t=12: the handler already ran and the ack is
  // already in flight; both stand.
  RaceFixture f;
  bool acked = false;
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }), {});
  f.events.schedule(12, [&] { f.transport.set_alive(1, false); });
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
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
  f.transport.send_expect_ack(0, 1, {"x"}, f.events.then([&] { acked = true; }),
                              f.events.then([&] { timed_out = true; }));
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
  f.events.schedule(5, [&] { blocked = true; });
  f.events.schedule(20, [&] {
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
                                f.events.then([&] { ++acks; }),
                                f.events.then([&] { ++timeouts; }));
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
  Transport<Payload> transport{sim, cfg, 8, /*seed=*/23, &encode_text, &decode_text};
  transport.set_handler([](std::uint32_t, const Transport<Payload>::Envelope&) {});
  const BlockOwner owner;
  std::vector<int> fired;
  std::uint64_t timeouts = 0;
  // The continuation kinds sit in no claimed block: the fallback runs them.
  sim.set_runner([&](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
    ASSERT_EQ(count, 1U);
    ++fired[args[0]];
    if (kind == kTimedOut) ++timeouts;
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
    const auto state = transport.save_state(owner, error);
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

/// A transport on its own simulator (each transport claims its simulator's
/// transport block), with a no-op runner for the continuation kinds.
struct StandaloneTransport {
  Simulator sim;
  Transport<Payload> transport{sim, TransportConfig{}, 4, /*seed=*/5, &encode_text,
                               &decode_text};
  StandaloneTransport() {
    sim.set_runner([](std::uint32_t, const std::uint64_t*, std::size_t) {});
  }
};

TEST(TransportPending, RestoreRebuildsTheTableAndRejectsBadTokens) {
  // A restored pending table saves back to the same document; a pending
  // entry with token 0 or a token listed twice is refused.
  const BlockOwner owner;
  StandaloneTransport original;
  for (std::uint64_t i = 0; i < 40; ++i) {
    original.transport.send_expect_ack(0, 1 + static_cast<std::uint32_t>(i % 3), {"x"},
                                       snapshot::Described{kAcked, {i}},
                                       snapshot::Described{kTimedOut, {i, i}});
  }
  original.sim.run(/*limit=*/30);  // some acks landed: the live slots are no longer a prefix
  std::string error;
  const snapshot::Json saved = original.transport.save_state(owner, error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_GT(saved.find("pending")->items().size(), 0U);

  StandaloneTransport restored;
  ASSERT_EQ(restored.transport.restore_state(owner, saved), "");
  EXPECT_EQ(restored.transport.save_state(owner, error), saved);

  snapshot::Json repeated = saved;
  repeated["pending"].push(repeated["pending"].items().front());
  EXPECT_NE(StandaloneTransport{}.transport.restore_state(owner, repeated), "");
  snapshot::Json zero = saved;
  zero["pending"].items().front().items().front() = snapshot::Json(std::uint64_t{0});
  EXPECT_NE(StandaloneTransport{}.transport.restore_state(owner, zero), "");
}

TEST(TransportPending, ContinuationsOutsideTheOwnersBlocksAreRefused) {
  // A pending continuation must run in a block its owning participant owns:
  // save refuses one that does not, naming its token, and restore refuses
  // the same entry written into a document by hand — as it refuses a
  // registered kind short of its argument prefix.
  const BlockOwner owner;
  StandaloneTransport sender;
  const std::uint64_t qid = 5;
  sender.transport.send_expect_ack(0, 1, {"x"}, {snapshot::kClientHopAck, {&qid, 1}},
                                   {snapshot::kClientHopTimeout, {&qid, 1}});
  std::string error;
  (void)sender.transport.save_state(owner, error);
  EXPECT_NE(error.find("pending ack token 1: continuation client_hop_ack"), std::string::npos)
      << error;

  StandaloneTransport original;
  original.transport.send_expect_ack(0, 1, {"x"}, {}, snapshot::Described{kTimedOut, {7}});
  error.clear();
  const snapshot::Json saved = original.transport.save_state(owner, error);
  ASSERT_TRUE(error.empty()) << error;
  // The entry reads [token, timeout_event, ack_kind, 0, timeout_kind, 7].
  snapshot::Json foreign = saved;
  foreign["pending"].items().front().items()[4] = snapshot::Json(std::uint64_t{0x999});
  const std::string refused = StandaloneTransport{}.transport.restore_state(owner, foreign);
  EXPECT_NE(refused.find("pending ack token 1: continuation unregistered kind 2457"),
            std::string::npos)
      << refused;

  const RegisteredOwner ring_block;
  snapshot::Json short_args = saved;
  short_args["pending"].items().front().items()[4] =
      snapshot::Json(std::uint64_t{snapshot::kRingCwProbeTimeout});
  const std::string truncated =
      StandaloneTransport{}.transport.restore_state(ring_block, short_args);
  EXPECT_NE(truncated.find("ring_cw_probe_timeout (514) needs at least 2 argument words"),
            std::string::npos)
      << truncated;
}

}  // namespace
}  // namespace hours::sim
