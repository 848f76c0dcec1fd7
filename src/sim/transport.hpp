// Message transport for event-driven protocol simulations.
//
// Wraps the discrete-event Simulator with node-addressed messaging:
// randomized latency, optional message loss, delivery suppression to dead
// nodes, per-link reachability filtering (partitions), and an ack/timeout
// primitive (every non-ack message is acknowledged by the transport before
// the recipient's handler runs, so protocol code expresses "try, and on
// silence do X" directly).
//
// Delivery-time gates, in order: the recipient must be alive, it must not
// have died (even transiently) while the message was in flight, and the
// directed link from the sender must be passable under the installed
// LinkFilter. A failed gate is silence — for acked sends the sender's
// timeout fires, indistinguishable from a crashed peer, which is exactly
// how a severed link or mid-flight restart looks from the outside.
//
// Snapshot integration: the payload codec is a constructor argument, and
// every in-flight message is a described event — (kind, words) copied
// into a reused slab slot, no per-message allocation — decoded at
// execution time by run_described(). The transport claims the transport
// kind block (0x100) on its simulator at construction, so live and
// restored deliveries and ack timeouts run the same code. Every ack
// timeout is a one-word described event. An acked send's ack and timeout
// continuations are described too, run through the simulator's dispatcher
// (kind 0 = none). The transport's state belongs to its owner's snapshot
// section, so a pending continuation outside the owner's blocks (a query
// client's hop) refuses save and restore alike.
//
// Pending acks live in a slab (util/arena.hpp) found by token through a
// flat index (util/flat_index.hpp): a slot's continuation words keep their
// capacity across reuse, so once they have grown to a run's peak an acked
// send allocates nothing. save_state() sorts the live tokens, so the
// pending array stays in ascending token order.
//
// Header-only template: the payload type is supplied by the protocol.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"
#include "snapshot/described.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/json.hpp"
#include "snapshot/participant.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/sink.hpp"
#include "util/arena.hpp"
#include "util/contracts.hpp"
#include "util/flat_index.hpp"

namespace hours::sim {

/// Directed reachability predicate: returns true when messages from `from`
/// can currently reach `to`. Null means full connectivity. Consulted at
/// delivery time, so a link severed while a message is in flight drops it.
using LinkFilter = std::function<bool(std::uint32_t from, std::uint32_t to)>;

struct TransportConfig {
  Ticks latency_min = 10;
  Ticks latency_max = 50;
  Ticks ack_timeout = 250;  ///< must exceed 2 * latency_max (+ loss retries)
  double loss_probability = 0.0;  ///< each transmission dropped i.i.d.
};

template <typename Payload>
class Transport {
 public:
  using Address = std::uint32_t;

  struct Envelope {
    Address from = 0;
    std::uint64_t token = 0;
    Payload payload{};
  };

  /// Invoked for every delivered (non-ack) message at the recipient.
  using Handler = std::function<void(Address to, const Envelope&)>;

  /// Payload <-> u64-word bridges for the described wire form. encode
  /// appends the payload's words to `out` (append form, so the transport
  /// can reuse one scratch buffer across transmissions); decode must invert
  /// exactly what encode appended.
  using Encode = void (*)(const Payload&, std::vector<std::uint64_t>& out);
  using Decode = Payload (*)(const std::uint64_t* words, std::size_t count);

  /// Claims the transport kind block on `sim`, which must not have been
  /// claimed already; the transport must outlive the simulator's use.
  Transport(Simulator& sim, TransportConfig config, std::uint32_t node_count,
            std::uint64_t seed, Encode encode, Decode decode)
      : sim_(sim),
        config_(config),
        alive_(node_count, 1),
        incarnation_(node_count, 0),
        rng_(seed),
        encode_(encode),
        decode_(decode) {
    HOURS_EXPECTS(config_.ack_timeout > 2 * config_.latency_max);
    HOURS_EXPECTS(config_.loss_probability >= 0.0 && config_.loss_probability < 1.0);
    HOURS_EXPECTS(encode_ != nullptr && decode_ != nullptr);
    sim_.set_runner(snapshot::kTransportDelivery,
                    [this](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
                      run_described(kind, args, count);
                    });
  }
  // The simulator's runner points at this transport.
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Appends the digest words a sender piggybacks on a message to `to`
  /// (liveness gossip; may append nothing). Consulted on every successful
  /// transmission, acks included.
  using DigestBuilder =
      std::function<void(Address from, Address to, std::vector<std::uint64_t>& out)>;
  /// Consumes a received digest at the recipient, after the delivery gates
  /// (alive, incarnation, link) pass.
  using DigestApplier = std::function<void(Address to, Address from,
                                           const std::uint64_t* words, std::size_t count)>;

  /// Installs the piggyback seam (digests ride the described wire form as a
  /// trailing [words..., count] frame appended after the payload). Install
  /// both hooks before any traffic is sent and never change them mid-run:
  /// the trailing frame is present on the wire exactly when the hooks are
  /// installed, so flipping them with messages in flight would misparse
  /// those messages. With no hooks installed the wire format is
  /// byte-identical to the pre-digest transport.
  void set_digest_hooks(DigestBuilder build, DigestApplier apply) {
    HOURS_EXPECTS(messages_sent_ == 0);
    digest_build_ = std::move(build);
    digest_apply_ = std::move(apply);
  }

  void set_alive(Address node, bool alive) {
    HOURS_EXPECTS(node < alive_.size());
    // A death — even one followed by a revival before a message lands —
    // voids everything in flight toward the node: the restarted process has
    // no connection state to receive into. Revivals do not bump, so traffic
    // sent while down is deliverable once the node is back.
    if (alive_[node] != 0 && !alive) ++incarnation_[node];
    alive_[node] = alive ? 1 : 0;
  }
  [[nodiscard]] bool alive(Address node) const {
    HOURS_EXPECTS(node < alive_.size());
    return alive_[node] != 0;
  }

  /// Adjusts the loss rate at run time (lossy-link fault episodes). Applies
  /// to transmissions from the next send on; in-flight messages keep the
  /// fate they were already assigned.
  void set_loss_probability(double p) {
    HOURS_EXPECTS(p >= 0.0 && p < 1.0);
    config_.loss_probability = p;
  }
  [[nodiscard]] double loss_probability() const noexcept { return config_.loss_probability; }

  /// Installs (or, with null, clears) the per-link reachability predicate.
  /// The filter must stay valid while any message can still be delivered.
  void set_link_filter(LinkFilter filter) { link_filter_ = std::move(filter); }

  /// Attaches (or, with null, detaches) the trace stream; every suppressed
  /// delivery emits a kDrop event with the DropReason in `value`. The
  /// tracer must outlive in-flight messages.
  void set_tracer(trace::Tracer* tracer) { trace_ = tracer; }

  [[nodiscard]] bool link_passable(Address from, Address to) const {
    return !link_filter_ || link_filter_(from, to);
  }

  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return messages_sent_; }
  [[nodiscard]] std::uint64_t messages_lost() const noexcept { return messages_lost_; }
  /// Deliveries suppressed by the link filter (severed-link drops).
  [[nodiscard]] std::uint64_t messages_link_dropped() const noexcept {
    return messages_link_dropped_;
  }

  /// Fire-and-forget.
  void post(Address from, Address to, Payload payload) {
    Envelope env;
    env.from = from;
    env.payload = std::move(payload);
    transmit(to, std::move(env), /*is_ack=*/false);
  }

  /// Sends and expects a transport-level ack. Exactly one of the
  /// continuations runs, through the simulator's dispatcher: `on_ack` when
  /// the ack lands, `on_timeout` after config().ack_timeout of silence.
  /// Kind kNoContinuation runs nothing. The words are copied.
  void send_expect_ack(Address from, Address to, Payload payload,
                       snapshot::DescribedView on_ack, snapshot::DescribedView on_timeout) {
    const std::uint32_t slot = pending_.allocate();
    Pending& pending = pending_[slot];
    pending.ack_cont.kind = on_ack.kind;
    pending.ack_cont.args.assign(on_ack.args.begin(), on_ack.args.end());
    pending.timeout_cont.kind = on_timeout.kind;
    pending.timeout_cont.args.assign(on_timeout.args.begin(), on_timeout.args.end());
    pending.token = next_token_++;
    Envelope env;
    env.from = from;
    env.token = pending.token;
    env.payload = std::move(payload);
    transmit(to, std::move(env), /*is_ack=*/false);
    pending.timeout_event =
        sim_.schedule(config_.ack_timeout, snapshot::kTransportAckTimeout, &pending.token, 1);
    pending_index_.insert(pending.token, slot);
  }

  // -- snapshot support ---------------------------------------------------------
  /// Serializes transport state (liveness, incarnations, RNG, counters,
  /// pending ack table) for `owner`'s section. Fails — filling `error` —
  /// while a pending continuation lies outside the blocks `owner` owns.
  [[nodiscard]] snapshot::Json save_state(const snapshot::Participant& owner,
                                          std::string& error) const {
    using snapshot::Json;
    // Cold path: collect the live slots and order them by token.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> live;  // (token, slot)
    live.reserve(pending_index_.size());
    for (std::uint32_t slot = 0; slot < pending_.high_water(); ++slot) {
      if (pending_[slot].token != 0) live.emplace_back(pending_[slot].token, slot);
    }
    std::sort(live.begin(), live.end());
    for (const auto& [token, slot] : live) {
      error = check_pending(owner, token, pending_[slot]);
      if (!error.empty()) return Json::object();
    }
    Json out = Json::object();
    out["loss_probability"] = Json(snapshot::bits_from_double(config_.loss_probability));
    Json alive = Json::array();
    for (const auto a : alive_) alive.push(Json(static_cast<std::uint64_t>(a)));
    out["alive"] = std::move(alive);
    Json incarnation = Json::array();
    for (const auto i : incarnation_) incarnation.push(Json(static_cast<std::uint64_t>(i)));
    out["incarnation"] = std::move(incarnation);
    Json rng = Json::array();
    for (const auto word : rng_.state()) rng.push(Json(word));
    out["rng"] = std::move(rng);
    out["next_token"] = Json(next_token_);
    out["messages_sent"] = Json(messages_sent_);
    out["messages_lost"] = Json(messages_lost_);
    out["messages_link_dropped"] = Json(messages_link_dropped_);
    Json pendings = Json::array();
    for (const auto& [token, slot] : live) {
      const Pending& pending = pending_[slot];
      Json entry = Json::array();
      entry.push(Json(token));
      entry.push(Json(pending.timeout_event));
      entry.push(Json(static_cast<std::uint64_t>(pending.ack_cont.kind)));
      entry.push(Json(static_cast<std::uint64_t>(pending.ack_cont.args.size())));
      for (const auto a : pending.ack_cont.args) entry.push(Json(a));
      entry.push(Json(static_cast<std::uint64_t>(pending.timeout_cont.kind)));
      for (const auto a : pending.timeout_cont.args) entry.push(Json(a));
      pendings.push(std::move(entry));
    }
    out["pending"] = std::move(pendings);
    return out;
  }

  /// Restores state saved by save_state() for `owner`'s section, under the
  /// same continuation rule. Does NOT schedule anything — queued deliveries
  /// and timeouts are restored through the simulator's event list. Returns
  /// "" on success.
  [[nodiscard]] std::string restore_state(const snapshot::Participant& owner,
                                          const snapshot::Json& state) {
    const auto* alive = state.find("alive");
    const auto* incarnation = state.find("incarnation");
    const auto* rng = state.find("rng");
    const auto* pending = state.find("pending");
    const auto* loss = state.find("loss_probability");
    if (alive == nullptr || !alive->is_array() || alive->items().size() != alive_.size()) {
      return "transport.alive missing or wrong node count";
    }
    if (incarnation == nullptr || !incarnation->is_array() ||
        incarnation->items().size() != incarnation_.size()) {
      return "transport.incarnation missing or wrong node count";
    }
    if (rng == nullptr || !rng->is_array() || rng->items().size() != 4) {
      return "transport.rng missing or malformed";
    }
    if (pending == nullptr || !pending->is_array()) return "transport.pending missing";
    if (loss == nullptr || !loss->is_u64()) return "transport.loss_probability missing";
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      alive_[i] = static_cast<std::uint8_t>(alive->items()[i].as_u64());
      incarnation_[i] = static_cast<std::uint32_t>(incarnation->items()[i].as_u64());
    }
    rng::Xoshiro256::State words{};
    for (std::size_t i = 0; i < 4; ++i) words[i] = rng->items()[i].as_u64();
    rng_.set_state(words);
    config_.loss_probability = snapshot::double_from_bits(loss->as_u64());
    next_token_ = state.find("next_token") != nullptr ? state.find("next_token")->as_u64() : 1;
    messages_sent_ =
        state.find("messages_sent") != nullptr ? state.find("messages_sent")->as_u64() : 0;
    messages_lost_ =
        state.find("messages_lost") != nullptr ? state.find("messages_lost")->as_u64() : 0;
    messages_link_dropped_ = state.find("messages_link_dropped") != nullptr
                                 ? state.find("messages_link_dropped")->as_u64()
                                 : 0;
    pending_.clear();
    pending_index_.clear();
    for (const auto& raw : pending->items()) {
      if (!raw.is_array() || raw.items().size() < 5) return "transport.pending entry malformed";
      const auto& f = raw.items();
      for (const auto& field : f) {
        if (!field.is_u64()) return "transport.pending entry malformed";
      }
      std::size_t i = 0;
      const std::uint64_t token = f[i++].as_u64();
      if (token == 0 || pending_index_.find(token) != util::FlatIndex::kMissing) {
        return "transport.pending token zero or repeated";
      }
      const std::uint64_t timeout_event = f[i++].as_u64();
      const auto ack_kind = static_cast<std::uint32_t>(f[i++].as_u64());
      const std::uint64_t ack_args = f[i++].as_u64();
      if (ack_args > f.size() - i - 1) return "transport.pending entry truncated";
      const std::uint32_t slot = pending_.allocate();
      Pending& entry = pending_[slot];
      entry.token = token;
      entry.timeout_event = timeout_event;
      entry.ack_cont.kind = ack_kind;
      for (std::uint64_t a = 0; a < ack_args; ++a) entry.ack_cont.args.push_back(f[i++].as_u64());
      entry.timeout_cont.kind = static_cast<std::uint32_t>(f[i++].as_u64());
      for (; i < f.size(); ++i) entry.timeout_cont.args.push_back(f[i].as_u64());
      if (std::string e = check_pending(owner, token, entry); !e.empty()) return "transport." + e;
      pending_index_.insert(token, slot);
    }
    return "";
  }

  /// Executes one transport-owned described event: decodes a delivery at
  /// execution time or fires an ack timeout. The runner this transport
  /// claims on its simulator — live and restored events alike.
  void run_described(std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
    if (kind == snapshot::kTransportAckTimeout) {
      HOURS_EXPECTS(count == 1);
      settle(args[0], /*acked=*/false);
      return;
    }
    HOURS_EXPECTS(kind == snapshot::kTransportDelivery);
    HOURS_EXPECTS(count >= 5);
    const Address to = static_cast<Address>(args[0]);
    Envelope env;
    env.from = static_cast<Address>(args[1]);
    env.token = args[2];
    const auto sent_incarnation = static_cast<std::uint32_t>(args[3]);
    const bool is_ack = args[4] != 0;
    std::size_t payload_words = count - 5;
    const std::uint64_t* digest = nullptr;
    std::size_t digest_words = 0;
    if (digest_build_ || digest_apply_) {
      // Hooks installed: the tail is [payload..., digest..., digest_len].
      HOURS_EXPECTS(count >= 6);
      digest_words = static_cast<std::size_t>(args[count - 1]);
      HOURS_EXPECTS(digest_words + 6 <= count);
      payload_words = count - 6 - digest_words;
      digest = args + 5 + payload_words;
    }
    env.payload = decode_(args + 5, payload_words);
    deliver(to, std::move(env), sent_incarnation, is_ack, digest, digest_words);
  }

 private:
  /// One outstanding acked send. A free slab slot has token 0 and no
  /// continuations; their argument vectors keep their capacity.
  struct Pending {
    std::uint64_t token = 0;
    snapshot::Described ack_cont;
    snapshot::Described timeout_cont;
    std::uint64_t timeout_event = 0;
  };

  /// "" when each continuation of `pending` is none, or lies in a block
  /// `owner` owns with the argument words its kind takes. Save and restore
  /// share this rule.
  [[nodiscard]] static std::string check_pending(const snapshot::Participant& owner,
                                                 std::uint64_t token, const Pending& pending) {
    for (const snapshot::Described* cont : {&pending.ack_cont, &pending.timeout_cont}) {
      if (cont->kind == snapshot::kNoContinuation && cont->args.empty()) continue;
      const std::string where = "pending ack token " + std::to_string(token) + ": continuation ";
      if (!owner.owns(cont->kind)) {
        return where + snapshot::kind_label(cont->kind) +
               " lies outside the event blocks of section \"" + owner.section() + "\"";
      }
      std::string e = snapshot::check_event_args(cont->kind, cont->args.size());
      if (!e.empty()) return where + e;
    }
    return "";
  }

  /// Settles `token` with its ack (true) or timeout continuation: unindexes
  /// it, runs the continuation from its slot, then frees the slot. The slot
  /// stays taken during the call, so sends the continuation starts land
  /// elsewhere; its token is already 0, so a save from inside the call
  /// skips it.
  void settle(std::uint64_t token, bool acked) {
    const std::uint32_t slot = pending_index_.erase(token);
    if (slot == util::FlatIndex::kMissing) return;  // already settled
    Pending& pending = pending_[slot];
    pending.token = 0;
    if (acked) sim_.cancel(pending.timeout_event);
    const snapshot::Described& cont = acked ? pending.ack_cont : pending.timeout_cont;
    if (cont.kind != snapshot::kNoContinuation) {
      sim_.dispatch(cont.kind, cont.args.data(), cont.args.size());
    }
    pending.ack_cont.kind = snapshot::kNoContinuation;
    pending.ack_cont.args.clear();
    pending.timeout_cont.kind = snapshot::kNoContinuation;
    pending.timeout_cont.args.clear();
    pending_.release(slot);
  }

  [[nodiscard]] Ticks draw_latency() {
    return config_.latency_min + rng_.below(config_.latency_max - config_.latency_min + 1);
  }

  void drop(Address to, Address from, trace::DropReason reason) {
    HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                              .type = trace::EventType::kDrop,
                              .node = to,
                              .peer = from,
                              .value = static_cast<std::uint64_t>(reason)});
  }

  /// Executes one decoded delivery through the delivery-time gates.
  void deliver(Address to, Envelope env, std::uint32_t sent_incarnation, bool is_ack,
               const std::uint64_t* digest, std::size_t digest_words) {
    if (!alive(to)) {  // shut-down servers receive nothing
      drop(to, env.from, trace::DropReason::kDeadRecipient);
      return;
    }
    // Recipient died mid-flight (possibly reviving since): suppressed.
    if (incarnation_[to] != sent_incarnation) {
      drop(to, env.from, trace::DropReason::kMidFlightDeath);
      return;
    }
    if (!link_passable(env.from, to)) {  // severed link: silence, not loss
      ++messages_link_dropped_;
      drop(to, env.from, trace::DropReason::kSeveredLink);
      return;
    }
    // Any message that passed the gates carries its sender's suspicion
    // digest — evidence spreads on acks and forwarding traffic alike.
    if (digest_apply_ && digest_words != 0) {
      digest_apply_(to, env.from, digest, digest_words);
    }
    if (is_ack) {
      settle(env.token, /*acked=*/true);  // a no-op once its timeout fired
      return;
    }
    if (env.token != 0) {
      Envelope ack;
      ack.from = to;
      ack.token = env.token;
      transmit(env.from, std::move(ack), /*is_ack=*/true);
    }
    if (handler_) handler_(to, env);
  }

  void transmit(Address to, Envelope env, bool is_ack) {
    ++messages_sent_;
    if (config_.loss_probability > 0.0 && rng_.bernoulli(config_.loss_probability)) {
      ++messages_lost_;
      drop(to, env.from, trace::DropReason::kLoss);
      return;
    }
    const Ticks latency = draw_latency();
    // Header + payload words into the reused scratch buffer, copied by the
    // simulator into a reused slab slot; run_described() decodes them.
    scratch_args_.clear();
    scratch_args_.push_back(to);
    scratch_args_.push_back(env.from);
    scratch_args_.push_back(env.token);
    scratch_args_.push_back(incarnation_[to]);
    scratch_args_.push_back(is_ack ? 1 : 0);
    encode_(env.payload, scratch_args_);
    if (digest_build_ || digest_apply_) {
      const std::size_t base = scratch_args_.size();
      if (digest_build_) digest_build_(env.from, to, scratch_args_);
      scratch_args_.push_back(scratch_args_.size() - base);
    }
    sim_.schedule(latency, snapshot::kTransportDelivery, scratch_args_.data(),
                  scratch_args_.size());
  }

  Simulator& sim_;
  TransportConfig config_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> incarnation_;  ///< bumped on each alive->dead flip
  rng::Xoshiro256 rng_;
  Handler handler_;
  Encode encode_;
  Decode decode_;
  DigestBuilder digest_build_;
  DigestApplier digest_apply_;
  LinkFilter link_filter_;
  trace::Tracer* trace_ = nullptr;
  std::uint64_t next_token_ = 1;
  std::vector<std::uint64_t> scratch_args_;  ///< reused per-transmit encode buffer
  /// Acks in flight are few next to queued events: small chunks keep an
  /// idle transport's first chunk (value-initialized) to ~40 KB.
  util::Slab<Pending> pending_{256};
  util::FlatIndex pending_index_;  ///< token -> pending_ slot (tokens start at 1)
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_lost_ = 0;
  std::uint64_t messages_link_dropped_ = 0;
};

}  // namespace hours::sim
