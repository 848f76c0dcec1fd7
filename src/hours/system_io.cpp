// HoursSystem::save/restore — the facade-level snapshot (docs/PROTOCOL.md
// appendix C, "system" section). See the API comment in hours.hpp for the
// scope and the relationship to the byte-exact sim::Snapshotter layer.
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hours/event_backend.hpp"
#include "hours/hours.hpp"
#include "hours/record_rows.hpp"
#include "snapshot/json.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/registry_io.hpp"
#include "snapshot/snapshot.hpp"

namespace hours {

using snapshot::Json;

Json records_json(const std::vector<store::Record>& records) {
  Json rows = Json::array();
  for (const auto& record : records) {
    Json row = Json::array();
    row.push(Json(record.type));
    row.push(Json(record.value));
    row.push(Json(record.ttl));
    rows.push(std::move(row));
  }
  return rows;
}

std::vector<store::Record> read_records(const snapshot::Reader& rows) {
  std::vector<store::Record> out(rows.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const snapshot::Reader row = rows.at(i);
    (void)row.size(3);
    out[i] = store::Record{row.at(0).str(), row.at(1).str(), row.at(2).u64()};
  }
  return out;
}

namespace {

Json event_backend_config_json(const EventBackendConfig& config) {
  Json out = Json::object();
  Json transport = Json::object();
  transport["latency_min"] = Json(config.transport.latency_min);
  transport["latency_max"] = Json(config.transport.latency_max);
  transport["ack_timeout"] = Json(config.transport.ack_timeout);
  transport["loss_probability"] =
      Json(snapshot::bits_from_double(config.transport.loss_probability));
  out["transport"] = std::move(transport);
  Json client = Json::object();
  client["max_retries_per_hop"] = Json(static_cast<std::uint64_t>(config.client.max_retries_per_hop));
  client["backoff_base"] = Json(config.client.backoff_base);
  client["backoff_cap"] = Json(config.client.backoff_cap);
  client["jitter"] = Json(snapshot::bits_from_double(config.client.jitter));
  client["deadline"] = Json(config.client.deadline);
  client["max_hops"] = Json(static_cast<std::uint64_t>(config.client.max_hops));
  client["suspicion_ttl"] = Json(config.client.suspicion_ttl);
  client["seed"] = Json(config.client.seed);
  out["client"] = std::move(client);
  out["ticks_per_second"] = Json(config.ticks_per_second);
  out["suspicion_ttl"] = Json(config.suspicion_ttl);
  out["assume_ring_repaired"] =
      Json(static_cast<std::uint64_t>(config.assume_ring_repaired ? 1 : 0));
  out["seed"] = Json(config.seed);
  // Gossip mode extends the config, as the ring and hierarchy echoes do;
  // probe-only snapshots keep the legacy byte layout exactly.
  if (config.liveness.mode == liveness::Mode::kGossip) {
    out["liveness_mode"] = Json(std::uint64_t{1});
    out["digest_budget"] = Json(static_cast<std::uint64_t>(config.liveness.digest_budget));
    out["digest_horizon"] = Json(config.liveness.digest_horizon);
  }
  return out;
}

/// The configuration event_backend_config_json() wrote, refusing values an
/// event backend's transport or client would abort on.
EventBackendConfig read_event_backend_config(const snapshot::Reader& in) {
  EventBackendConfig out;
  const snapshot::Reader transport = in.field("transport");
  out.transport.latency_min = transport.field("latency_min").u64();
  out.transport.latency_max = transport.field("latency_max").u64();
  out.transport.ack_timeout = transport.field("ack_timeout").u64();
  out.transport.loss_probability = transport.field("loss_probability").bits();
  if (!out.transport.valid()) transport.fail("is not a configuration a transport accepts");
  const snapshot::Reader client = in.field("client");
  out.client.max_retries_per_hop = client.field("max_retries_per_hop").u32();
  out.client.backoff_base = client.field("backoff_base").u64();
  out.client.backoff_cap = client.field("backoff_cap").u64();
  out.client.jitter = client.field("jitter").bits();
  out.client.deadline = client.field("deadline").u64();
  out.client.max_hops = client.field("max_hops").u32();
  out.client.suspicion_ttl = client.field("suspicion_ttl").u64();
  out.client.seed = client.field("seed").u64();
  if (!out.client.valid()) client.fail("is not a configuration a query client accepts");
  const snapshot::Reader ticks = in.field("ticks_per_second");
  out.ticks_per_second = ticks.u64();
  if (out.ticks_per_second == 0) ticks.fail("must be >= 1");
  out.suspicion_ttl = in.field("suspicion_ttl").u64();
  out.assume_ring_repaired = in.field("assume_ring_repaired").flag();
  out.seed = in.field("seed").u64();
  if (in.has("liveness_mode")) {
    out.liveness.mode = static_cast<liveness::Mode>(in.field("liveness_mode").u64(1));
    out.liveness.digest_budget = in.field("digest_budget").u32();
    out.liveness.digest_horizon = in.field("digest_horizon").u64();
  }
  return out;
}

naming::Name read_name(const snapshot::Reader& in) {
  auto parsed = naming::Name::parse(in.str());
  if (!parsed.ok()) {
    in.reject(parsed.error().message);
    return {};
  }
  return parsed.value();
}

}  // namespace

snapshot::Json HoursSystem::config_json() const {
  Json config = Json::object();
  config["design"] = Json(static_cast<std::uint64_t>(config_.overlay.design));
  config["k"] = Json(static_cast<std::uint64_t>(config_.overlay.k));
  config["q"] = Json(static_cast<std::uint64_t>(config_.overlay.q));
  config["seed"] = Json(config_.overlay.seed);
  config["entrance"] = Json(static_cast<std::uint64_t>(config_.entrance));
  config["bootstrap_cache_size"] = Json(static_cast<std::uint64_t>(config_.bootstrap_cache_size));
  return config;
}

std::string HoursSystem::save_json(snapshot::Json& doc) const {
  doc = snapshot::make_document();
  Json system = Json::object();
  system["config"] = config_json();

  Json members = Json::array();  // rows [name, alive, [secondary parents...]]
  for (const auto& info : hierarchy_.members()) {
    Json row = Json::array();
    row.push(Json(info.name.to_string()));
    row.push(Json(static_cast<std::uint64_t>(info.alive ? 1 : 0)));
    Json secondaries = Json::array();
    for (const auto& parent : info.secondary_parents) secondaries.push(Json(parent.to_string()));
    row.push(std::move(secondaries));
    members.push(std::move(row));
  }
  system["members"] = std::move(members);
  system["root_alive"] = Json(static_cast<std::uint64_t>(hierarchy_.root_alive() ? 1 : 0));

  Json records = Json::array();  // rows [name, [[type, value, ttl]...]], in Name order
  for (const auto& [name, held] : records_.in_name_order()) {
    Json row = Json::array();
    row.push(Json(name.to_string()));
    row.push(records_json(*held));
    records.push(std::move(row));
  }
  system["records"] = std::move(records);

  Json cache = Json::array();  // most recent first, as held
  for (const auto& name : bootstrap_cache_) cache.push(Json(name));
  system["bootstrap_cache"] = std::move(cache);

  Json rng = Json::array();
  for (const auto word : attack_rng_.state()) rng.push(Json(word));
  system["attack_rng"] = std::move(rng);
  Json attacks = Json::array();  // rows [target, [victims...]]
  for (const auto& [target, victims] : active_attacks_) {
    Json row = Json::array();
    row.push(Json(target));
    Json names = Json::array();
    for (const auto& victim : victims) names.push(Json(victim));
    row.push(std::move(names));
    attacks.push(std::move(row));
  }
  system["active_attacks"] = std::move(attacks);

  system["registry"] = snapshot::registry_to_json(registry_);
  system["op_clock"] = Json(op_clock_);
  system["next_qid"] = Json(next_qid_);

  Json backend = Json::object();
  backend["kind"] = Json(std::string(backend_->kind()));
  backend["now"] = Json(backend_->now());
  if (event_backend_ != nullptr) {
    backend["config"] = event_backend_config_json(event_backend_->config());
    Json plans = Json::array();
    for (const auto& plan : event_backend_->plans()) plans.push(Json(plan.describe()));
    backend["plans"] = std::move(plans);
  }
  system["backend"] = std::move(backend);

  doc["sections"]["system"] = std::move(system);
  return "";
}

std::string HoursSystem::save(const std::string& path) const {
  snapshot::Json doc;
  if (std::string error = save_json(doc); !error.empty()) return error;
  return snapshot::write_file(path, doc);
}

std::string HoursSystem::restore_json(const snapshot::Json& doc) {
  if (std::string error = snapshot::validate_document(doc); !error.empty()) return error;
  std::string error;
  const snapshot::Reader in =
      snapshot::Reader{doc, "snapshot", error}.field("sections").section("system");
  if (const snapshot::Reader config = in.field("config"); !config.matches(config_json())) {
    config.fail("does not match this system's configuration");
  }
  if (!error.empty()) return error;
  if (hierarchy_.node_count() != 0 || records_.total_records() != 0) {
    return "restore requires a freshly constructed system";
  }

  // Membership, two passes: primary admissions in saved (pre-order) order,
  // then mesh registrations — a secondary parent may appear later in
  // pre-order than the node registering it.
  struct SavedMember {
    naming::Name name;
    bool alive = true;
    std::vector<naming::Name> secondary_parents;
  };
  const snapshot::Reader members = in.field("members");  // rows [name, alive, [parents...]]
  std::vector<SavedMember> saved(members.size());
  for (std::size_t i = 0; i < saved.size(); ++i) {
    const snapshot::Reader row = members.at(i);
    (void)row.size(3);
    saved[i].name = read_name(row.at(0));
    saved[i].alive = row.at(1).flag();
    const snapshot::Reader parents = row.at(2);
    for (std::size_t p = 0; p < parents.size(); ++p) {
      saved[i].secondary_parents.push_back(read_name(parents.at(p)));
    }
  }
  if (!error.empty()) return error;
  for (const auto& member : saved) {
    if (auto admitted = hierarchy_.admit(member.name); !admitted.ok()) {
      return "system.members: " + admitted.error().message;
    }
  }
  for (const auto& member : saved) {
    for (const auto& parent : member.secondary_parents) {
      if (auto linked = hierarchy_.admit_secondary(member.name, parent); !linked.ok()) {
        return "system.members: " + linked.error().message;
      }
    }
  }
  for (const auto& member : saved) {
    if (!member.alive) {
      if (auto marked = hierarchy_.set_alive(member.name, false); !marked.ok()) {
        return "system.members: " + marked.error().message;
      }
    }
  }
  hierarchy_.set_root_alive(in.field("root_alive").flag());

  const snapshot::Reader records = in.field("records");  // rows [name, [[type, value, ttl]...]]
  for (std::size_t i = 0; i < records.size() && error.empty(); ++i) {
    const snapshot::Reader row = records.at(i);
    (void)row.size(2);
    const naming::Name name = read_name(row.at(0));
    std::vector<store::Record> held = read_records(row.at(1));
    if (!error.empty()) break;
    for (auto& record : held) records_.add(name, std::move(record));
  }

  const snapshot::Reader cache = in.field("bootstrap_cache");
  bootstrap_cache_.clear();
  for (std::size_t i = 0; i < cache.size(); ++i) bootstrap_cache_.push_back(cache.at(i).str());

  attack_rng_.set_state(in.field("attack_rng").rng_state());
  active_attacks_.clear();
  const snapshot::Reader attacks = in.field("active_attacks");  // rows [target, [victims...]]
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const snapshot::Reader row = attacks.at(i);
    (void)row.size(2);
    const snapshot::Reader victims = row.at(1);
    std::vector<std::string> names(victims.size());
    for (std::size_t v = 0; v < names.size(); ++v) names[v] = victims.at(v).str();
    active_attacks_[row.at(0).str()] = std::move(names);
  }

  snapshot::registry_from_json(registry_, in.field("registry"));
  op_clock_ = in.field("op_clock").u64();
  next_qid_ = in.field("next_qid").u64();

  const snapshot::Reader backend = in.field("backend");
  const snapshot::Reader kind = backend.field("kind");
  const std::uint64_t now = backend.field("now").u64();
  const bool event = kind.str() == "event";
  if (!event && kind.str() != "graph") kind.fail("unknown: " + kind.str());
  EventBackendConfig config;
  std::vector<sim::FaultPlan> plans;
  if (event) {
    config = read_event_backend_config(backend.field("config"));
    const snapshot::Reader texts = backend.field("plans");
    for (std::size_t i = 0; i < texts.size(); ++i) {
      std::string parse_error;
      auto plan = sim::FaultPlan::parse(texts.at(i).str(), &parse_error);
      if (plan.has_value()) {
        plans.push_back(std::move(*plan));
      } else {
        texts.at(i).reject(parse_error);
      }
    }
  }
  if (!error.empty()) return error;
  backend_->on_membership_change();
  if (now < backend_->now()) {
    backend.fail("clock runs backwards");
    return error;
  }
  backend_->advance(now - backend_->now());
  if (event) {
    use_event_backend(std::move(config));
    for (auto& plan : plans) {
      if (auto scheduled = schedule_faults(std::move(plan)); !scheduled.ok()) {
        return "system.backend.plans: " + scheduled.error().message;
      }
    }
  }
  return "";
}

std::string HoursSystem::restore(const std::string& path) {
  snapshot::Json doc;
  if (std::string error = snapshot::read_file(path, doc); !error.empty()) return error;
  return restore_json(doc);
}

}  // namespace hours
