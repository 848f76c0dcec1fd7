// HoursSystem::save/restore — the facade-level snapshot (docs/PROTOCOL.md
// appendix C, "system" section). See the API comment in hours.hpp for the
// scope and the relationship to the byte-exact sim::Snapshotter layer.
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hours/event_backend.hpp"
#include "hours/hours.hpp"
#include "snapshot/json.hpp"
#include "snapshot/registry_io.hpp"
#include "snapshot/snapshot.hpp"

namespace hours {

namespace {

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

std::string parse_records(const Json& rows, std::vector<store::Record>& out) {
  if (!rows.is_array()) return "records list malformed";
  for (const auto& raw : rows.items()) {
    if (!raw.is_array() || raw.items().size() != 3 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_string() || !raw.items()[2].is_u64()) {
      return "record entry malformed";
    }
    store::Record record;
    record.type = raw.items()[0].as_string();
    record.value = raw.items()[1].as_string();
    record.ttl = raw.items()[2].as_u64();
    out.push_back(std::move(record));
  }
  return "";
}

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
  return out;
}

std::string parse_event_backend_config(const Json& state, EventBackendConfig& out) {
  const Json* transport = state.find("transport");
  const Json* client = state.find("client");
  if (transport == nullptr || client == nullptr) return "backend.config malformed";
  const auto u64_field = [](const Json& obj, const char* key, std::uint64_t& into) {
    const Json* field = obj.find(key);
    if (field == nullptr || !field->is_u64()) return false;
    into = field->as_u64();
    return true;
  };
  std::uint64_t loss_bits = 0;
  std::uint64_t jitter_bits = 0;
  std::uint64_t retries = 0;
  std::uint64_t max_hops = 0;
  std::uint64_t ring_repaired = 0;
  if (!u64_field(*transport, "latency_min", out.transport.latency_min) ||
      !u64_field(*transport, "latency_max", out.transport.latency_max) ||
      !u64_field(*transport, "ack_timeout", out.transport.ack_timeout) ||
      !u64_field(*transport, "loss_probability", loss_bits) ||
      !u64_field(*client, "max_retries_per_hop", retries) ||
      !u64_field(*client, "backoff_base", out.client.backoff_base) ||
      !u64_field(*client, "backoff_cap", out.client.backoff_cap) ||
      !u64_field(*client, "jitter", jitter_bits) ||
      !u64_field(*client, "deadline", out.client.deadline) ||
      !u64_field(*client, "max_hops", max_hops) ||
      !u64_field(*client, "suspicion_ttl", out.client.suspicion_ttl) ||
      !u64_field(*client, "seed", out.client.seed) ||
      !u64_field(state, "ticks_per_second", out.ticks_per_second) ||
      !u64_field(state, "suspicion_ttl", out.suspicion_ttl) ||
      !u64_field(state, "assume_ring_repaired", ring_repaired) ||
      !u64_field(state, "seed", out.seed)) {
    return "backend.config malformed";
  }
  out.transport.loss_probability = snapshot::double_from_bits(loss_bits);
  out.client.jitter = snapshot::double_from_bits(jitter_bits);
  out.client.max_retries_per_hop = static_cast<std::uint32_t>(retries);
  out.client.max_hops = static_cast<std::uint32_t>(max_hops);
  out.assume_ring_repaired = ring_repaired != 0;
  return "";
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
  const Json* system = doc.find("sections")->find("system");
  if (system == nullptr) return "snapshot has no system section";

  const Json* config = system->find("config");
  if (config == nullptr) return "system.config missing";
  if (*config != config_json()) {
    return "system.config does not match this system's configuration";
  }
  if (hierarchy_.node_count() != 0 || records_.total_records() != 0) {
    return "restore requires a freshly constructed system";
  }

  const Json* members = system->find("members");
  const Json* root_alive = system->find("root_alive");
  const Json* records = system->find("records");
  const Json* cache = system->find("bootstrap_cache");
  const Json* rng = system->find("attack_rng");
  const Json* attacks = system->find("active_attacks");
  const Json* registry = system->find("registry");
  const Json* op_clock = system->find("op_clock");
  const Json* next_qid = system->find("next_qid");
  const Json* backend = system->find("backend");
  if (members == nullptr || !members->is_array() || root_alive == nullptr ||
      !root_alive->is_u64() || records == nullptr || !records->is_array() ||
      cache == nullptr || !cache->is_array() || rng == nullptr || !rng->is_array() ||
      rng->items().size() != 4 || attacks == nullptr || !attacks->is_array() ||
      registry == nullptr || op_clock == nullptr || !op_clock->is_u64() ||
      next_qid == nullptr || !next_qid->is_u64() || backend == nullptr) {
    return "system section malformed";
  }

  // Membership, two passes: primary admissions in saved (pre-order) order,
  // then mesh registrations — a secondary parent may appear later in
  // pre-order than the node registering it.
  struct SavedMember {
    naming::Name name;
    bool alive = true;
    std::vector<naming::Name> secondary_parents;
  };
  std::vector<SavedMember> saved;
  saved.reserve(members->items().size());
  for (const auto& raw : members->items()) {
    if (!raw.is_array() || raw.items().size() != 3 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_u64() || !raw.items()[2].is_array()) {
      return "system.members entry malformed";
    }
    SavedMember member;
    auto parsed = naming::Name::parse(raw.items()[0].as_string());
    if (!parsed.ok()) return "system.members: " + parsed.error().message;
    member.name = parsed.value();
    member.alive = raw.items()[1].as_u64() != 0;
    for (const auto& sp : raw.items()[2].items()) {
      if (!sp.is_string()) return "system.members entry malformed";
      auto sp_parsed = naming::Name::parse(sp.as_string());
      if (!sp_parsed.ok()) return "system.members: " + sp_parsed.error().message;
      member.secondary_parents.push_back(sp_parsed.value());
    }
    saved.push_back(std::move(member));
  }
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
  hierarchy_.set_root_alive(root_alive->as_u64() != 0);

  for (const auto& raw : records->items()) {
    if (!raw.is_array() || raw.items().size() != 2 || !raw.items()[0].is_string()) {
      return "system.records entry malformed";
    }
    auto parsed = naming::Name::parse(raw.items()[0].as_string());
    if (!parsed.ok()) return "system.records: " + parsed.error().message;
    std::vector<store::Record> held;
    if (std::string error = parse_records(raw.items()[1], held); !error.empty()) {
      return "system.records: " + error;
    }
    for (auto& record : held) records_.add(parsed.value(), std::move(record));
  }

  bootstrap_cache_.clear();
  for (const auto& name : cache->items()) {
    if (!name.is_string()) return "system.bootstrap_cache entry malformed";
    bootstrap_cache_.push_back(name.as_string());
  }

  for (const auto& word : rng->items()) {
    if (!word.is_u64()) return "system.attack_rng malformed";
  }
  rng::Xoshiro256::State words{};
  for (std::size_t i = 0; i < 4; ++i) words[i] = rng->items()[i].as_u64();
  attack_rng_.set_state(words);

  active_attacks_.clear();
  for (const auto& raw : attacks->items()) {
    if (!raw.is_array() || raw.items().size() != 2 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_array()) {
      return "system.active_attacks entry malformed";
    }
    std::vector<std::string> victims;
    for (const auto& victim : raw.items()[1].items()) {
      if (!victim.is_string()) return "system.active_attacks entry malformed";
      victims.push_back(victim.as_string());
    }
    active_attacks_[raw.items()[0].as_string()] = std::move(victims);
  }

  if (std::string error = snapshot::registry_from_json(registry_, *registry); !error.empty()) {
    return "system.registry: " + error;
  }
  op_clock_ = op_clock->as_u64();
  next_qid_ = next_qid->as_u64();

  const Json* kind = backend->find("kind");
  const Json* now = backend->find("now");
  if (kind == nullptr || !kind->is_string() || now == nullptr || !now->is_u64()) {
    return "system.backend malformed";
  }
  backend_->on_membership_change();
  if (now->as_u64() < backend_->now()) return "system.backend clock runs backwards";
  backend_->advance(now->as_u64() - backend_->now());
  if (kind->as_string() == "event") {
    const Json* backend_config = backend->find("config");
    const Json* plans = backend->find("plans");
    if (backend_config == nullptr || plans == nullptr || !plans->is_array()) {
      return "system.backend malformed";
    }
    EventBackendConfig config_out;
    if (std::string error = parse_event_backend_config(*backend_config, config_out);
        !error.empty()) {
      return error;
    }
    use_event_backend(std::move(config_out));
    for (const auto& text : plans->items()) {
      if (!text.is_string()) return "system.backend.plans entry malformed";
      std::string parse_error;
      auto plan = sim::FaultPlan::parse(text.as_string(), &parse_error);
      if (!plan.has_value()) return "system.backend.plans: " + parse_error;
      if (auto scheduled = schedule_faults(std::move(*plan)); !scheduled.ok()) {
        return "system.backend.plans: " + scheduled.error().message;
      }
    }
  } else if (kind->as_string() != "graph") {
    return "system.backend.kind unknown: " + kind->as_string();
  }
  return "";
}

std::string HoursSystem::restore(const std::string& path) {
  snapshot::Json doc;
  if (std::string error = snapshot::read_file(path, doc); !error.empty()) return error;
  return restore_json(doc);
}

}  // namespace hours
