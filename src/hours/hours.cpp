#include "hours/hours.hpp"

#include <algorithm>
#include <utility>

#include "hours/graph_backend.hpp"

namespace hours {

namespace {

util::Result<naming::Name> parse_name(std::string_view text) { return naming::Name::parse(text); }

QueryResult failed(util::Error::Code code) {
  QueryResult r;
  r.failure = code;
  return r;
}

}  // namespace

HoursSystem::HoursSystem(HoursConfig config) : config_(config), hierarchy_(config.overlay) {
  backend_ = std::make_unique<GraphBackend>(*this);
}

EventBackend& HoursSystem::use_event_backend(EventBackendConfig config) {
  const std::uint64_t clock = backend_->now();  // read before the swap
  auto backend = std::make_unique<EventBackend>(*this, std::move(config), clock);
  event_backend_ = backend.get();
  backend_ = std::move(backend);
  backend_->set_tracer(trace_);
  return *event_backend_;
}

void HoursSystem::use_graph_backend() {
  const std::uint64_t clock = backend_->now();
  event_backend_ = nullptr;
  backend_ = std::make_unique<GraphBackend>(*this, clock);
  backend_->set_tracer(trace_);
}

util::Result<naming::Name> HoursSystem::admit(std::string_view name) {
  auto parsed = parse_name(name);
  if (!parsed.ok()) return parsed.error();
  auto admitted = hierarchy_.admit(std::move(parsed).value());
  if (admitted.ok()) backend_->on_membership_change();
  return admitted;
}

util::Result<naming::Name> HoursSystem::remove(std::string_view name) {
  auto parsed = parse_name(name);
  if (!parsed.ok()) return parsed.error();
  auto removed = hierarchy_.remove(parsed.value());
  if (removed.ok()) backend_->on_membership_change();
  return removed;
}

util::Result<naming::Name> HoursSystem::set_alive(std::string_view name, bool alive) {
  auto parsed = parse_name(name);
  if (!parsed.ok()) return parsed.error();
  if (parsed.value().is_root()) {
    hierarchy_.set_root_alive(alive);
  } else {
    auto result = hierarchy_.set_alive(parsed.value(), alive);
    if (!result.ok()) return result;
  }
  backend_->on_set_alive(parsed.value(), alive);
  HOURS_TRACE_EMIT(trace_, {.at = stamp(),
                            .type = alive ? trace::EventType::kFaultRevive
                                          : trace::EventType::kFaultKill,
                            .level = static_cast<std::int32_t>(parsed.value().depth())});
  return parsed.value();
}

util::Result<naming::Name> HoursSystem::strike(std::string_view target,
                                               attack::Strategy strategy,
                                               std::uint32_t sibling_count) {
  auto parsed = parse_name(target);
  if (!parsed.ok()) return parsed.error();
  if (parsed.value().is_root()) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "the root has no sibling overlay; use set_alive(\".\", false)"};
  }
  const std::string key{target};
  if (active_attacks_.count(key) != 0) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "an attack on this target is already active"};
  }
  auto path = hierarchy_.resolve(parsed.value());
  if (!path.ok()) return path.error();

  const auto parent_path = hierarchy::parent(path.value());
  auto& overlay = hierarchy_.overlay_of(parent_path);
  if (sibling_count >= overlay.size()) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "sibling_count must leave at least the target's slot"};
  }

  // Plan against ring indices, then pin the victims by *name* so the attack
  // survives membership-driven index shifts until it is lifted.
  const auto set =
      attack::plan(strategy, overlay.size(), path.value().back(), sibling_count, attack_rng_);
  std::vector<std::string> victims{std::string{target}};
  for (const auto index : set.victims) {
    auto name = hierarchy_.name_of(hierarchy::child(parent_path, index));
    if (name.ok()) victims.push_back(name.value().to_string());
  }
  for (const auto& victim : victims) {
    const auto victim_name = naming::Name::parse(victim).value();
    (void)hierarchy_.set_alive(victim_name, false);
    backend_->on_set_alive(victim_name, false);
    HOURS_TRACE_EMIT(trace_, {.at = stamp(), .type = trace::EventType::kFaultKill,
                              .level = static_cast<std::int32_t>(path.value().size())});
  }
  attacks_launched_.inc();
  active_attacks_.emplace(key, std::move(victims));
  return parsed.value();
}

util::Result<naming::Name> HoursSystem::lift_attack(std::string_view target) {
  const auto it = active_attacks_.find(std::string{target});
  if (it == active_attacks_.end()) {
    return util::Error{util::Error::Code::kNotFound,
                       "no active attack on: " + std::string{target}};
  }
  for (const auto& victim : it->second) {
    const auto victim_name = naming::Name::parse(victim).value();
    (void)hierarchy_.set_alive(victim_name, true);
    backend_->on_set_alive(victim_name, true);
    HOURS_TRACE_EMIT(trace_, {.at = stamp(), .type = trace::EventType::kFaultRevive});
  }
  attacks_lifted_.inc();
  active_attacks_.erase(it);
  return naming::Name::parse(target);
}

QueryResult HoursSystem::finish_query(std::uint64_t qid, QueryResult result) {
  if (result.delivered) {
    queries_delivered_.inc();
    delivered_hops_->add(result.hops);
  } else {
    queries_failed_.inc();
  }
  HOURS_TRACE_EMIT(trace_, {.at = stamp(),
                            .type = result.delivered ? trace::EventType::kQueryDelivered
                                                     : trace::EventType::kQueryFailed,
                            .causal = qid,
                            .value = result.hops});
  return result;
}

QueryResult HoursSystem::query(std::string_view dest_name, bool record_path) {
  return query_parsed(parse_name(dest_name), record_path);
}

QueryResult HoursSystem::query_parsed(const util::Result<naming::Name>& dest, bool record_path) {
  const std::uint64_t qid = next_qid_++;
  queries_submitted_.inc();
  if (!dest.ok()) return finish_query(qid, failed(dest.error().code));
  HOURS_TRACE_EMIT(trace_, {.at = stamp(), .type = trace::EventType::kQuerySubmit,
                            .level = static_cast<std::int32_t>(dest.value().depth()),
                            .causal = qid});
  return finish_query(qid, backend_->execute(dest.value(), record_path));
}

QueryResult HoursSystem::query_from(std::string_view start_name, std::string_view dest_name,
                                    bool record_path) {
  const std::uint64_t qid = next_qid_++;
  queries_submitted_.inc();
  auto start_parsed = parse_name(start_name);
  if (!start_parsed.ok()) return finish_query(qid, failed(start_parsed.error().code));
  auto dest_parsed = parse_name(dest_name);
  if (!dest_parsed.ok()) return finish_query(qid, failed(dest_parsed.error().code));
  HOURS_TRACE_EMIT(trace_, {.at = stamp(), .type = trace::EventType::kQuerySubmit,
                            .level = static_cast<std::int32_t>(dest_parsed.value().depth()),
                            .causal = qid});
  return finish_query(qid, backend_->execute_from(start_parsed.value(), dest_parsed.value(),
                                                  record_path));
}

util::Result<naming::Name> HoursSystem::add_record(std::string_view name, store::Record record) {
  auto parsed = parse_name(name);
  if (!parsed.ok()) return parsed.error();
  auto path = hierarchy_.resolve(parsed.value());
  if (!path.ok()) return path.error();  // records live only at admitted nodes
  records_.add(parsed.value(), std::move(record));
  return parsed.value();
}

HoursSystem::LookupResult HoursSystem::lookup(std::string_view name) {
  LookupResult result;
  result.query = query_parsed(parse_name(name), /*record_path=*/false);
  // Delivered implies `name` parsed, so the store can key by the text.
  if (result.query.delivered) result.records = records_.records_at(name);
  return result;
}

std::vector<HoursSystem::LookupResult> HoursSystem::lookup_batch(
    const std::vector<std::string>& names) {
  std::vector<LookupResult> results;
  results.reserve(names.size());
  for (const auto& name : names) results.push_back(lookup(name));
  return results;
}

void HoursSystem::cache_bootstrap(std::string_view name) {
  const std::string entry{name};
  const auto it = std::find(bootstrap_cache_.begin(), bootstrap_cache_.end(), entry);
  if (it != bootstrap_cache_.end()) bootstrap_cache_.erase(it);
  bootstrap_cache_.push_front(entry);
  while (bootstrap_cache_.size() > config_.bootstrap_cache_size) bootstrap_cache_.pop_back();
}

}  // namespace hours
