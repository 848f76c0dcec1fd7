#include "sim/snapshotter.hpp"

#include <algorithm>

#include "snapshot/event_kinds.hpp"
#include "snapshot/snapshot.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

void Snapshotter::add(snapshot::Participant& participant) {
  for (const auto* existing : participants_) {
    HOURS_EXPECTS(existing->section() != participant.section());
  }
  participants_.push_back(&participant);
}

std::string Snapshotter::save(snapshot::Json& doc) const {
  using snapshot::Json;

  // Opaque events have no wire form; refuse with the full id list so the
  // caller can see exactly which closures block the save.
  const auto pending = sim_.pending_events();
  std::string opaque;
  for (const auto& event : pending) {
    if (event.desc.kind != snapshot::kOpaque) continue;
    if (!opaque.empty()) opaque += ", ";
    opaque += std::to_string(event.id);
  }
  if (!opaque.empty()) {
    return "cannot snapshot: opaque (closure-only) events queued, ids [" + opaque + "]";
  }

  doc = snapshot::make_document();
  Json& sections = doc["sections"];

  Json sim = Json::object();
  sim["now"] = Json(sim_.now());
  sim["next_id"] = Json(sim_.next_id());
  Json events = Json::array();
  for (const auto& event : pending) {
    Json row = Json::array();
    row.push(Json(event.at));
    row.push(Json(event.id));
    row.push(Json(static_cast<std::uint64_t>(event.desc.kind)));
    for (const auto arg : event.desc.args) row.push(Json(arg));
    events.push(std::move(row));
  }
  sim["events"] = std::move(events);
  sections["sim"] = std::move(sim);

  for (const auto* participant : participants_) {
    std::string error;
    Json state = participant->save_state(error);
    if (!error.empty()) return participant->section() + ": " + error;
    sections[participant->section()] = std::move(state);
  }
  return "";
}

std::string Snapshotter::save_string(std::string& out) const {
  snapshot::Json doc;
  if (std::string error = save(doc); !error.empty()) return error;
  out = doc.dump();
  return "";
}

std::string Snapshotter::save_file(const std::string& path) const {
  snapshot::Json doc;
  if (std::string error = save(doc); !error.empty()) return error;
  return snapshot::write_file(path, doc);
}

std::string Snapshotter::restore(const snapshot::Json& doc) {
  using snapshot::Json;
  if (std::string error = snapshot::validate_document(doc); !error.empty()) return error;

  const Json* sections = doc.find("sections");
  const Json* sim = sections->find("sim");
  if (sim == nullptr) return "snapshot has no sim section";
  const Json* now = sim->find("now");
  const Json* next_id = sim->find("next_id");
  const Json* events = sim->find("events");

  sim_.reset(now->as_u64(), next_id->as_u64());

  // Participant state first: a subsystem's restore must not observe a
  // half-populated queue.
  for (auto* participant : participants_) {
    const Json* state = sections->find(participant->section());
    if (state == nullptr) {
      return "snapshot has no section \"" + participant->section() + "\"";
    }
    if (std::string error = participant->restore_state(*state); !error.empty()) return error;
  }

  for (const auto& raw : events->items()) {
    const auto& fields = raw.items();
    snapshot::Described desc;
    desc.kind = static_cast<std::uint32_t>(fields[2].as_u64());
    for (std::size_t i = 3; i < fields.size(); ++i) desc.args.push_back(fields[i].as_u64());

    // Every event runs through the runner its block's owner claimed; an
    // event no registered participant owns would have nowhere to run.
    const bool owned = std::any_of(participants_.begin(), participants_.end(),
                                   [&desc](const snapshot::Participant* participant) {
                                     return participant->owns(desc.kind);
                                   });
    if (!owned) {
      return "sim.events: event " + std::to_string(fields[1].as_u64()) + " at tick " +
             std::to_string(fields[0].as_u64()) + ": no participant owns event kind " +
             std::string(snapshot::event_kind_name(desc.kind)) + " (" +
             std::to_string(desc.kind) + ")";
    }
    sim_.restore_event(fields[0].as_u64(), fields[1].as_u64(), desc);
  }
  return "";
}

std::string Snapshotter::restore_file(const std::string& path) {
  snapshot::Json doc;
  if (std::string error = snapshot::read_file(path, doc); !error.empty()) return error;
  return restore(doc);
}

}  // namespace hours::sim
