#include "sim/snapshotter.hpp"

#include <algorithm>

#include "snapshot/event_kinds.hpp"
#include "snapshot/reader.hpp"
#include "snapshot/snapshot.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

void Snapshotter::add(snapshot::Participant& participant) {
  for (const auto* existing : participants_) {
    HOURS_EXPECTS(existing->section() != participant.section());
  }
  participants_.push_back(&participant);
}

std::string Snapshotter::refuse_unowned(
    const std::vector<Simulator::PendingEvent>& events) const {
  std::string refused;
  for (const auto& event : events) {
    const bool owned = std::any_of(participants_.begin(), participants_.end(),
                                   [&event](const snapshot::Participant* participant) {
                                     return participant->owns(event.desc.kind);
                                   });
    if (owned) continue;
    refused += refused.empty() ? "sim.events: " : "; ";
    refused += "event " + std::to_string(event.id) + " at tick " + std::to_string(event.at) +
               ": no participant owns event kind " + snapshot::kind_label(event.desc.kind);
  }
  return refused;
}

std::string Snapshotter::save(snapshot::Json& doc) const {
  using snapshot::Json;

  // An event whose block no participant owns would have nowhere to run
  // after a restore; refuse, naming every such event.
  const auto pending = sim_.pending_events();
  if (std::string refused = refuse_unowned(pending); !refused.empty()) {
    return "cannot snapshot: " + refused;
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
  if (std::string error = snapshot::validate_document(doc); !error.empty()) return error;
  std::string error;
  const snapshot::Reader sections = snapshot::Reader{doc, "snapshot", error}.field("sections");
  const snapshot::Reader sim = sections.section("sim");
  const std::uint64_t now = sim.field("now").u64();
  const std::uint64_t next_id = sim.field("next_id").u64();
  const snapshot::Reader rows = sim.field("events");
  // validate_document checked every row: [at, id, kind, args...].
  std::vector<Simulator::PendingEvent> events(rows.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::vector<std::uint64_t> words = rows.at(i).words();
    Simulator::PendingEvent& event = events[i];
    event.at = words[0];
    event.id = words[1];
    event.desc.kind = static_cast<std::uint32_t>(words[2]);
    event.desc.args.assign(words.begin() + 3, words.end());
  }
  if (!error.empty()) return error;
  if (std::string refused = refuse_unowned(events); !refused.empty()) return refused;

  sim_.reset(now, next_id);

  // Participant state first: a subsystem's restore must not observe a
  // half-populated queue.
  for (auto* participant : participants_) {
    const snapshot::Reader state = sections.section(participant->section());
    if (!error.empty()) return error;
    if (std::string e = participant->restore_state(state.json()); !e.empty()) return e;
  }

  // Each event runs through the runner its block's owner claimed.
  for (const auto& event : events) sim_.restore_event(event.at, event.id, event.desc);
  return "";
}

std::string Snapshotter::restore_file(const std::string& path) {
  snapshot::Json doc;
  if (std::string error = snapshot::read_file(path, doc); !error.empty()) return error;
  return restore(doc);
}

}  // namespace hours::sim
