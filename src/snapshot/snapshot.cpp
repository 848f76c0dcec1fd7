#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "snapshot/event_kinds.hpp"

namespace hours::snapshot {

Json make_document() {
  Json doc = Json::object();
  doc["magic"] = Json(std::string(kSnapshotMagic));
  doc["version"] = Json(kSnapshotVersion);
  doc["sections"] = Json::object();
  return doc;
}

namespace {

std::string validate_sim_section(const Json& sim) {
  const Json* now = sim.find("now");
  const Json* next_id = sim.find("next_id");
  const Json* events = sim.find("events");
  if (now == nullptr || !now->is_u64()) return "sim.now missing or not a u64";
  if (next_id == nullptr || !next_id->is_u64()) return "sim.next_id missing or not a u64";
  if (events == nullptr || !events->is_array()) return "sim.events missing or not an array";
  std::vector<std::uint64_t> ids;
  ids.reserve(events->items().size());
  for (std::size_t i = 0; i < events->items().size(); ++i) {
    const Json& event = events->items()[i];
    const std::string where = "sim.events[" + std::to_string(i) + "]";
    if (!event.is_array() || event.items().size() < 3) {
      return where + " is not an [at, id, kind, args...] array";
    }
    for (const Json& field : event.items()) {
      if (!field.is_u64()) return where + " holds a non-u64 element";
    }
    const std::uint64_t at = event.items()[0].as_u64();
    const std::uint64_t id = event.items()[1].as_u64();
    const std::uint64_t kind = event.items()[2].as_u64();
    if (at < now->as_u64()) return where + " is scheduled in the past";
    if (id == 0 || id >= next_id->as_u64()) return where + " id outside [1, next_id)";
    ids.push_back(id);
    if (kind > UINT32_MAX || event_kind_name(static_cast<std::uint32_t>(kind)).empty()) {
      return where + " has unregistered kind " + std::to_string(kind);
    }
    const std::size_t count = event.items().size() - 3;
    if (auto e = check_event_args(static_cast<std::uint32_t>(kind), count); !e.empty()) {
      return where + ": " + e;
    }
  }
  std::sort(ids.begin(), ids.end());
  if (const auto twice = std::adjacent_find(ids.begin(), ids.end()); twice != ids.end()) {
    return "sim.events: id " + std::to_string(*twice) + " is queued twice";
  }
  return "";
}

}  // namespace

std::string kind_label(std::uint32_t kind) {
  const std::string_view name = event_kind_name(kind);
  if (name.empty()) return "unregistered kind " + std::to_string(kind);
  return std::string(name) + " (" + std::to_string(kind) + ")";
}

std::string check_event_args(std::uint32_t kind, std::size_t count) {
  const KindSpec* spec = kind_spec(kind);
  if (spec == nullptr) return "";
  if (count < spec->args) {
    return kind_label(kind) + " needs at least " + std::to_string(spec->args) +
           " argument words, has " + std::to_string(count);
  }
  if (!spec->tail && count > spec->args) {
    return kind_label(kind) + " takes exactly " + std::to_string(spec->args) +
           " argument words, has " + std::to_string(count);
  }
  return "";
}

std::string validate_document(const Json& doc) {
  if (!doc.is_object()) return "document is not a JSON object";
  const Json* magic = doc.find("magic");
  if (magic == nullptr || !magic->is_string() || magic->as_string() != kSnapshotMagic) {
    return "bad or missing magic (want \"" + std::string(kSnapshotMagic) + "\")";
  }
  const Json* version = doc.find("version");
  if (version == nullptr || !version->is_u64()) return "bad or missing version";
  if (version->as_u64() == 0 || version->as_u64() > kSnapshotVersion) {
    return "unsupported snapshot version " + std::to_string(version->as_u64()) +
           " (reader supports up to " + std::to_string(kSnapshotVersion) + ")";
  }
  const Json* sections = doc.find("sections");
  if (sections == nullptr || !sections->is_object()) return "bad or missing sections";
  for (const auto& [name, body] : sections->fields()) {
    if (!body.is_object()) return "section \"" + name + "\" is not an object";
  }
  if (const Json* sim = sections->find("sim"); sim != nullptr) {
    return validate_sim_section(*sim);
  }
  return "";
}

std::string write_file(const std::string& path, const Json& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return "cannot open " + path + " for writing";
  out << doc.dump();
  out.flush();
  if (!out) return "write to " + path + " failed";
  return "";
}

std::string read_file(const std::string& path, Json& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "cannot open " + path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  if (!parse_json(buffer.str(), out, &error)) return path + ": " + error;
  return "";
}

}  // namespace hours::snapshot
