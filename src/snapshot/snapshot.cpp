#include "snapshot/snapshot.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

#include "snapshot/event_kinds.hpp"
#include "snapshot/reader.hpp"

namespace hours::snapshot {

Json make_document() {
  Json doc = Json::object();
  doc["magic"] = Json(std::string(kSnapshotMagic));
  doc["version"] = Json(kSnapshotVersion);
  doc["sections"] = Json::object();
  return doc;
}

namespace {

void check_sim_section(const Reader& sim) {
  const std::uint64_t now = sim.field("now").u64();
  const std::uint64_t next_id = sim.field("next_id").u64();
  const Reader events = sim.field("events");
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < events.size() && sim.ok(); ++i) {
    const Reader row = events.at(i);
    const std::vector<std::uint64_t> words = row.words();
    if (words.size() < 3) return row.fail("is not an [at, id, kind, args...] array");
    const std::uint64_t at = words[0];
    const std::uint64_t id = words[1];
    const std::uint64_t kind = words[2];
    if (at < now) return row.fail("is scheduled in the past");
    if (id == 0 || id >= next_id) return row.fail("id outside [1, next_id)");
    ids.push_back(id);
    if (kind > UINT32_MAX || event_kind_name(static_cast<std::uint32_t>(kind)).empty()) {
      return row.fail("has unregistered kind " + std::to_string(kind));
    }
    if (auto e = check_event_args(static_cast<std::uint32_t>(kind), words.size() - 3);
        !e.empty()) {
      return row.reject(e);
    }
  }
  std::sort(ids.begin(), ids.end());
  if (const auto twice = std::adjacent_find(ids.begin(), ids.end()); twice != ids.end()) {
    events.reject("id " + std::to_string(*twice) + " is queued twice");
  }
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
  std::string error;
  const Reader in{doc, "snapshot", error};
  const Reader magic = in.field("magic");
  if (magic.str() != kSnapshotMagic) {
    magic.reject("want \"" + std::string(kSnapshotMagic) + "\"");
  }
  const Reader version = in.field("version");
  if (const std::uint64_t v = version.u64(); v == 0 || v > kSnapshotVersion) {
    version.reject("unsupported snapshot version " + std::to_string(v) +
                   " (reader supports up to " + std::to_string(kSnapshotVersion) + ")");
  }
  const Reader sections = in.field("sections");
  for (const auto& name : sections.keys()) (void)sections.section(name).keys();
  if (sections.has("sim")) check_sim_section(sections.section("sim"));
  return error;
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
