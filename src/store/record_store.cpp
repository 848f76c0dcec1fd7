#include "store/record_store.hpp"

#include <algorithm>

namespace hours::store {

const std::vector<Record> RecordStore::kEmpty{};

void RecordStore::add(const naming::Name& name, Record record) {
  by_key_[name.to_string()].push_back(std::move(record));
  ++total_;
}

std::size_t RecordStore::remove(const naming::Name& name, const std::string& type) {
  const auto it = by_key_.find(name.to_string());
  if (it == by_key_.end()) return 0;
  auto& records = it->second;
  const auto removed =
      static_cast<std::size_t>(std::erase_if(records, [&](const Record& r) { return r.type == type; }));
  total_ -= removed;
  if (records.empty()) by_key_.erase(it);
  return removed;
}

const std::vector<Record>& RecordStore::records_at(const naming::Name& name) const {
  return records_at(std::string_view{name.to_string()});
}

const std::vector<Record>& RecordStore::records_at(std::string_view name) const {
  const auto it = by_key_.find(name.empty() ? std::string_view{"."} : name);
  return it == by_key_.end() ? kEmpty : it->second;
}

std::vector<Record> RecordStore::records_at(const naming::Name& name,
                                            const std::string& type) const {
  std::vector<Record> out;
  for (const auto& r : records_at(name)) {
    if (r.type == type) out.push_back(r);
  }
  return out;
}

std::vector<std::pair<naming::Name, const std::vector<Record>*>> RecordStore::in_name_order()
    const {
  std::vector<std::pair<naming::Name, const std::vector<Record>*>> out;
  out.reserve(by_key_.size());
  for (const auto& [key, records] : by_key_) {
    out.emplace_back(naming::Name::parse(key).value(), &records);
  }
  std::ranges::sort(out, {}, &std::pair<naming::Name, const std::vector<Record>*>::first);
  return out;
}

}  // namespace hours::store
