#include "snapshot/registry_io.hpp"

namespace hours::snapshot {

Json registry_to_json(const trace::Registry& registry) {
  Json out = Json::object();
  Json counters = Json::object();
  for (const auto& name : registry.counter_names()) {
    counters[name] = Json(registry.counter_value(name));
  }
  Json histograms = Json::object();
  for (const auto& name : registry.histogram_names()) {
    // histogram() is non-const lookup-or-create; names() guarantees existence.
    const auto& h = const_cast<trace::Registry&>(registry).histogram(name);
    Json bins = Json::array();
    for (const auto count : h.bins()) bins.push(Json(count));
    Json entry = Json::object();
    entry["bins"] = std::move(bins);
    entry["total"] = Json(h.total_count());
    histograms[name] = std::move(entry);
  }
  out["counters"] = std::move(counters);
  out["histograms"] = std::move(histograms);
  return out;
}

void registry_from_json(trace::Registry& registry, const Reader& state) {
  const Reader counters = state.field("counters");
  const Reader histograms = state.field("histograms");
  const std::vector<std::string> counter_names = counters.keys();
  const std::vector<std::string> histogram_names = histograms.keys();
  if (!state.ok()) return;
  registry.reset();
  for (const auto& name : counter_names) registry.set_counter(name, counters.field(name).u64());
  for (const auto& name : histogram_names) {
    const Reader entry = histograms.field(name);
    const std::vector<std::uint64_t> bins = entry.field("bins").words();
    const std::uint64_t total = entry.field("total").u64();
    auto& h = registry.histogram(name);
    std::uint64_t restored = 0;
    for (std::size_t value = 0; value < bins.size(); ++value) {
      h.add(value, bins[value]);
      restored += bins[value];
    }
    if (restored != total) entry.fail("bins disagree with total");
  }
}

}  // namespace hours::snapshot
