#include "scenario/scenario.hpp"

#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

namespace hours::scenario {

namespace {

using snapshot::Json;

const char* type_name(const Json& v) {
  if (v.is_u64()) return "u64";
  if (v.is_string()) return "string";
  if (v.is_array()) return "array";
  return "object";
}

std::string err(const std::string& path, const std::string& what) {
  return path + ": " + what;
}

/// Every validated object goes through this gate: any key outside `allowed`
/// is an error, so typos fail loudly instead of silently deactivating a
/// clause.
std::string reject_unknown(const Json::Object& obj, const std::string& path,
                           std::initializer_list<std::string_view> allowed) {
  for (const auto& [key, value] : obj) {
    (void)value;
    bool known = false;
    for (const auto& a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) return err(path + "." + key, "unknown key");
  }
  return "";
}

std::string need_object(const Json* v, const std::string& path, const Json::Object** out) {
  if (v == nullptr) return err(path, "required object missing");
  if (!v->is_object()) {
    return err(path, std::string("expected object (got ") + type_name(*v) + ")");
  }
  *out = &v->fields();
  return "";
}

std::string get_u64(const Json::Object& obj, const std::string& path, std::string_view key,
                    bool required, std::uint64_t* out) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    return required ? err(path + "." + std::string(key), "required field missing") : "";
  }
  if (!it->second.is_u64()) {
    return err(path + "." + std::string(key),
               std::string("expected u64 (got ") + type_name(it->second) + ")");
  }
  *out = it->second.as_u64();
  return "";
}

/// An optional positive u32 parameter (the overlay's `k` and `q`, the
/// ring's `probe_failure_threshold`): a u64 in [1, 2^32 - 1], kept in
/// `*out` when absent. OverlayParams::validate aborts on 0, and a cast
/// would wrap anything wider.
std::string get_positive_u32(const Json::Object& obj, const std::string& path,
                             std::string_view key, std::uint32_t* out) {
  std::uint64_t v = *out;
  if (auto e = get_u64(obj, path, key, false, &v); !e.empty()) return e;
  if (v == 0 || v > std::numeric_limits<std::uint32_t>::max()) {
    return err(path + "." + std::string(key), std::to_string(v) + " outside [1, 4294967295]");
  }
  *out = static_cast<std::uint32_t>(v);
  return "";
}

std::string get_string(const Json::Object& obj, const std::string& path, std::string_view key,
                       bool required, std::string* out) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    return required ? err(path + "." + std::string(key), "required field missing") : "";
  }
  if (!it->second.is_string()) {
    return err(path + "." + std::string(key),
               std::string("expected string (got ") + type_name(it->second) + ")");
  }
  *out = it->second.as_string();
  return "";
}

/// Booleans ride the Json subset as u64 0/1.
std::string get_bool01(const Json::Object& obj, const std::string& path, std::string_view key,
                       bool* out) {
  const auto it = obj.find(key);
  if (it == obj.end()) return "";
  if (!it->second.is_u64() || it->second.as_u64() > 1) {
    return err(path + "." + std::string(key), "expected 0 or 1");
  }
  *out = it->second.as_u64() == 1;
  return "";
}

/// Fractions/exponents ride as decimal strings ("0.9") because the Json
/// subset has no float shape; the runner never re-serializes them, so the
/// usual round-trip drift concern does not apply.
std::string get_decimal(const Json::Object& obj, const std::string& path, std::string_view key,
                        bool required, double lo, double hi, double* out) {
  const auto it = obj.find(key);
  if (it == obj.end()) {
    return required ? err(path + "." + std::string(key), "required field missing") : "";
  }
  const std::string full_path = path + "." + std::string(key);
  if (!it->second.is_string()) {
    return err(full_path, std::string("expected decimal string like \"0.5\" (got ") +
                              type_name(it->second) + ")");
  }
  const std::string& text = it->second.as_string();
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return err(full_path, "\"" + text + "\" is not a decimal number");
  }
  if (v < lo || v > hi) {
    std::ostringstream range;
    range << text << " out of range [" << lo << ", " << hi << "]";
    return err(full_path, range.str());
  }
  *out = v;
  return "";
}

std::string parse_design(const Json::Object& obj, const std::string& path,
                         overlay::Design* out) {
  std::string text;
  if (auto e = get_string(obj, path, "design", false, &text); !e.empty()) return e;
  if (text.empty()) return "";
  if (text == "base") {
    *out = overlay::Design::kBase;
  } else if (text == "enhanced") {
    *out = overlay::Design::kEnhanced;
  } else {
    return err(path + ".design", "\"" + text + "\" is not one of \"base\", \"enhanced\"");
  }
  return "";
}

std::string parse_popularity(const Json::Object& phase, const std::string& path,
                             std::uint64_t universe, Popularity* out) {
  const auto it = phase.find("popularity");
  if (it == phase.end()) return "";  // default uniform
  const std::string pop_path = path + ".popularity";
  const Json::Object* obj = nullptr;
  if (auto e = need_object(&it->second, pop_path, &obj); !e.empty()) return e;
  if (auto e = reject_unknown(*obj, pop_path, {"kind", "exponent", "hot", "fraction"});
      !e.empty()) {
    return e;
  }
  std::string kind;
  if (auto e = get_string(*obj, pop_path, "kind", true, &kind); !e.empty()) return e;
  if (kind == "uniform") {
    out->kind = Popularity::Kind::kUniform;
  } else if (kind == "zipf") {
    out->kind = Popularity::Kind::kZipf;
    if (auto e = get_decimal(*obj, pop_path, "exponent", false, 0.0, 4.0, &out->exponent);
        !e.empty()) {
      return e;
    }
  } else if (kind == "hotspot") {
    out->kind = Popularity::Kind::kHotspot;
    if (auto e = get_u64(*obj, pop_path, "hot", true, &out->hot); !e.empty()) return e;
    if (out->hot >= universe) {
      return err(pop_path + ".hot", "index " + std::to_string(out->hot) +
                                        " outside the destination universe (size " +
                                        std::to_string(universe) + ")");
    }
    if (auto e = get_decimal(*obj, pop_path, "fraction", true, 0.0, 1.0, &out->fraction);
        !e.empty()) {
      return e;
    }
  } else {
    return err(pop_path + ".kind",
               "\"" + kind + "\" is not one of \"uniform\", \"zipf\", \"hotspot\"");
  }
  return "";
}

void gen_names(const std::vector<std::uint64_t>& branching, std::size_t level,
               const std::string& suffix, std::vector<std::string>* all,
               std::vector<std::string>* leaves) {
  for (std::uint64_t j = 0; j < branching[level]; ++j) {
    std::string name = "n";
    name += std::to_string(j);
    if (!suffix.empty()) name += "." + suffix;
    if (all != nullptr) all->push_back(name);
    if (level + 1 == branching.size()) {
      leaves->push_back(name);
    } else {
      gen_names(branching, level + 1, name, all, leaves);
    }
  }
}

std::string parse_system(const Json::Object& top, Scenario& sc) {
  const std::string path = "$.system";
  const Json::Object* sys = nullptr;
  const auto it = top.find("system");
  if (auto e = need_object(it == top.end() ? nullptr : &it->second, path, &sys); !e.empty()) {
    return e;
  }
  std::string kind;
  if (auto e = get_string(*sys, path, "kind", true, &kind); !e.empty()) return e;
  if (kind == "ring") {
    sc.kind = SystemKind::kRing;
    if (auto e = reject_unknown(*sys, path,
                                {"kind", "size", "design", "k", "q", "seed", "probe_period",
                                 "probe_failure_threshold", "client_deadline"});
        !e.empty()) {
      return e;
    }
    std::uint64_t size = 0;
    if (auto e = get_u64(*sys, path, "size", true, &size); !e.empty()) return e;
    if (size < 4 || size > 1'000'000) {
      return err(path + ".size", "ring size " + std::to_string(size) + " outside [4, 1000000]");
    }
    sc.ring.size = static_cast<std::uint32_t>(size);
    if (auto e = parse_design(*sys, path, &sc.ring.params.design); !e.empty()) return e;
    if (auto e = get_positive_u32(*sys, path, "k", &sc.ring.params.k); !e.empty()) return e;
    if (auto e = get_positive_u32(*sys, path, "q", &sc.ring.params.q); !e.empty()) return e;
    std::uint64_t seed = 0;
    if (sys->find("seed") != sys->end()) {
      if (auto e = get_u64(*sys, path, "seed", false, &seed); !e.empty()) return e;
      sc.ring.seed = seed;
    }
    if (auto e = get_u64(*sys, path, "probe_period", false, &sc.ring.probe_period); !e.empty()) {
      return e;
    }
    if (sc.ring.probe_period == 0) return err(path + ".probe_period", "must be >= 1");
    if (auto e = get_positive_u32(*sys, path, "probe_failure_threshold",
                                  &sc.ring.probe_failure_threshold);
        !e.empty()) {
      return e;
    }
    if (auto e = get_u64(*sys, path, "client_deadline", false, &sc.ring.client_deadline);
        !e.empty()) {
      return e;
    }
    return "";
  }
  if (kind == "hierarchy") {
    sc.kind = SystemKind::kHierarchy;
    if (auto e = reject_unknown(*sys, path,
                                {"kind", "backend", "branching", "design", "k", "q",
                                 "record_ttl", "ticks_per_second", "client_deadline",
                                 "resolver"});
        !e.empty()) {
      return e;
    }
    std::string backend;
    if (auto e = get_string(*sys, path, "backend", true, &backend); !e.empty()) return e;
    if (backend == "graph") {
      sc.hierarchy.backend = BackendKind::kGraph;
    } else if (backend == "event") {
      sc.hierarchy.backend = BackendKind::kEvent;
    } else {
      return err(path + ".backend", "\"" + backend + "\" is not one of \"graph\", \"event\"");
    }
    const auto branching_it = sys->find("branching");
    if (branching_it == sys->end()) return err(path + ".branching", "required field missing");
    if (!branching_it->second.is_array()) {
      return err(path + ".branching", std::string("expected array (got ") +
                                          type_name(branching_it->second) + ")");
    }
    const auto& levels = branching_it->second.items();
    if (levels.empty() || levels.size() > 4) {
      return err(path + ".branching", "expected 1-4 levels, got " +
                                          std::to_string(levels.size()));
    }
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < levels.size(); ++i) {
      const std::string lpath = path + ".branching[" + std::to_string(i) + "]";
      if (!levels[i].is_u64()) {
        return err(lpath, std::string("expected u64 (got ") + type_name(levels[i]) + ")");
      }
      const std::uint64_t fanout = levels[i].as_u64();
      if (fanout == 0 || fanout > 10'000) {
        return err(lpath, "fan-out " + std::to_string(fanout) + " outside [1, 10000]");
      }
      total *= fanout;
      if (total > 200'000) return err(path + ".branching", "topology exceeds 200000 nodes");
      sc.hierarchy.branching.push_back(fanout);
    }
    if (auto e = parse_design(*sys, path, &sc.hierarchy.params.design); !e.empty()) return e;
    if (auto e = get_positive_u32(*sys, path, "k", &sc.hierarchy.params.k); !e.empty()) {
      return e;
    }
    if (auto e = get_positive_u32(*sys, path, "q", &sc.hierarchy.params.q); !e.empty()) {
      return e;
    }
    if (auto e = get_u64(*sys, path, "record_ttl", false, &sc.hierarchy.record_ttl);
        !e.empty()) {
      return e;
    }
    if (auto e = get_u64(*sys, path, "ticks_per_second", false, &sc.hierarchy.ticks_per_second);
        !e.empty()) {
      return e;
    }
    if (sc.hierarchy.ticks_per_second == 0) {
      return err(path + ".ticks_per_second", "must be >= 1");
    }
    if (auto e = get_u64(*sys, path, "client_deadline", false, &sc.hierarchy.client_deadline);
        !e.empty()) {
      return e;
    }
    if (const auto res_it = sys->find("resolver"); res_it != sys->end()) {
      const std::string rpath = path + ".resolver";
      const Json::Object* res = nullptr;
      if (auto e = need_object(&res_it->second, rpath, &res); !e.empty()) return e;
      if (auto e = reject_unknown(*res, rpath, {"kind", "capacity"}); !e.empty()) return e;
      std::string rkind;
      if (auto e = get_string(*res, rpath, "kind", false, &rkind); !e.empty()) return e;
      if (rkind == "concurrent") {
        sc.hierarchy.resolver = ResolverKind::kConcurrent;
      } else if (!rkind.empty() && rkind != "serial") {
        return err(rpath + ".kind",
                   "\"" + rkind + "\" is not one of \"serial\", \"concurrent\"");
      }
      if (auto e = get_u64(*res, rpath, "capacity", false, &sc.hierarchy.resolver_capacity);
          !e.empty()) {
        return e;
      }
      if (sc.hierarchy.resolver_capacity == 0) return err(rpath + ".capacity", "must be >= 1");
    }
    return "";
  }
  return err(path + ".kind", "\"" + kind + "\" is not one of \"ring\", \"hierarchy\"");
}

std::string parse_workload(const Json::Object& top, Scenario& sc) {
  const std::string path = "$.workload";
  const Json::Object* wl = nullptr;
  const auto it = top.find("workload");
  if (auto e = need_object(it == top.end() ? nullptr : &it->second, path, &wl); !e.empty()) {
    return e;
  }
  const bool ring = sc.kind == SystemKind::kRing;
  if (ring) {
    if (auto e = reject_unknown(*wl, path,
                                {"horizon", "window", "start", "alive_sources", "phases"});
        !e.empty()) {
      return e;
    }
  } else {
    if (auto e = reject_unknown(*wl, path, {"horizon", "window", "phases"}); !e.empty()) {
      return e;
    }
  }
  if (auto e = get_u64(*wl, path, "horizon", true, &sc.horizon); !e.empty()) return e;
  if (auto e = get_u64(*wl, path, "window", true, &sc.window); !e.empty()) return e;
  if (sc.window == 0) return err(path + ".window", "must be >= 1");
  if (sc.horizon < sc.window) return err(path + ".horizon", "must be >= window");
  if (ring) {
    if (auto e = get_u64(*wl, path, "start", false, &sc.start); !e.empty()) return e;
    if (auto e = get_bool01(*wl, path, "alive_sources", &sc.alive_sources); !e.empty()) {
      return e;
    }
  }

  const auto phases_it = wl->find("phases");
  if (phases_it == wl->end()) return err(path + ".phases", "required field missing");
  if (!phases_it->second.is_array()) {
    return err(path + ".phases",
               std::string("expected array (got ") + type_name(phases_it->second) + ")");
  }
  const auto& items = phases_it->second.items();
  if (items.empty()) return err(path + ".phases", "at least one phase required");
  const std::uint64_t universe =
      ring ? sc.ring.size
           : [&sc] {
               std::uint64_t leaves = 1;
               for (const auto b : sc.hierarchy.branching) leaves *= b;
               return leaves;
             }();
  std::uint64_t previous_until = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string ppath = path + ".phases[" + std::to_string(i) + "]";
    const Json::Object* phase = nullptr;
    if (auto e = need_object(&items[i], ppath, &phase); !e.empty()) return e;
    if (auto e = reject_unknown(*phase, ppath,
                                ring ? std::initializer_list<std::string_view>{
                                           "until", "interval", "popularity"}
                                     : std::initializer_list<std::string_view>{
                                           "until", "rate", "popularity"});
        !e.empty()) {
      return e;
    }
    Phase p;
    if (auto e = get_u64(*phase, ppath, "until", true, &p.until); !e.empty()) return e;
    if (p.until <= previous_until) {
      return err(ppath + ".until", "phase boundaries must be strictly increasing");
    }
    previous_until = p.until;
    if (ring) {
      if (auto e = get_u64(*phase, ppath, "interval", true, &p.interval); !e.empty()) return e;
      if (p.interval == 0) return err(ppath + ".interval", "must be >= 1");
    } else {
      if (auto e = get_u64(*phase, ppath, "rate", true, &p.rate); !e.empty()) return e;
      if (p.rate == 0) return err(ppath + ".rate", "must be >= 1");
    }
    if (auto e = parse_popularity(*phase, ppath, universe, &p.popularity); !e.empty()) return e;
    sc.phases.push_back(std::move(p));
  }
  if (sc.phases.back().until != sc.horizon) {
    return err(path + ".phases[" + std::to_string(items.size() - 1) + "].until",
               "last phase must end exactly at the horizon (" + std::to_string(sc.horizon) +
                   ")");
  }
  return "";
}

std::string parse_faults(const Json::Object& top, Scenario& sc) {
  const auto it = top.find("faults");
  if (it == top.end()) return "";
  const std::string path = "$.faults";
  const Json::Object* faults = nullptr;
  if (auto e = need_object(&it->second, path, &faults); !e.empty()) return e;
  if (auto e = reject_unknown(*faults, path, {"plan"}); !e.empty()) return e;
  const auto plan_it = faults->find("plan");
  if (plan_it == faults->end()) return err(path + ".plan", "required field missing");
  if (!plan_it->second.is_array()) {
    return err(path + ".plan",
               std::string("expected array (got ") + type_name(plan_it->second) + ")");
  }
  std::string joined;
  const auto& lines = plan_it->second.items();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].is_string()) {
      return err(path + ".plan[" + std::to_string(i) + "]",
                 std::string("expected string (got ") + type_name(lines[i]) + ")");
    }
    sc.fault_lines.push_back(lines[i].as_string());
    joined += lines[i].as_string();
    joined += '\n';
  }
  std::string parse_error;
  auto plan = sim::FaultPlan::parse(joined, &parse_error);
  if (!plan.has_value()) return err(path + ".plan", parse_error);
  if (sc.kind == SystemKind::kRing && plan->needs_behavior_hook()) {
    return err(path + ".plan", "byzantine() is unsupported on the ring system "
                               "(no insider behavior hook)");
  }
  if (sc.kind == SystemKind::kHierarchy && sc.hierarchy.backend == BackendKind::kGraph) {
    return err(path, "the graph backend cannot schedule faults; use backend "
                     "\"event\" or an oracle \"strike\" attacker");
  }
  sc.faults = std::move(*plan);
  return "";
}

std::string parse_attacker(const Json::Object& top, Scenario& sc) {
  const auto it = top.find("attacker");
  if (it == top.end()) return "";
  const std::string path = "$.attacker";
  const Json::Object* atk = nullptr;
  if (auto e = need_object(&it->second, path, &atk); !e.empty()) return e;
  std::string kind;
  if (auto e = get_string(*atk, path, "kind", true, &kind); !e.empty()) return e;
  Attacker& a = sc.attacker;
  if (kind == "adaptive") {
    if (sc.kind != SystemKind::kRing) {
      return err(path + ".kind", "\"adaptive\" requires a ring system (it subscribes "
                                 "to ring recovery_adopt events)");
    }
    a.kind = AttackerKind::kAdaptive;
    if (auto e = reject_unknown(*atk, path,
                                {"kind", "neighborhood", "reaction_delay", "strike_duration",
                                 "max_strikes", "cooldown"});
        !e.empty()) {
      return e;
    }
    std::uint64_t v = a.neighborhood;
    if (auto e = get_u64(*atk, path, "neighborhood", false, &v); !e.empty()) return e;
    a.neighborhood = static_cast<std::uint32_t>(v);
    if (auto e = get_u64(*atk, path, "reaction_delay", false, &a.reaction_delay); !e.empty()) {
      return e;
    }
    if (auto e = get_u64(*atk, path, "strike_duration", false, &a.strike_duration);
        !e.empty()) {
      return e;
    }
    v = a.max_strikes;
    if (auto e = get_u64(*atk, path, "max_strikes", false, &v); !e.empty()) return e;
    a.max_strikes = static_cast<std::uint32_t>(v);
    if (auto e = get_u64(*atk, path, "cooldown", false, &a.cooldown); !e.empty()) return e;
    return "";
  }
  if (kind == "strike") {
    if (sc.kind != SystemKind::kHierarchy) {
      return err(path + ".kind", "\"strike\" requires a hierarchy system (victims are "
                                 "admitted names); ring strikes go in $.faults.plan");
    }
    a.kind = AttackerKind::kStrike;
    if (auto e = reject_unknown(*atk, path,
                                {"kind", "victims", "at", "duration", "strikes", "gap"});
        !e.empty()) {
      return e;
    }
    const auto victims_it = atk->find("victims");
    if (victims_it == atk->end()) return err(path + ".victims", "required field missing");
    if (!victims_it->second.is_array() || victims_it->second.items().empty()) {
      return err(path + ".victims", "expected non-empty array of admitted names");
    }
    std::vector<std::string> all;
    std::vector<std::string> leaves;
    gen_names(sc.hierarchy.branching, 0, "", &all, &leaves);
    const std::set<std::string> known(all.begin(), all.end());
    const auto& victims = victims_it->second.items();
    for (std::size_t i = 0; i < victims.size(); ++i) {
      const std::string vpath = path + ".victims[" + std::to_string(i) + "]";
      if (!victims[i].is_string()) {
        return err(vpath, std::string("expected string (got ") + type_name(victims[i]) + ")");
      }
      const std::string& name = victims[i].as_string();
      if (known.count(name) == 0) {
        return err(vpath, "\"" + name + "\" is not in the generated topology (names are "
                                        "\"n<i>\", \"n<j>.n<i>\", ...)");
      }
      a.victims.push_back(name);
    }
    if (auto e = get_u64(*atk, path, "at", true, &a.at); !e.empty()) return e;
    if (auto e = get_u64(*atk, path, "duration", true, &a.duration); !e.empty()) return e;
    if (a.duration == 0) return err(path + ".duration", "must be >= 1");
    std::uint64_t v = a.strikes;
    if (auto e = get_u64(*atk, path, "strikes", false, &v); !e.empty()) return e;
    if (v == 0) return err(path + ".strikes", "must be >= 1");
    a.strikes = static_cast<std::uint32_t>(v);
    if (auto e = get_u64(*atk, path, "gap", false, &a.gap); !e.empty()) return e;
    return "";
  }
  if (kind == "cache_busting") {
    if (sc.kind != SystemKind::kHierarchy) {
      return err(path + ".kind",
                 "\"cache_busting\" requires a hierarchy system (it attacks the "
                 "resolver cache)");
    }
    a.kind = AttackerKind::kCacheBusting;
    if (auto e = reject_unknown(*atk, path, {"kind", "hosts", "rate", "from", "until"});
        !e.empty()) {
      return e;
    }
    if (auto e = get_u64(*atk, path, "hosts", false, &a.hosts); !e.empty()) return e;
    if (a.hosts == 0 || a.hosts > 100'000) {
      return err(path + ".hosts", "must be in [1, 100000]");
    }
    if (auto e = get_u64(*atk, path, "rate", true, &a.rate); !e.empty()) return e;
    if (a.rate == 0) return err(path + ".rate", "must be >= 1");
    if (auto e = get_u64(*atk, path, "from", true, &a.from); !e.empty()) return e;
    if (auto e = get_u64(*atk, path, "until", true, &a.until); !e.empty()) return e;
    if (a.until <= a.from) return err(path + ".until", "must be > from");
    return "";
  }
  return err(path + ".kind", "\"" + kind + "\" is not one of \"adaptive\", \"strike\", "
                                           "\"cache_busting\"");
}

std::string parse_liveness(const Json::Object& top, Scenario& sc) {
  const auto it = top.find("liveness");
  if (it == top.end()) return "";  // default probe_only
  const std::string path = "$.liveness";
  const Json::Object* lv = nullptr;
  if (auto e = need_object(&it->second, path, &lv); !e.empty()) return e;
  if (auto e = reject_unknown(*lv, path, {"source", "digest_budget", "digest_horizon"});
      !e.empty()) {
    return e;
  }
  std::string source;
  if (auto e = get_string(*lv, path, "source", true, &source); !e.empty()) return e;
  if (source == "probe_only") {
    sc.liveness.mode = liveness::Mode::kProbeOnly;
  } else if (source == "gossip") {
    sc.liveness.mode = liveness::Mode::kGossip;
  } else {
    return err(path + ".source",
               "\"" + source + "\" is not one of \"probe_only\", \"gossip\"");
  }
  std::uint64_t budget = sc.liveness.digest_budget;
  if (auto e = get_u64(*lv, path, "digest_budget", false, &budget); !e.empty()) return e;
  if (budget == 0 || budget > 64) {
    return err(path + ".digest_budget", "must be in [1, 64]");
  }
  sc.liveness.digest_budget = static_cast<std::uint32_t>(budget);
  if (auto e = get_u64(*lv, path, "digest_horizon", false, &sc.liveness.digest_horizon);
      !e.empty()) {
    return e;
  }
  if (sc.liveness.digest_horizon == 0) return err(path + ".digest_horizon", "must be >= 1");
  if (sc.liveness.mode == liveness::Mode::kProbeOnly &&
      (lv->find("digest_budget") != lv->end() || lv->find("digest_horizon") != lv->end())) {
    return err(path, "digest tuning requires source \"gossip\"");
  }
  return "";
}

/// Resolver stat names a counter expectation may reference (hierarchy-only;
/// the runner reads them off ResolverStats after the run).
constexpr std::string_view kCounterNames[] = {
    "cache_hits", "cache_misses", "failures", "evictions", "refusals", "zones_flagged"};

std::string parse_metrics(const Json::Object& top, Scenario& sc) {
  MetricsSpec& m = sc.metrics;
  const auto it = top.find("metrics");
  if (it == top.end()) return "";
  const std::string path = "$.metrics";
  const Json::Object* metrics = nullptr;
  if (auto e = need_object(&it->second, path, &metrics); !e.empty()) return e;
  if (auto e = reject_unknown(*metrics, path,
                              {"emit", "phases", "fixpoint", "detection", "expect"});
      !e.empty()) {
    return e;
  }
  const bool ring = sc.kind == SystemKind::kRing;

  if (const auto emit_it = metrics->find("emit"); emit_it != metrics->end()) {
    if (!emit_it->second.is_array()) {
      return err(path + ".emit",
                 std::string("expected array (got ") + type_name(emit_it->second) + ")");
    }
    m.timeline = m.traffic = m.windows = m.phases = m.client = false;
    m.faults = m.counters = m.resolver = m.attacker = false;
    const auto& sections = emit_it->second.items();
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const std::string epath = path + ".emit[" + std::to_string(i) + "]";
      if (!sections[i].is_string()) {
        return err(epath, std::string("expected string (got ") + type_name(sections[i]) + ")");
      }
      const std::string& section = sections[i].as_string();
      bool* flag = nullptr;
      if (ring && section == "timeline") flag = &m.timeline;
      if (ring && section == "traffic") flag = &m.traffic;
      if (ring && section == "counters") flag = &m.counters;
      if (!ring && section == "windows") flag = &m.windows;
      if (!ring && section == "resolver") flag = &m.resolver;
      if (section == "phases") flag = &m.phases;
      if (section == "client") flag = &m.client;
      if (section == "faults") flag = &m.faults;
      if (section == "attacker") flag = &m.attacker;
      if (flag == nullptr) {
        return err(epath, "\"" + section + "\" is not a " +
                              (ring ? std::string("ring") : std::string("hierarchy")) +
                              " report section");
      }
      *flag = true;
    }
  }

  if (auto e = get_bool01(*metrics, path, "fixpoint", &m.fixpoint); !e.empty()) return e;
  if (m.fixpoint && !ring) {
    return err(path + ".fixpoint", "the no-fault fixpoint check is ring-only");
  }
  if (auto e = get_bool01(*metrics, path, "detection", &m.detection); !e.empty()) return e;
  if (m.detection && !ring) {
    return err(path + ".detection", "the detection control run is ring-only");
  }
  if (m.detection && sc.liveness.mode != liveness::Mode::kGossip) {
    return err(path + ".detection",
               "requires $.liveness.source = \"gossip\" (the control run is its probe-only "
               "twin)");
  }

  std::set<std::string> phase_names;
  if (const auto phases_it = metrics->find("phases"); phases_it != metrics->end()) {
    if (!phases_it->second.is_array()) {
      return err(path + ".phases",
                 std::string("expected array (got ") + type_name(phases_it->second) + ")");
    }
    const auto& items = phases_it->second.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string ppath = path + ".phases[" + std::to_string(i) + "]";
      const Json::Object* phase = nullptr;
      if (auto e = need_object(&items[i], ppath, &phase); !e.empty()) return e;
      if (auto e = reject_unknown(*phase, ppath, {"name", "from", "until"}); !e.empty()) {
        return e;
      }
      MetricPhase mp;
      if (auto e = get_string(*phase, ppath, "name", true, &mp.name); !e.empty()) return e;
      if (mp.name.empty()) return err(ppath + ".name", "must be non-empty");
      if (!phase_names.insert(mp.name).second) {
        return err(ppath + ".name", "duplicate phase name \"" + mp.name + "\"");
      }
      if (auto e = get_u64(*phase, ppath, "from", true, &mp.from); !e.empty()) return e;
      if (auto e = get_u64(*phase, ppath, "until", true, &mp.until); !e.empty()) return e;
      if (mp.until <= mp.from) return err(ppath + ".until", "must be > from");
      m.phase_defs.push_back(std::move(mp));
    }
  }

  if (const auto expect_it = metrics->find("expect"); expect_it != metrics->end()) {
    if (!expect_it->second.is_array()) {
      return err(path + ".expect",
                 std::string("expected array (got ") + type_name(expect_it->second) + ")");
    }
    const auto& items = expect_it->second.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::string epath = path + ".expect[" + std::to_string(i) + "]";
      const Json::Object* check = nullptr;
      if (auto e = need_object(&items[i], epath, &check); !e.empty()) return e;
      std::string kind;
      if (auto e = get_string(*check, epath, "kind", true, &kind); !e.empty()) return e;
      Expectation ex;
      if (kind == "flag") {
        if (!ring) return err(epath + ".kind", "\"flag\" expectations are ring-only");
        ex.kind = Expectation::Kind::kFlag;
        if (auto e = reject_unknown(*check, epath, {"kind", "name"}); !e.empty()) return e;
        if (auto e = get_string(*check, epath, "name", true, &ex.flag); !e.empty()) return e;
        const bool fixpoint_flag = ex.flag == "split_observed" || ex.flag == "remerged" ||
                                   ex.flag == "fixpoint_matches";
        const bool detection_flag =
            ex.flag == "detection_improved" || ex.flag == "digest_budget_respected";
        if (!fixpoint_flag && !detection_flag) {
          return err(epath + ".name", "\"" + ex.flag +
                                          "\" is not one of \"split_observed\", "
                                          "\"remerged\", \"fixpoint_matches\", "
                                          "\"detection_improved\", "
                                          "\"digest_budget_respected\"");
        }
        if (fixpoint_flag && !m.fixpoint) {
          return err(epath + ".name",
                     "flag expectations require $.metrics.fixpoint = 1 (the control run "
                     "computes them)");
        }
        if (detection_flag && !m.detection) {
          return err(epath + ".name",
                     "detection flags require $.metrics.detection = 1 (the probe-only "
                     "control run computes them)");
        }
      } else if (kind == "phase_lt" || kind == "phase_ge" || kind == "hit_rate_lt" ||
                 kind == "hit_rate_ge") {
        if (kind == "phase_lt") ex.kind = Expectation::Kind::kPhaseLt;
        if (kind == "phase_ge") ex.kind = Expectation::Kind::kPhaseGe;
        if (kind == "hit_rate_lt") ex.kind = Expectation::Kind::kHitRateLt;
        if (kind == "hit_rate_ge") ex.kind = Expectation::Kind::kHitRateGe;
        if (ring && (ex.kind == Expectation::Kind::kHitRateLt ||
                     ex.kind == Expectation::Kind::kHitRateGe)) {
          return err(epath + ".kind", "hit-rate expectations are hierarchy-only");
        }
        if (auto e = reject_unknown(*check, epath, {"kind", "left", "right"}); !e.empty()) {
          return e;
        }
        if (auto e = get_string(*check, epath, "left", true, &ex.left); !e.empty()) return e;
        if (auto e = get_string(*check, epath, "right", true, &ex.right); !e.empty()) return e;
        for (const auto* side : {&ex.left, &ex.right}) {
          if (phase_names.count(*side) == 0) {
            return err(epath, "\"" + *side + "\" is not a defined $.metrics.phases name");
          }
        }
      } else if (kind == "counter_ge" || kind == "counter_lt") {
        if (ring) return err(epath + ".kind", "counter expectations are hierarchy-only");
        ex.kind = kind == "counter_ge" ? Expectation::Kind::kCounterGe
                                       : Expectation::Kind::kCounterLt;
        if (auto e = reject_unknown(*check, epath, {"kind", "counter", "threshold"});
            !e.empty()) {
          return e;
        }
        if (auto e = get_string(*check, epath, "counter", true, &ex.counter); !e.empty()) {
          return e;
        }
        bool known = false;
        for (const auto name : kCounterNames) known = known || ex.counter == name;
        if (!known) {
          std::string listed;
          for (const auto name : kCounterNames) {
            if (!listed.empty()) listed += ", ";
            listed += "\"" + std::string(name) + "\"";
          }
          return err(epath + ".counter",
                     "\"" + ex.counter + "\" is not one of " + listed);
        }
        if (auto e = get_u64(*check, epath, "threshold", true, &ex.threshold); !e.empty()) {
          return e;
        }
      } else {
        return err(epath + ".kind",
                   "\"" + kind + "\" is not one of \"phase_lt\", \"phase_ge\", "
                                 "\"hit_rate_lt\", \"hit_rate_ge\", \"counter_ge\", "
                                 "\"counter_lt\", \"flag\"");
      }
      m.expect.push_back(std::move(ex));
    }
  }
  return "";
}

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > std::numeric_limits<std::uint64_t>::max() - b
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b) {
  return b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b
             ? std::numeric_limits<std::uint64_t>::max()
             : a * b;
}

std::string over(const std::string& path, const std::string& measure, std::uint64_t value,
                 std::uint64_t bound) {
  return err(path, measure + " comes to " + std::to_string(value) + ", over the bound of " +
                       std::to_string(bound));
}

/// The work bounds (scenario.hpp), each located at the field that crosses
/// it. Counts are upper bounds of the full-size run.
std::string check_work(const Scenario& sc) {
  const bool ring = sc.kind == SystemKind::kRing;
  std::uint64_t queries = 0;
  std::uint64_t from = 0;
  for (std::size_t i = 0; i < sc.phases.size(); ++i) {
    const Phase& p = sc.phases[i];
    const std::uint64_t span = p.until - from;
    from = p.until;
    queries = saturating_add(queries, ring ? span / p.interval + 1 : saturating_mul(span, p.rate));
    if (queries > kMaxIssuedQueries) {
      return over("$.workload.phases[" + std::to_string(i) + (ring ? "].interval" : "].rate"),
                  "issued queries", queries, kMaxIssuedQueries);
    }
  }
  if (sc.attacker.kind == AttackerKind::kCacheBusting) {
    queries = saturating_add(
        queries, saturating_mul(sc.attacker.until - sc.attacker.from, sc.attacker.rate));
    if (queries > kMaxIssuedQueries) {
      return over("$.attacker.rate", "issued queries", queries, kMaxIssuedQueries);
    }
  }
  if (sc.horizon / sc.window > kMaxWindows) {
    return over("$.workload.window", "horizon / window", sc.horizon / sc.window, kMaxWindows);
  }
  if (ring) {
    const std::uint64_t rounds =
        saturating_mul(sc.ring.size, sc.horizon / sc.ring.probe_period + 1);
    if (rounds > kMaxProbeRounds) {
      return over("$.system.probe_period", "probe rounds (size x horizon / probe_period)",
                  rounds, kMaxProbeRounds);
    }
  }
  return "";
}

}  // namespace

std::string Expectation::describe() const {
  switch (kind) {
    case Kind::kPhaseLt:
      return "phase_lt(" + left + ", " + right + ")";
    case Kind::kPhaseGe:
      return "phase_ge(" + left + ", " + right + ")";
    case Kind::kHitRateLt:
      return "hit_rate_lt(" + left + ", " + right + ")";
    case Kind::kHitRateGe:
      return "hit_rate_ge(" + left + ", " + right + ")";
    case Kind::kFlag:
      return "flag(" + flag + ")";
    case Kind::kCounterGe:
      return "counter_ge(" + counter + ", " + std::to_string(threshold) + ")";
    case Kind::kCounterLt:
      return "counter_lt(" + counter + ", " + std::to_string(threshold) + ")";
  }
  return "?";
}

std::vector<std::string> leaf_names(const std::vector<std::uint64_t>& branching) {
  std::vector<std::string> leaves;
  if (!branching.empty()) gen_names(branching, 0, "", nullptr, &leaves);
  return leaves;
}

std::vector<std::string> topology_names(const std::vector<std::uint64_t>& branching) {
  std::vector<std::string> all;
  std::vector<std::string> leaves;
  if (!branching.empty()) gen_names(branching, 0, "", &all, &leaves);
  return all;
}

std::string parse(const snapshot::Json& doc, Scenario& out) {
  out = Scenario{};
  if (!doc.is_object()) {
    return err("$", std::string("expected object (got ") + type_name(doc) + ")");
  }
  const Json::Object& top = doc.fields();
  if (auto e = reject_unknown(top, "$",
                              {"magic", "version", "name", "description", "seed", "system",
                               "workload", "faults", "attacker", "liveness", "metrics"});
      !e.empty()) {
    return e;
  }

  std::string magic;
  if (auto e = get_string(top, "$", "magic", true, &magic); !e.empty()) return e;
  if (magic != kScenarioMagic) {
    return err("$.magic", "\"" + magic + "\" is not \"" + std::string(kScenarioMagic) + "\"");
  }
  std::uint64_t version = 0;
  if (auto e = get_u64(top, "$", "version", true, &version); !e.empty()) return e;
  if (version != kScenarioVersion) {
    return err("$.version", "version " + std::to_string(version) + " unsupported (this "
                            "reader understands version " +
                                std::to_string(kScenarioVersion) + ")");
  }
  if (auto e = get_string(top, "$", "name", true, &out.name); !e.empty()) return e;
  if (out.name.empty()) return err("$.name", "must be non-empty");
  for (const char c : out.name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) {
      return err("$.name", "\"" + out.name + "\" may only contain [a-z0-9_] (it names the "
                                             "report file)");
    }
  }
  if (auto e = get_string(top, "$", "description", false, &out.description); !e.empty()) {
    return e;
  }
  if (auto e = get_u64(top, "$", "seed", true, &out.seed); !e.empty()) return e;

  if (auto e = parse_system(top, out); !e.empty()) return e;
  if (auto e = parse_workload(top, out); !e.empty()) return e;
  if (auto e = parse_faults(top, out); !e.empty()) return e;
  if (auto e = parse_attacker(top, out); !e.empty()) return e;
  if (auto e = parse_liveness(top, out); !e.empty()) return e;
  if (auto e = parse_metrics(top, out); !e.empty()) return e;
  return check_work(out);
}

std::string validate(const snapshot::Json& doc) {
  Scenario ignored;
  return parse(doc, ignored);
}

std::string load_file(const std::string& path, Scenario& out) {
  std::ifstream in{path};
  if (!in) return path + ": cannot open";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  snapshot::Json doc;
  std::string error;
  if (!snapshot::parse_json(buffer.str(), doc, &error)) {
    return path + ": " + error;
  }
  if (auto e = parse(doc, out); !e.empty()) return path + ": " + e;
  return "";
}

}  // namespace hours::scenario
