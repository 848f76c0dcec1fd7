// google-benchmark microbenchmarks for the hot primitives: SHA-1 identifier
// derivation and hierarchy admission, routing-table generation (jump
// sampler vs naive O(N) Bernoulli), greedy forwarding, Chord routing, the
// trace emission path, and the simulator's event queue.
// The BM_ForwardTraced* group bounds the cost the tracing subsystem adds to
// a hot protocol op: with no tracer attached the emission site must be
// within noise (<= 2%) of the untraced BM_ForwardEager loop. The BM_Sim*
// group reports events/sec through the simulator's event heap (items/sec in
// the benchmark output) plus peak RSS.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/chord.hpp"
#include "bench_util.hpp"
#include "hierarchy/named.hpp"
#include "ids/identifier.hpp"
#include "naming/name.hpp"
#include "overlay/overlay.hpp"
#include "overlay/table_builder.hpp"
#include "rng/pointer_sampler.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/simulator.hpp"
#include "trace/ring_buffer_sink.hpp"
#include "trace/sink.hpp"

namespace {

using namespace hours;

/// `count` names of scale_smoke's shape ("c3.b17.a4"); with `long_label`
/// each gains a 60-byte label, so its padded message takes two SHA-1
/// blocks instead of one.
std::vector<std::string> tree_names(std::size_t count, bool long_label) {
  std::vector<std::string> names;
  names.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = "c";
    name += std::to_string(i % 100);
    name += ".b";
    name += std::to_string(i / 100 % 100);
    name += ".a";
    name += std::to_string(i / 10'000 % 100);
    if (long_label) {
      name += '.';
      name.append(60, 'r');
    }
    names.push_back(std::move(name));
  }
  return names;
}

/// SHA-1(name), the per-node identifier (Section 3.2) every admission
/// derives. range(0) is the number of 64-byte blocks a name takes.
void BM_IdentifierFromName(benchmark::State& state) {
  const auto names = tree_names(1 << 16, state.range(0) == 2);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ids::Identifier::from_name(names[i]));
    i = (i + 1) % names.size();
  }
}
BENCHMARK(BM_IdentifierFromName)->Arg(1)->Arg(2);

/// NamedHierarchy::admit over a three-level tree of fanout range(0), parents
/// first; items/sec is admissions per second. Each iteration admits the
/// whole tree into a fresh hierarchy; copying the names and destroying the
/// tree are not timed.
void BM_HierarchyAdmit(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  std::vector<naming::Name> names;
  std::vector<std::string> level{""};  // the parent level's suffixes
  for (const char prefix : {'a', 'b', 'c'}) {
    std::vector<std::string> next;
    for (const auto& parent : level) {
      for (std::size_t i = 0; i < fanout; ++i) {
        std::string text{prefix};
        text += std::to_string(i);
        if (!parent.empty()) {
          text += '.';
          text += parent;
        }
        names.push_back(naming::Name::parse(text).value());
        next.push_back(std::move(text));
      }
    }
    level = std::move(next);
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto batch = names;
    auto hierarchy = std::make_unique<hierarchy::NamedHierarchy>(overlay::OverlayParams{});
    state.ResumeTiming();
    for (auto& name : batch) benchmark::DoNotOptimize(hierarchy->admit(std::move(name)));
    state.PauseTiming();
    hierarchy.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_HierarchyAdmit)->Arg(16)->Arg(40);

void BM_SamplerJump(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Xoshiro256 rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_pointer_distances(n, 5, rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SamplerJump)->Range(1024, 1 << 21)->Complexity(benchmark::oLogN);

void BM_SamplerNaive(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  rng::Xoshiro256 rng{42};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng::sample_pointer_distances_naive(n, 5, rng));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SamplerNaive)->Range(1024, 1 << 17)->Complexity(benchmark::oN);

void BM_TableBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  overlay::OverlayParams params;
  params.design = overlay::Design::kEnhanced;
  params.k = 5;
  std::uint32_t owner = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::build_routing_table(n, owner, params));
    owner = (owner + 1) % n;
  }
}
BENCHMARK(BM_TableBuild)->Range(1024, 1 << 21);

void BM_ForwardEager(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  overlay::OverlayParams params;
  params.design = overlay::Design::kEnhanced;
  params.k = 5;
  const overlay::Overlay ov{n, params};
  rng::Xoshiro256 rng{7};
  for (auto _ : state) {
    const auto from = static_cast<ids::RingIndex>(rng.below(n));
    const auto to = static_cast<ids::RingIndex>(rng.below(n));
    benchmark::DoNotOptimize(ov.forward(from, to));
  }
}
BENCHMARK(BM_ForwardEager)->Range(1024, 1 << 16);

void BM_ForwardLazy(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  overlay::OverlayParams params;
  params.design = overlay::Design::kEnhanced;
  params.k = 5;
  const overlay::Overlay ov{n, params, overlay::TableStorage::kLazy};
  rng::Xoshiro256 rng{7};
  for (auto _ : state) {
    const auto from = static_cast<ids::RingIndex>(rng.below(n));
    const auto to = static_cast<ids::RingIndex>(rng.below(n));
    benchmark::DoNotOptimize(ov.forward(from, to));
  }
}
BENCHMARK(BM_ForwardLazy)->Range(1024, 1 << 20);

/// The forwarding loop of BM_ForwardEager with a per-hop emission site, the
/// way ring_protocol's hot path is instrumented. `tracer` selects the mode:
/// nullptr = tracing disabled (the default for every protocol object), a
/// sink-less tracer = attached but idle, a sink-backed tracer = recording.
void forward_traced_loop(benchmark::State& state, trace::Tracer* tracer) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  overlay::OverlayParams params;
  params.design = overlay::Design::kEnhanced;
  params.k = 5;
  const overlay::Overlay ov{n, params};
  rng::Xoshiro256 rng{7};
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const auto from = static_cast<ids::RingIndex>(rng.below(n));
    const auto to = static_cast<ids::RingIndex>(rng.below(n));
    const auto next = ov.forward(from, to);
    benchmark::DoNotOptimize(next);
    HOURS_TRACE_EMIT(tracer, {.at = ++tick, .type = trace::EventType::kRingHop,
                              .node = from, .peer = next.last_node, .causal = tick});
  }
}

void BM_ForwardTracedDisabled(benchmark::State& state) {
  forward_traced_loop(state, nullptr);
}
BENCHMARK(BM_ForwardTracedDisabled)->Range(1024, 1 << 16);

void BM_ForwardTracedNoSink(benchmark::State& state) {
  trace::Tracer tracer;
  forward_traced_loop(state, &tracer);
}
BENCHMARK(BM_ForwardTracedNoSink)->Range(1024, 1 << 16);

void BM_ForwardTracedRingBuffer(benchmark::State& state) {
  trace::Tracer tracer;
  trace::RingBufferSink sink{4096};
  tracer.add_sink(&sink);
  forward_traced_loop(state, &tracer);
}
BENCHMARK(BM_ForwardTracedRingBuffer)->Range(1024, 1 << 16);

/// Raw cost of one emit through the dispatcher into the ring buffer.
void BM_TraceEmit(benchmark::State& state) {
  trace::Tracer tracer;
  trace::RingBufferSink sink{4096};
  tracer.add_sink(&sink);
  std::uint64_t tick = 0;
  for (auto _ : state) {
    tracer.emit({.at = ++tick, .type = trace::EventType::kProbeSent, .node = 1, .peer = 2});
  }
  benchmark::DoNotOptimize(sink.total_events());
}
BENCHMARK(BM_TraceEmit);

/// Steady-state event-queue churn at `n` live events: each iteration
/// schedules one described event at a random instant up to 2^17 ticks out
/// and dispatches the earliest pending one, so the queue stays at ~n events
/// and its insert + pop + dispatch path dominates. Items/sec in the report
/// is events/sec through the simulator. Workloads queue at most a few
/// hundred events (a 10,000-node ring up to ~16,000); the 8-16,384 points
/// cover them, the range beyond is the stress end.
void BM_SimWheelChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  sim::Simulator sim;
  std::uint64_t dispatched = 0;
  sim.set_runner([&dispatched](std::uint16_t, const std::uint64_t*, std::size_t) {
    ++dispatched;
  });
  rng::Xoshiro256 rng{0x5E7'Au};
  const std::uint64_t arg = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sim.schedule(1 + rng.below(1u << 17), /*kind=*/0x900, &arg, 1);
  }
  for (auto _ : state) {
    sim.schedule(1 + rng.below(1u << 17), /*kind=*/0x900, &arg, 1);
    sim.run(/*limit=*/0, /*max_events=*/1);
  }
  benchmark::DoNotOptimize(dispatched);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["peak_rss_mb"] =
      static_cast<double>(hours::bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_SimWheelChurn)->Arg(8)->Arg(64)->Arg(512)->Arg(16384)->Range(1024, 1 << 20);

/// A full message-level query between random siblings of a single-overlay
/// hierarchy: transport deliveries, acks and continuations all ride the
/// event queue. Items/sec is simulator events/sec at protocol granularity.
void BM_SimHierQuery(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::TreeTopology topology;
  topology.child_counts.assign(n + 1, 0);
  topology.child_counts[0] = n;
  sim::HierarchySimConfig config;
  config.params.design = overlay::Design::kEnhanced;
  config.params.k = 5;
  sim::HierarchySimulation sim{config, topology};
  rng::Xoshiro256 rng{0x5E7'Bu};
  std::uint64_t events = 0;
  for (auto _ : state) {
    const auto from = static_cast<std::uint32_t>(rng.below(n));
    auto to = static_cast<std::uint32_t>(rng.below(n));
    if (to == from) to = (to + 1) % n;
    const std::uint64_t qid =
        sim.inject_query(hierarchy::NodePath{to}, hierarchy::NodePath{from});
    events += sim.simulator().run();
    HOURS_ASSERT(!sim.simulator().truncated());
    benchmark::DoNotOptimize(sim.query(qid).delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["peak_rss_mb"] =
      static_cast<double>(hours::bench::peak_rss_bytes()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_SimHierQuery)->Range(1024, 1 << 16);

void BM_ChordRoute(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const baseline::ChordOverlay chord{n};
  rng::Xoshiro256 rng{7};
  for (auto _ : state) {
    const auto from = static_cast<ids::RingIndex>(rng.below(n));
    const auto to = static_cast<ids::RingIndex>(rng.below(n));
    benchmark::DoNotOptimize(chord.route(from, to));
  }
}
BENCHMARK(BM_ChordRoute)->Range(1024, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
