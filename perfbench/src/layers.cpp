// Micro-timed layer probes for the traced run: each probe calls one layer's
// public functions over the workload's own inputs (its wire messages,
// attribute sets, routes and ROAs), several passes, each pass one span, and
// reports the median span as nanoseconds per call.

#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "bgp/attr.hpp"
#include "bgp/codec.hpp"
#include "bgp/decision.hpp"
#include "bgp/policy.hpp"
#include "hosts/fir/fir_core.hpp"
#include "hosts/wren/wren_core.hpp"
#include "rpki/roa_hash.hpp"
#include "rpki/roa_lpfst.hpp"
#include "rpki/rtr_client.hpp"

namespace perfbench {
namespace {

using namespace xb;

// Results feed this so the optimizer cannot drop the timed calls.
volatile std::uint64_t g_sink = 0;

struct Prober {
  Spans& spans;
  Record& out;
  std::size_t passes;

  /// Runs `pass(timed)` `passes` times. A pass does its untimed set-up and
  /// hands its `calls` calls to `timed`, which records them as one
  /// "calls:<name>" span. The metric is the median span's time per call.
  template <typename Pass>
  void probe(const std::string& name, const char* unit_name, std::size_t calls, Pass&& pass) {
    Spans::Scope s(spans, "probe:" + name);
    s.set_count(calls * passes);
    const std::string span = "calls:" + name;
    for (std::size_t i = 0; i < passes; ++i) {
      pass([&](auto&& body) {
        Spans::Scope c(spans, span);
        c.set_count(calls);
        body();
      });
    }
    out.layer(name, median(spans.durations_ns(span)) / static_cast<double>(calls), unit_name);
  }
};

template <typename Core>
void probe_core(Prober& pr, const std::string& host, const std::vector<bgp::UpdateMessage>& msgs) {
  using Attrs = typename Core::Attrs;
  const std::size_t n = msgs.size();
  std::vector<Attrs> attrs;
  attrs.reserve(n);
  for (const auto& m : msgs) attrs.push_back(Core::from_wire(m.attrs, {}));

  pr.probe(host + ".core.from_wire_ns", "ns", n, [&](auto&& timed) {
    std::vector<Attrs> out;
    out.reserve(n);
    timed([&] {
      for (const auto& m : msgs) out.push_back(Core::from_wire(m.attrs, {}));
    });
  });
  pr.probe(host + ".core.to_wire_ns", "ns", n, [&](auto&& timed) {
    timed([&] {
      for (const auto& a : attrs) g_sink = g_sink + Core::to_wire(a).size();
    });
  });
  pr.probe(host + ".core.get_attr_ns", "ns", 2 * n, [&](auto&& timed) {
    timed([&] {
      for (const auto& a : attrs) {
        if (auto v = Core::get_attr(a, bgp::attr_code::kAsPath)) g_sink = g_sink + v->value.size();
        if (auto v = Core::get_attr(a, bgp::attr_code::kNextHop)) g_sink = g_sink + v->value.size();
      }
    });
  });
  pr.probe(host + ".core.set_attr_ns", "ns", n, [&](auto&& timed) {
    std::vector<Attrs> work = attrs;
    timed([&] {
      std::uint32_t med = 0;
      for (auto& a : work) g_sink = g_sink + Core::set_attr(a, bgp::make_med(med++));
    });
  });
  pr.probe(host + ".core.canonical_key_ns", "ns", n, [&](auto&& timed) {
    timed([&] {
      for (const auto& a : attrs) g_sink = g_sink + Core::canonical_key(a).size();
    });
  });
}

}  // namespace

void probe_layers(const LayerInputs& in, bool tiny, Spans& spans, Record& out) {
  Prober pr{spans, out, tiny ? std::size_t{1} : std::size_t{5}};
  const std::size_t msgs = in.wire.size();

  pr.probe("codec.decode_ns_per_msg", "ns", msgs, [&](auto&& timed) {
    timed([&] {
      for (const auto& wire : in.wire) {
        const auto frame = bgp::try_frame(wire);
        const auto update = bgp::decode_update(frame->body);
        g_sink = g_sink + update->nlri.size();
      }
    });
  });
  pr.probe("codec.encode_ns_per_msg", "ns", msgs, [&](auto&& timed) {
    timed([&] {
      for (const auto& m : in.decoded) g_sink = g_sink + bgp::encode_update(m).size();
    });
  });

  probe_core<hosts::fir::FirCore>(pr, "fir", in.decoded);
  probe_core<hosts::wren::WrenCore>(pr, "wren", in.decoded);

  using FirCore = hosts::fir::FirCore;
  std::vector<FirCore::Attrs> attrs;
  for (const auto& m : in.decoded) attrs.push_back(FirCore::from_wire(m.attrs, {}));

  // Interning as ingest does it: a fresh table, canonical keys made beforehand.
  pr.probe("intern.ns_per_call", "ns", msgs, [&](auto&& timed) {
    bgp::Interner<FirCore::Attrs> interner;
    std::vector<std::shared_ptr<const FirCore::Attrs>> values;
    std::vector<std::string> keys;
    for (const auto& a : attrs) {
      values.push_back(std::make_shared<const FirCore::Attrs>(a));
      keys.push_back(FirCore::canonical_key(a));
    }
    std::vector<std::shared_ptr<const FirCore::Attrs>> held;
    held.reserve(msgs);
    timed([&] {
      for (std::size_t i = 0; i < msgs; ++i) {
        held.push_back(interner.intern(std::move(values[i]), std::move(keys[i])));
      }
    });
  });

  // Route-map inputs per route, as the engine's import/export path builds them.
  struct Flat {
    std::vector<bgp::Asn> path;
    std::vector<std::uint32_t> comms;
  };
  std::vector<Flat> flats(attrs.size());
  std::vector<bgp::policy::RouteFacts> facts;
  for (std::size_t m = 0; m < attrs.size(); ++m) {
    FirCore::flatten_as_path(attrs[m], flats[m].path);
    FirCore::communities_of(attrs[m], flats[m].comms);
    for (const auto& prefix : in.decoded[m].nlri) {
      bgp::policy::RouteFacts f;
      f.prefix = prefix;
      f.origin_asn = FirCore::origin_asn(attrs[m]);
      f.as_path = flats[m].path;
      f.communities = flats[m].comms;
      f.next_hop = FirCore::next_hop(attrs[m]);
      f.local_pref = FirCore::local_pref_or(attrs[m], 100);
      f.med = FirCore::med(attrs[m]);
      facts.push_back(f);
    }
  }
  const auto import_map = bgp::policy::standard_import_policy();
  const auto export_map = bgp::policy::standard_export_policy();
  pr.probe("policy.import_ns_per_route", "ns", facts.size(), [&](auto&& timed) {
    auto work = facts;
    timed([&] {
      for (auto& f : work) g_sink = g_sink + import_map.evaluate(f).permitted;
    });
  });
  pr.probe("policy.export_ns_per_route", "ns", facts.size(), [&](auto&& timed) {
    auto work = facts;
    timed([&] {
      for (auto& f : work) g_sink = g_sink + export_map.evaluate(f).permitted;
    });
  });

  std::vector<bgp::RouteView> views;
  for (std::size_t m = 0; m < attrs.size(); ++m) {
    bgp::RouteView v;
    v.local_pref = FirCore::local_pref_or(attrs[m], 100);
    v.as_path_length = FirCore::as_path_length(attrs[m]);
    v.origin = FirCore::origin(attrs[m]);
    v.med = FirCore::med(attrs[m]);
    v.neighbor_as = FirCore::first_asn(attrs[m]);
    v.peer_router_id = static_cast<bgp::RouterId>(m);
    views.push_back(v);
  }
  if (views.size() >= 2) {
    pr.probe("decision.compare_ns", "ns", views.size() - 1, [&](auto&& timed) {
      timed([&] {
        for (std::size_t i = 0; i + 1 < views.size(); ++i) {
          g_sink = g_sink + bgp::compare_routes(views[i], views[i + 1]).first_is_better;
        }
      });
    });
  }

  rpki::LpfstRoaTable trie;
  rpki::RoaHashTable hash;
  rpki::fill_table(trie, in.roas);
  rpki::fill_table(hash, in.roas);
  rpki::LockedRoaTable locked(trie);
  pr.probe("rpki.trie_ns_per_lookup", "ns", in.routes.size(), [&](auto&& timed) {
    timed([&] {
      for (const auto& r : in.routes) {
        g_sink = g_sink + static_cast<std::uint64_t>(locked.validate(r.prefix, r.origin));
      }
    });
  });
  pr.probe("rpki.hash_ns_per_lookup", "ns", in.routes.size(), [&](auto&& timed) {
    timed([&] {
      for (const auto& r : in.routes) {
        g_sink = g_sink + static_cast<std::uint64_t>(hash.validate(r.prefix, r.origin));
      }
    });
  });
}

}  // namespace perfbench
