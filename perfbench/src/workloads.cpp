// The benchmark workloads, run on the Fig. 3 testbed shape:
//
//     feeder --L1--> DUT --L2..Ln--> sinks        (in-process net::Duplex links)
//
// Every feed is a closed loop: the feeder sends the next batch of UPDATEs
// only once every sink has received the previous one. Times are taken from
// outside the DUT, around the calls the benchmark makes into it.

#include <algorithm>
#include <memory>
#include <set>
#include <thread>
#include <type_traits>

#include "bench.hpp"
#include "bgp/codec.hpp"
#include "extensions/origin_validation.hpp"
#include "extensions/route_reflection.hpp"
#include "harness/testbed.hpp"
#include "harness/workload.hpp"
#include "hosts/fir/fir_router.hpp"
#include "hosts/wren/wren_router.hpp"
#include "rpki/roa_hash.hpp"
#include "rpki/roa_lpfst.hpp"
#include "rpki/rtr_client.hpp"

namespace perfbench {
namespace {

using namespace xb;
using Fir = hosts::fir::FirRouter;
using Wren = hosts::wren::WrenRouter;

constexpr std::uint64_t kMs = 1'000'000ull;
constexpr std::uint64_t kSec = 1'000'000'000ull;

enum class Use { kRR, kOV };
enum class Mode { kNative, kExt };

/// A downstream peer's export policy class (the RibOut grouping inputs).
struct SinkClass {
  const char* name;
  bool rr_client;
  bool next_hop_self;
  bgp::Asn asn;
};

using Wire = std::vector<std::uint8_t>;

struct Batch {
  std::vector<Wire> msgs;
  std::uint64_t prefixes = 0;
};

/// Withdraws a slice of the table, then re-announces it unchanged.
struct ChurnEvent {
  std::vector<Wire> withdraw;
  std::vector<Wire> announce;
  std::uint64_t prefixes = 0;
};

struct Sizes {
  std::size_t routes = 20'000;
  std::size_t batch_prefixes = 512;
  std::size_t churn_slice = 20;
  std::size_t min_churn_events = 200;  // per host; p95 needs >= 200 samples
  std::size_t traced_churn_events = 100;
  std::size_t min_reps = 3;
  std::size_t setup_rounds = 3;  // set-up-only beds per (host, mode) per round
  double feed_share = 0.85;       // of the run; churn gets the rest
};

/// Inputs of one workload, generated from the seed. Not movable: routers
/// hold pointers to its policies and ROA tables.
struct Scenario {
  Use use = Use::kRR;
  bool ibgp = true;
  std::size_t probe_parallelism = 1;  // min(4, nproc): the pool probe
  Sizes sizes;
  std::vector<SinkClass> sinks;

  std::vector<Wire> feed;  // in feed order
  std::vector<bgp::UpdateMessage> decoded;
  std::vector<rpki::AnnouncedRoute> routes;
  std::vector<Batch> batches;
  std::uint64_t table_prefixes = 0;
  std::vector<ChurnEvent> churn;

  std::vector<rpki::Roa> roas;
  Wire roa_blob;
  rpki::LpfstRoaTable trie;  // native Fir OV: FRR's structure behind the rtrlib lock
  std::unique_ptr<rpki::LockedRoaTable> locked_trie;
  rpki::RoaHashTable hash;   // native Wren OV: BIRD's structure
  bgp::policy::RouteMap import_plain = bgp::policy::standard_import_policy();
  bgp::policy::RouteMap export_map = bgp::policy::standard_export_policy();
  std::unique_ptr<bgp::policy::RouteMap> import_trie;
  std::unique_ptr<bgp::policy::RouteMap> import_hash;

  Scenario() = default;
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;
};

std::vector<ChurnEvent> make_churn(const std::vector<bgp::UpdateMessage>& decoded,
                                   std::size_t slice) {
  struct Entry {
    util::Prefix prefix;
    std::size_t msg;
  };
  std::vector<Entry> flat;
  for (std::size_t m = 0; m < decoded.size(); ++m) {
    for (const auto& p : decoded[m].nlri) flat.push_back({p, m});
  }
  std::vector<ChurnEvent> events;
  for (std::size_t start = 0; start + slice <= flat.size(); start += slice) {
    ChurnEvent ev;
    ev.prefixes = slice;
    bgp::UpdateMessage wd;
    for (std::size_t i = start; i < start + slice; ++i) wd.withdrawn.push_back(flat[i].prefix);
    ev.withdraw.push_back(bgp::encode_update(wd));
    for (std::size_t i = start; i < start + slice;) {
      bgp::UpdateMessage ann;
      ann.attrs = decoded[flat[i].msg].attrs;
      const std::size_t msg = flat[i].msg;
      for (; i < start + slice && flat[i].msg == msg; ++i) ann.nlri.push_back(flat[i].prefix);
      ev.announce.push_back(bgp::encode_update(ann));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::unique_ptr<Scenario> make_scenario(const Args& args, Spans& spans) {
  auto sc = std::make_unique<Scenario>();
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  sc->probe_parallelism = std::min<std::size_t>(4, nproc);
  Sizes& z = sc->sizes;
  if (args.workload == "rr_fulltable") {
    sc->use = Use::kRR;
  } else if (args.workload == "ov_fulltable") {
    sc->use = Use::kOV;
    sc->ibgp = false;
  } else {
    return nullptr;
  }
  if (args.tiny) {
    z.routes = 600;
    z.batch_prefixes = 128;
    z.churn_slice = 10;
    z.min_churn_events = 12;
    z.traced_churn_events = 6;
    z.min_reps = 1;
    z.setup_rounds = 1;
  }
  const auto plan = sc->ibgp ? harness::TestbedPlan::ibgp_plan()
                             : harness::TestbedPlan::ebgp_plan();
  sc->sinks.push_back({"downstream", true, false, plan.downstream_asn});

  harness::Workload base;
  {
    Spans::Scope s(spans, "make_workload");
    harness::WorkloadParams params;
    params.route_count = z.routes;
    params.seed = args.seed;
    params.with_local_pref = sc->ibgp;
    base = harness::make_workload(params);
    s.set_count(base.prefix_count);
  }
  sc->routes = base.routes;
  sc->feed = std::move(base.updates);
  Batch batch;
  for (const auto& wire : sc->feed) {
    const auto frame = bgp::try_frame(wire);
    auto update = bgp::decode_update(frame->body);
    batch.prefixes += update->nlri.size();
    sc->table_prefixes += update->nlri.size();
    batch.msgs.push_back(wire);
    sc->decoded.push_back(std::move(*update));
    if (batch.prefixes >= z.batch_prefixes) {
      sc->batches.push_back(std::move(batch));
      batch = Batch{};
    }
  }
  if (!batch.msgs.empty()) sc->batches.push_back(std::move(batch));
  sc->churn = make_churn(sc->decoded, z.churn_slice);

  {
    Spans::Scope s(spans, "make_roa_set");
    sc->roas = rpki::make_roa_set(sc->routes, rpki::RoaSetParams{.seed = args.seed});
    sc->roa_blob = harness::pack_roa_blob(sc->roas);
    rpki::fill_table(sc->trie, sc->roas);
    rpki::fill_table(sc->hash, sc->roas);
    sc->locked_trie = std::make_unique<rpki::LockedRoaTable>(sc->trie);
    sc->import_trie = std::make_unique<bgp::policy::RouteMap>(
        bgp::policy::standard_import_policy(sc->locked_trie.get()));
    sc->import_hash = std::make_unique<bgp::policy::RouteMap>(
        bgp::policy::standard_import_policy(&sc->hash));
    s.set_count(sc->roas.size());
  }
  return sc;
}

template <typename Dut>
constexpr const char* host_name() {
  return std::is_same_v<Dut, Fir> ? "fir" : "wren";
}

/// Final downstream routes of one sink: prefix -> re-encoded attributes.
using RouteSet = std::map<util::Prefix, Wire>;

RouteSet route_set(const harness::Sink& sink) {
  RouteSet out;
  for (const auto& raw : sink.raw()) {
    const auto frame = bgp::try_frame(raw);
    if (!frame) continue;
    const auto update = bgp::decode_update(frame->body);
    if (!update) continue;
    for (const auto& p : update->withdrawn) out.erase(p);
    if (update->nlri.empty()) continue;
    bgp::UpdateMessage attrs_only;
    attrs_only.attrs = update->attrs;
    const Wire key = bgp::encode_update(attrs_only);
    for (const auto& p : update->nlri) out[p] = key;
  }
  return out;
}

/// One DUT with its feeder and sinks. Construction is the timed set-up:
/// Router construction, load_extensions, session establishment. Unlike
/// harness::Testbed (one sink, the whole feed sent at once) it serves any
/// number of sinks and feeds in closed-loop batches.
template <typename Dut>
class Bed {
 public:
  Bed(const Scenario& sc, Mode mode, std::size_t parallelism, bool tracing, bool record_raw,
      Spans& spans)
      : sc_(sc) {
    const auto plan = sc.ibgp ? harness::TestbedPlan::ibgp_plan()
                              : harness::TestbedPlan::ebgp_plan();
    typename Dut::Config cfg;
    cfg.name = "dut";
    cfg.asn = plan.dut_asn;
    cfg.router_id = 0x0A000002;
    cfg.address = plan.dut_addr;
    cfg.cluster_id = 0xC1C1C1C1;
    cfg.parallelism = parallelism;
    cfg.obs.tracing = tracing;
    cfg.export_policy = &sc.export_map;
    if (sc.use == Use::kRR) {
      cfg.native_route_reflector = mode == Mode::kNative;
      cfg.import_policy = &sc.import_plain;
    } else if (mode == Mode::kNative) {
      cfg.import_policy = std::is_same_v<Dut, Fir> ? sc.import_trie.get() : sc.import_hash.get();
    } else {
      cfg.import_policy = &sc.import_plain;
    }

    const std::string h = host_name<Dut>();
    Spans::Scope setup_span(spans, h + ".setup");
    const std::uint64_t t0 = now_ns();
    {
      Spans::Scope s(spans, h + ".router_construct");
      dut_ = std::make_unique<Dut>(loop_, cfg);
    }
    if (mode == Mode::kExt) {
      Spans::Scope s(spans, h + ".load_extensions");
      if (sc.use == Use::kRR) {
        dut_->load_extensions(ext::route_reflection_manifest());
      } else {
        dut_->set_xtra(xbgp::xtra::kRoaTable, sc.roa_blob);
        dut_->load_extensions(ext::origin_validation_manifest(sc.roas.size()));
      }
    }
    {
      Spans::Scope s(spans, h + ".establish");
      feed_link_ = std::make_unique<net::Duplex>(loop_, /*latency=*/0);
      dut_->add_peer(feed_link_->b(), {.name = "upstream",
                                       .asn = plan.upstream_asn,
                                       .address = plan.upstream_addr,
                                       .rr_client = true});
      bgp::PeerSession::Config up;
      up.local_asn = plan.upstream_asn;
      up.peer_asn = plan.dut_asn;
      up.local_id = 0x0A000001;
      up.local_addr = plan.upstream_addr;
      up.peer_addr = plan.dut_addr;
      feeder_ = std::make_unique<harness::Feeder>(loop_, feed_link_->a(), up);
      for (std::size_t i = 0; i < sc.sinks.size(); ++i) {
        const SinkClass& cls = sc.sinks[i];
        const util::Ipv4Addr addr = sc.sinks.size() == 1
                                        ? plan.downstream_addr
                                        : util::Ipv4Addr(static_cast<std::uint32_t>(0x0B000001 + i));
        links_.push_back(std::make_unique<net::Duplex>(loop_, /*latency=*/0));
        dut_->add_peer(links_.back()->a(), {.name = cls.name,
                                            .asn = cls.asn,
                                            .address = addr,
                                            .rr_client = cls.rr_client,
                                            .next_hop_self = cls.next_hop_self});
        bgp::PeerSession::Config down;
        down.local_asn = cls.asn;
        down.peer_asn = plan.dut_asn;
        down.local_id = addr.value();
        down.local_addr = addr;
        down.peer_addr = plan.dut_addr;
        sinks_.push_back(std::make_unique<harness::Sink>(loop_, links_.back()->b(), down));
        sinks_.back()->record_raw(record_raw);
      }
      dut_->start();
      feeder_->start();
      for (auto& sink : sinks_) sink->start();
      loop_.run_until(loop_.now() + kSec);
      sessions_up_ = feeder_->established() ? 1 : 0;
      for (auto& sink : sinks_) sessions_up_ += sink->established() ? 1 : 0;
    }
    setup_s_ = static_cast<double>(now_ns() - t0) / 1e9;
  }

  Bed(const Bed&) = delete;
  Bed& operator=(const Bed&) = delete;

  [[nodiscard]] Dut& dut() { return *dut_; }
  [[nodiscard]] double setup_s() const { return setup_s_; }
  [[nodiscard]] std::size_t sessions() const { return sinks_.size() + 1; }
  [[nodiscard]] std::size_t sessions_up() const { return sessions_up_; }
  [[nodiscard]] const std::vector<std::unique_ptr<harness::Sink>>& sinks() const { return sinks_; }

  /// Feeds the table batch by batch (closed loop). Returns wall seconds and
  /// adds the deliveries that never arrived to `missing`.
  double feed(std::uint64_t& missing) {
    const std::vector<std::uint64_t> base = counts(&harness::Sink::prefixes);
    std::uint64_t target = 0;
    const std::uint64_t t0 = now_ns();
    for (const Batch& b : sc_.batches) {
      feeder_->send_all(b.msgs);
      target += b.prefixes;
      if (!pump(&harness::Sink::prefixes, base, target)) break;
    }
    const std::uint64_t t1 = now_ns();
    missing += shortfall(&harness::Sink::prefixes, base, sc_.table_prefixes);
    return static_cast<double>(t1 - t0) / 1e9;
  }

  /// One churn event, timed until every sink has seen both halves.
  double churn(const ChurnEvent& ev, std::uint64_t& missing) {
    const std::vector<std::uint64_t> wbase = counts(&harness::Sink::withdrawals);
    const std::vector<std::uint64_t> pbase = counts(&harness::Sink::prefixes);
    const std::uint64_t t0 = now_ns();
    feeder_->send_all(ev.withdraw);
    const bool withdrawn = pump(&harness::Sink::withdrawals, wbase, ev.prefixes);
    if (withdrawn) {
      feeder_->send_all(ev.announce);
      pump(&harness::Sink::prefixes, pbase, ev.prefixes);
    }
    const std::uint64_t t1 = now_ns();
    missing += shortfall(&harness::Sink::withdrawals, wbase, ev.prefixes);
    missing += withdrawn ? shortfall(&harness::Sink::prefixes, pbase, ev.prefixes)
                         : ev.prefixes * sinks_.size();
    return static_cast<double>(t1 - t0) / 1e6;
  }

  [[nodiscard]] std::uint64_t sink_updates() const {
    std::uint64_t n = 0;
    for (const auto& s : sinks_) n += s->session().updates_received();
    return n;
  }

 private:
  using Counter = std::uint64_t (harness::Sink::*)() const noexcept;

  std::vector<std::uint64_t> counts(Counter c) const {
    std::vector<std::uint64_t> out;
    for (const auto& s : sinks_) out.push_back(((*s).*c)());
    return out;
  }

  std::uint64_t shortfall(Counter c, const std::vector<std::uint64_t>& base,
                          std::uint64_t want) const {
    std::uint64_t missing = 0;
    for (std::size_t i = 0; i < sinks_.size(); ++i) {
      const std::uint64_t got = ((*sinks_[i]).*c)() - base[i];
      if (got < want) missing += want - got;
    }
    return missing;
  }

  /// Runs the loop until every sink's counter advanced by `want`; links have
  /// zero latency, so a delivery normally completes at the current instant.
  bool pump(Counter c, const std::vector<std::uint64_t>& base, std::uint64_t want) {
    const net::TimePoint deadline = loop_.now() + 30 * kSec;
    loop_.run_until(loop_.now());
    while (shortfall(c, base, want) != 0) {
      if (loop_.now() >= deadline) return false;
      loop_.run_until(loop_.now() + kMs);
    }
    return true;
  }

  const Scenario& sc_;
  net::EventLoop loop_;
  std::unique_ptr<Dut> dut_;
  std::unique_ptr<net::Duplex> feed_link_;
  std::vector<std::unique_ptr<net::Duplex>> links_;
  std::unique_ptr<harness::Feeder> feeder_;
  std::vector<std::unique_ptr<harness::Sink>> sinks_;
  std::size_t sessions_up_ = 0;
  double setup_s_ = 0;
};

const char* mode_name(Mode m) { return m == Mode::kNative ? "native" : "ext"; }

/// Run-wide state shared by the workload phases.
struct Run {
  const Args& args;
  const Scenario& sc;
  Spans& spans;
  Record& rec;
  std::uint64_t start_ns = now_ns();

  [[nodiscard]] double elapsed_s() const { return static_cast<double>(now_ns() - start_ns) / 1e9; }

  /// Accounts a bed's sessions, its extension faults and its set-up time.
  template <typename Dut>
  void account(Bed<Dut>& bed, Mode mode) {
    rec.attempted += bed.sessions();
    rec.failed += bed.sessions() - bed.sessions_up();
    rec.series["setup_s"].push_back(bed.setup_s());
    if (mode == Mode::kExt) {
      const auto& ts = bed.dut().vmm().translation_stats();
      rec.host[std::string(host_name<Dut>()) + ".jit"] =
          ts.jit_compiled == ts.programs ? "compiled" : "declined";
      rec.series["translate_s"].push_back(static_cast<double>(ts.ns) / 1e9);
    }
  }

  template <typename Dut>
  void account_faults(Bed<Dut>& bed) {
    const std::uint64_t faults = bed.dut().stats().extension_faults;
    rec.failed += faults;
    if (faults != 0) {
      rec.check(std::string(host_name<Dut>()) + ".extension_faults", false,
                std::to_string(faults) + " faults");
    }
  }

  /// One timed feed on a fresh bed; returns routes/s. The feed's span is
  /// named "<host>.feed.<mode>.p<parallelism>[.traced]"; `after` sees the bed
  /// and the feed's wall seconds before the bed is torn down.
  template <typename Dut, typename After>
  double feed_once(Mode mode, std::size_t parallelism, bool tracing, After&& after) {
    Bed<Dut> bed(sc, mode, parallelism, tracing, false, spans);
    account(bed, mode);
    std::uint64_t missing = 0;
    double s = 0;
    {
      Spans::Scope span(spans, feed_span<Dut>(mode, parallelism, tracing));
      s = bed.feed(missing);
      span.set_count(sc.table_prefixes);
    }
    rec.attempted += sc.table_prefixes * sc.sinks.size();
    rec.failed += missing;
    account_faults(bed);
    after(bed, s);
    return static_cast<double>(sc.table_prefixes) / s;
  }
  template <typename Dut>
  double feed_once(Mode mode, std::size_t parallelism, bool tracing) {
    return feed_once<Dut>(mode, parallelism, tracing, [](Bed<Dut>&, double) {});
  }

  template <typename Dut>
  static std::string feed_span(Mode mode, std::size_t parallelism, bool tracing) {
    return std::string(host_name<Dut>()) + ".feed." + mode_name(mode) +
           ".p" + std::to_string(parallelism) + (tracing ? ".traced" : "");
  }

  /// Median wall seconds of the spans called `name`.
  [[nodiscard]] double median_s(const std::string& name) const {
    return median(spans.durations_ns(name)) / 1e9;
  }
};

/// Untimed first pass with every sink's wire stream recorded: warms caches
/// and checks the outputs (full delivery, Fir and Wren send the same routes,
/// before and after churn).
void verify(Run& run) {
  const Scenario& sc = run.sc;
  std::set<util::Prefix> table;
  for (const auto& r : sc.routes) table.insert(r.prefix);
  const std::size_t verify_events = std::min<std::size_t>(8, sc.churn.size());
  for (const Mode mode : {Mode::kNative, Mode::kExt}) {
    std::vector<RouteSet> sets[2];
    int h = 0;
    auto one = [&]<typename Dut>(Dut*) {
      Bed<Dut> bed(sc, mode, 1, false, true, run.spans);
      run.account(bed, mode);
      std::uint64_t missing = 0;
      (void)bed.feed(missing);
      if (mode == Mode::kExt) {
        for (std::size_t e = 0; e < verify_events; ++e) (void)bed.churn(sc.churn[e], missing);
      }
      run.rec.attempted += sc.table_prefixes * sc.sinks.size();
      run.rec.failed += missing;
      run.account_faults(bed);
      const std::string label = std::string(host_name<Dut>()) + "." + mode_name(mode);
      run.rec.check(label + ".delivered", missing == 0, std::to_string(missing) + " missing");
      std::size_t incomplete = 0;
      for (const auto& sink : bed.sinks()) {
        sets[h].push_back(route_set(*sink));
        if (sets[h].back().size() != table.size()) ++incomplete;
      }
      run.rec.check(label + ".route_set_complete", incomplete == 0,
                    std::to_string(incomplete) + " sinks differ from the table");
      ++h;
    };
    one(static_cast<Fir*>(nullptr));
    one(static_cast<Wren*>(nullptr));
    std::size_t differ = 0;
    for (std::size_t i = 0; i < sets[0].size() && i < sets[1].size(); ++i) {
      if (sets[0][i] != sets[1][i]) ++differ;
    }
    run.rec.check(std::string("fir_vs_wren.") + mode_name(mode) + ".route_sets",
                  differ == 0 && sets[0].size() == sets[1].size(),
                  std::to_string(differ) + " sinks differ");
  }
}

/// One extension DUT per host that has learned the table; churn events
/// alternate between the two.
class ChurnPair {
 public:
  ChurnPair(Run& run, bool tracing)
      : run_(run),
        fir_(run.sc, Mode::kExt, 1, tracing, false, run.spans),
        wren_(run.sc, Mode::kExt, 1, tracing, false, run.spans) {
    run.account(fir_, Mode::kExt);
    run.account(wren_, Mode::kExt);
    (void)fir_.feed(missing_);
    (void)wren_.feed(missing_);
    run.rec.attempted += 2 * run.sc.table_prefixes * run.sc.sinks.size();
  }

  /// One timed event on each host.
  void step() {
    const ChurnEvent& ev = run_.sc.churn[events_ % run_.sc.churn.size()];
    const std::uint64_t t0 = now_ns();
    {
      Spans::Scope s(run_.spans, "fir.churn_event");
      s.set_count(ev.prefixes);
      run_.rec.series["fir.churn_ms"].push_back(fir_.churn(ev, missing_));
    }
    {
      Spans::Scope s(run_.spans, "wren.churn_event");
      s.set_count(ev.prefixes);
      run_.rec.series["wren.churn_ms"].push_back(wren_.churn(ev, missing_));
    }
    busy_s_ += static_cast<double>(now_ns() - t0) / 1e9;
    run_.rec.attempted += 2 * 2 * ev.prefixes * run_.sc.sinks.size();
    ++events_;
  }

  /// Accounts missed deliveries and faults; call once, after the last step.
  void finish() {
    Record& rec = run_.rec;
    rec.values["churn_events_per_host"] = static_cast<double>(events_);
    rec.values["churn_prefixes_per_host"] =
        static_cast<double>(events_ * run_.sc.sizes.churn_slice);
    rec.failed += missing_;
    rec.check("churn.delivered", missing_ == 0, std::to_string(missing_) + " missing");
    run_.account_faults(fir_);
    run_.account_faults(wren_);
  }

  [[nodiscard]] double busy_s() const { return busy_s_; }
  [[nodiscard]] std::size_t events() const { return events_; }
  [[nodiscard]] Bed<Fir>& fir() { return fir_; }
  [[nodiscard]] Bed<Wren>& wren() { return wren_; }

 private:
  Run& run_;
  Bed<Fir> fir_;
  Bed<Wren> wren_;
  std::uint64_t missing_ = 0;
  std::size_t events_ = 0;
  double busy_s_ = 0;
};

/// The untraced run. Each round: set-up-only beds, the four feeds (host x
/// mode, rotating order, a fresh bed each), then churn events until churn
/// has had its share of the elapsed time. Spreading every kind of sample
/// over the whole run keeps slow drifts of the host's speed from landing on
/// one metric only.
void measure(Run& run) {
  const Scenario& sc = run.sc;
  auto& series = run.rec.series;
  auto setup_only = [&]<typename Dut>(Dut*, Mode mode) {
    Bed<Dut> bed(sc, mode, 1, false, false, run.spans);
    run.account(bed, mode);
  };
  auto feed = [&](std::size_t config) {
    switch (config) {
      case 0: series["fir.native_routes_per_s"].push_back(run.feed_once<Fir>(Mode::kNative, 1, false)); break;
      case 1: series["wren.ext_routes_per_s"].push_back(run.feed_once<Wren>(Mode::kExt, 1, false)); break;
      case 2: series["fir.ext_routes_per_s"].push_back(run.feed_once<Fir>(Mode::kExt, 1, false)); break;
      default: series["wren.native_routes_per_s"].push_back(run.feed_once<Wren>(Mode::kNative, 1, false));
    }
  };
  ChurnPair churn(run, false);
  const double churn_share = 1.0 - sc.sizes.feed_share;
  for (std::size_t rep = 0; rep < sc.sizes.min_reps || run.elapsed_s() < run.args.seconds; ++rep) {
    for (std::size_t i = 0; i < sc.sizes.setup_rounds; ++i) {
      setup_only(static_cast<Fir*>(nullptr), Mode::kNative);
      setup_only(static_cast<Wren*>(nullptr), Mode::kExt);
      setup_only(static_cast<Fir*>(nullptr), Mode::kExt);
      setup_only(static_cast<Wren*>(nullptr), Mode::kNative);
    }
    for (std::size_t i = 0; i < 4; ++i) feed((i + rep) % 4);
    while (churn.busy_s() < churn_share * run.elapsed_s()) churn.step();
  }
  while (churn.events() < sc.sizes.min_churn_events) churn.step();
  churn.finish();
}

// --- traced run ------------------------------------------------------------

std::uint64_t hist_sum(const obs::Snapshot& snap, std::string_view name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->sum;
}

std::uint64_t scalar(const obs::Snapshot& snap, std::string_view name) {
  const obs::MetricValue* m = snap.find(name);
  return m == nullptr ? 0 : m->value;
}

/// Reads one traced feed's registry and span ring into per-layer metrics.
template <typename Dut>
void engine_layers(Run& run, Bed<Dut>& bed, double feed_s, const std::string& h) {
  const double routes = static_cast<double>(run.sc.table_prefixes);
  const double kroutes = routes / 1000.0;
  Dut& dut = bed.dut();
  const obs::Snapshot snap = dut.telemetry().registry().snapshot();
  const double ingest = static_cast<double>(hist_sum(snap, "xbgp_router_ingest_ns"));
  const double decision = static_cast<double>(hist_sum(snap, "xbgp_router_decision_ns"));
  const double exp = static_cast<double>(hist_sum(snap, "xbgp_router_export_ns"));
  Record& rec = run.rec;
  rec.layer(h + ".engine.ingest_ns_per_route", ingest / routes, "ns");
  rec.values[h + ".engine.decision_ns_own"] = decision / routes;
  rec.layer(h + ".engine.export_ns_per_route", exp / routes, "ns");
  rec.layer(h + ".engine.phase_coverage", (ingest + decision + exp) / (feed_s * 1e9), "frac");
  const auto st = dut.stats();
  rec.layer(h + ".engine.messages_built_per_kroute", static_cast<double>(st.messages_built) / kroutes,
            "count");
  rec.layer(h + ".engine.attr_sections_per_kroute", static_cast<double>(st.attr_sections) / kroutes,
            "count");
  rec.layer(h + ".engine.updates_out_per_kroute", static_cast<double>(st.updates_out) / kroutes,
            "count");
  rec.layer(h + ".engine.bytes_built_per_route", static_cast<double>(st.bytes_built) / routes, "B");
  rec.layer(h + ".engine.ribout_groups", static_cast<double>(dut.ribout_group_count()), "count");

  const char* points[] = {"BGP_INBOUND_FILTER", "BGP_OUTBOUND_FILTER", "BGP_ENCODE_MESSAGE"};
  const char* short_names[] = {"inbound", "outbound", "encode"};
  double per_point[3] = {};
  double total = 0;
  for (int i = 0; i < 3; ++i) {
    per_point[i] = static_cast<double>(
        hist_sum(snap, std::string("xbgp_vmm_exec_ns{point=\"") + points[i] + "\"}"));
    total += per_point[i];
  }
  rec.layer(h + ".vmm.exec_ns_per_route", total / routes, "ns");
  for (int i = 0; i < 3; ++i) {
    rec.layer(h + ".vmm." + short_names[i] + ".exec_share", total > 0 ? per_point[i] / total : 0,
              "frac");
  }
  // The span ring keeps the newest spans; scale the retained averages by
  // the number of invocations recorded.
  const auto spans = dut.telemetry().trace().collect();
  double insns = 0, helpers = 0;
  for (const auto& s : spans) {
    insns += s.instructions;
    helpers += s.helper_calls;
  }
  const double recorded = static_cast<double>(dut.telemetry().trace().recorded_total());
  const double scale = spans.empty() ? 0 : recorded / static_cast<double>(spans.size());
  rec.layer(h + ".vmm.insns_per_route", insns * scale / routes, "count");
  rec.layer(h + ".vmm.helper_calls_per_route", helpers * scale / routes, "count");

  const auto vs = dut.vmm().stats();
  const double runs = static_cast<double>(vs.tier_runs[0] + vs.tier_runs[1] + vs.tier_runs[2]);
  rec.layer(h + ".ebpf.tier2_runs_frac", runs > 0 ? static_cast<double>(vs.tier_runs[2]) / runs : 0,
            "frac");
  const double hits = static_cast<double>(scalar(snap, "xbgp_attr_intern_hits_total"));
  const double misses = static_cast<double>(scalar(snap, "xbgp_attr_intern_misses_total"));
  rec.layer(h + ".intern.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
  rec.layer(h + ".obs.events_per_route",
            static_cast<double>(dut.telemetry().events().recorded_total()) / routes, "count");
  std::uint64_t warnings = 0;
  for (std::size_t op = 1; op < xbgp::kOpCount; ++op) {
    warnings += dut.vmm().verify_stats(static_cast<xbgp::Op>(op)).warnings;
  }
  rec.values[h + ".verify_warnings"] = static_cast<double>(warnings);
}

template <typename Dut>
void pool_layers(Run& run, Bed<Dut>& bed, const std::string& h) {
  const double routes = static_cast<double>(run.sc.table_prefixes);
  const obs::Snapshot snap = bed.dut().telemetry().registry().snapshot();
  run.rec.layer(h + ".pool.regions_per_kroute",
                static_cast<double>(scalar(snap, "xbgp_pool_regions_total")) / (routes / 1000.0),
                "count");
  run.rec.layer(h + ".pool.region_ns_per_route",
                static_cast<double>(scalar(snap, "xbgp_pool_region_ns_total")) / routes, "ns");
  run.rec.layer(h + ".pool.region_ns_max",
                static_cast<double>(scalar(snap, "xbgp_pool_region_ns_max")), "ns");
  const double decision = static_cast<double>(hist_sum(snap, "xbgp_router_decision_ns"));
  run.rec.values[h + ".engine.decision_ns_probe"] = decision / routes;
}

/// One round of the traced run on one host: untraced native and extension
/// feeds (the latter also at min(4, nproc) shards for the pool speedup),
/// then a traced extension feed. The first round also reads the engine, VM
/// and pool layers from the traced DUTs.
template <typename Dut>
void traced_host(Run& run, bool first) {
  const std::string h = host_name<Dut>();
  const std::size_t pp = run.sc.probe_parallelism;
  run.feed_once<Dut>(Mode::kNative, 1, false);
  run.feed_once<Dut>(Mode::kExt, 1, false);
  if (pp != 1) run.feed_once<Dut>(Mode::kExt, pp, false);
  run.feed_once<Dut>(Mode::kExt, 1, true, [&](Bed<Dut>& bed, double s) {
    if (!first) return;
    engine_layers(run, bed, s, h);
    if (pp == 1) pool_layers(run, bed, h);
  });
  if (first && pp != 1) {
    run.feed_once<Dut>(Mode::kExt, pp, true,
                       [&](Bed<Dut>& bed, double) { pool_layers(run, bed, h); });
  }
}

template <typename Dut>
void finish_traced(Run& run) {
  const std::string h = host_name<Dut>();
  const double ext = run.median_s(Run::feed_span<Dut>(Mode::kExt, 1, false));
  Record& rec = run.rec;
  rec.layer(h + ".xbgp.ext_native_ratio",
            ext / run.median_s(Run::feed_span<Dut>(Mode::kNative, 1, false)), "x");
  rec.layer(h + ".obs.tracing_overhead",
            run.median_s(Run::feed_span<Dut>(Mode::kExt, 1, true)) / ext, "x");
  rec.layer(h + ".pool.speedup_vs_p1",
            ext / run.median_s(Run::feed_span<Dut>(Mode::kExt, run.sc.probe_parallelism, false)),
            "x");
  rec.layer(h + ".vmm.load_ms", run.median_s(h + ".load_extensions") * 1e3, "ms");
  // The serial engine (parallelism 1) times decision inside ingest; the
  // sharded engine times it as its own phase, so it is read from there.
  const double own = rec.values[h + ".engine.decision_ns_own"];
  rec.layer(h + ".engine.decision_ns_per_route",
            own > 0 ? own : rec.values[h + ".engine.decision_ns_probe"], "ns");
}

void traced_run(Run& run, const LayerInputs& inputs) {
  const Scenario& sc = run.sc;
  const double feeds_until = run.args.seconds * 0.8;
  for (std::size_t rep = 0; rep < 1 || run.elapsed_s() < feeds_until; ++rep) {
    traced_host<Fir>(run, rep == 0);
    traced_host<Wren>(run, rep == 0);
  }
  finish_traced<Fir>(run);
  finish_traced<Wren>(run);
  {
    ChurnPair churn(run, true);
    const std::uint64_t fir0 = churn.fir().sink_updates();
    const std::uint64_t wren0 = churn.wren().sink_updates();
    while (churn.events() < sc.sizes.traced_churn_events) churn.step();
    churn.finish();
    // Churned routes per sink: each event withdraws and re-announces its slice.
    const double kroutes = 2.0 * run.rec.values["churn_prefixes_per_host"] *
                           static_cast<double>(sc.sinks.size()) / 1000.0;
    run.rec.layer("fir.net.wire_msgs_per_kroute",
                  static_cast<double>(churn.fir().sink_updates() - fir0) / kroutes, "count");
    run.rec.layer("wren.net.wire_msgs_per_kroute",
                  static_cast<double>(churn.wren().sink_updates() - wren0) / kroutes, "count");
  }
  run.rec.series.erase("fir.churn_ms");
  run.rec.series.erase("wren.churn_ms");
  run.rec.layer("ebpf.translate_ms", median(run.rec.series["translate_s"]) * 1e3, "ms");
  run.rec.layer("vmm.verify_warnings", run.rec.values["fir.verify_warnings"], "count");
  probe_layers(inputs, run.args.tiny, run.spans, run.rec);
}

}  // namespace

bool run_workload(const Args& args, Spans& spans, Record& out) {
  Spans::Scope root(spans, "run");
  const auto sc = make_scenario(args, spans);
  if (!sc) return false;
  Run run{args, *sc, spans, out};
  out.values["table_prefixes"] = static_cast<double>(sc->table_prefixes);
  out.values["sinks"] = static_cast<double>(sc->sinks.size());
  verify(run);
  if (args.trace) {
    const LayerInputs inputs{sc->feed, sc->decoded, sc->routes, sc->roas};
    traced_run(run, inputs);
  } else {
    measure(run);
  }
  out.values["run_s"] = run.elapsed_s();
  return true;
}

}  // namespace perfbench
