#include "probes.hpp"

#include <functional>
#include <memory>

#include "apps/cholesky.hpp"
#include "apps/stencil.hpp"
#include "cbp/gateway.hpp"
#include "cbp/transport.hpp"
#include "hw/node.hpp"
#include "mpi/mpi.hpp"
#include "mpi/system.hpp"
#include "mpi/wire.hpp"
#include "net/crossbar.hpp"
#include "net/dragonfly.hpp"
#include "net/fattree.hpp"
#include "net/pool.hpp"
#include "net/torus.hpp"
#include "obs/metrics.hpp"
#include "ompss/runtime.hpp"
#include "sim/engine.hpp"
#include "sys/system.hpp"

namespace perfbench {

namespace {

namespace dc = deep::cbp;
namespace dh = deep::hw;
namespace dm = deep::mpi;
namespace dn = deep::net;
namespace ds = deep::sim;
namespace dsv = deep::svc;

constexpr int kReps = 5;

/// Median over kReps of `once()`, each returning host ns per operation.
double median_of(const std::function<double()>& once) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(once());
  return median(std::move(v));
}

double per_op(std::int64_t t0, std::int64_t t1, double ops) {
  return static_cast<double>(t1 - t0) / ops;
}

// --- sim --------------------------------------------------------------------

double dispatch_ns() {
  constexpr int kEvents = 100'000;
  return median_of([] {
    ds::Engine eng;
    std::int64_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kEvents; ++i)
      eng.schedule_at(ds::TimePoint{i}, [&sink] { ++sink; });
    eng.run();
    const std::int64_t t1 = now_ns();
    return sink == kEvents ? per_op(t0, t1, kEvents) : -1.0;
  });
}

double switch_ns() {
  constexpr int kDelays = 100'000;
  return median_of([] {
    ds::Engine eng;
    eng.spawn("p", [](ds::Context& ctx) {
      for (int i = 0; i < kDelays; ++i) ctx.delay(ds::nanoseconds(1));
    });
    const std::int64_t t0 = now_ns();
    eng.run();
    return per_op(t0, now_ns(), kDelays);
  });
}

// --- net / cbp --------------------------------------------------------------

dn::Message raw_message(dh::NodeId src, dh::NodeId dst, std::int64_t bytes) {
  static const std::vector<std::byte> payload(64, std::byte{0x5A});
  dn::Message m;
  m.src = src;
  m.dst = dst;
  m.port = dn::Port::Raw;
  m.size_bytes = bytes;
  dm::WireHeader h;
  h.kind = dm::MsgKind::Eager;
  h.bytes = bytes;
  m.header = h;
  m.payload = dn::copy_payload(payload);
  return m;
}

struct SendProbe {
  double ns_per_msg = 0.0;
  double allocs_per_msg = 0.0;
};

/// One round sends a message from every node to a fixed partner and runs
/// the engine until all are delivered.  Two warm-up rounds grow the pools
/// and route memos; the allocation count is taken over the third.
SendProbe probe_fabric(ds::Engine& eng, dn::Fabric& fabric, int nodes,
                       std::int64_t bytes) {
  std::int64_t delivered = 0;
  for (int i = 0; i < nodes; ++i)
    fabric.attach(i).bind(dn::Port::Raw,
                          [&delivered](dn::Message&&) { ++delivered; });
  const auto round = [&] {
    for (int i = 0; i < nodes; ++i)
      fabric.send(raw_message(i, (i * 29 + 7) % nodes, bytes),
                  dn::Service::Bulk);
    eng.run();
  };
  round();
  round();
  SendProbe p;
  const std::size_t a0 = thread_allocs();
  round();
  p.allocs_per_msg = static_cast<double>(thread_allocs() - a0) / nodes;
  const int rounds = std::max(4, 40'000 / nodes);
  p.ns_per_msg = median_of([&] {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < rounds; ++r) round();
    return per_op(t0, now_ns(), static_cast<double>(rounds) * nodes);
  });
  if (delivered != static_cast<std::int64_t>(nodes) * (3 + kReps * rounds))
    p.ns_per_msg = -1.0;  // lost messages: reported as a failed probe
  return p;
}

/// Builds the probed fabric standalone, with the parameters the spec's
/// DeepSystem derived for its booster side.
SendProbe probe_booster_fabric(const dsv::JobSpec& spec, std::int64_t bytes) {
  deep::sys::DeepSystem system(spec.to_config());
  ds::Engine eng;
  const int nodes = spec.booster;
  if (spec.topology == "fattree") {
    dn::FatTreeFabric f(
        eng, "fattree",
        static_cast<dn::FatTreeFabric&>(system.booster_fabric()).params());
    return probe_fabric(eng, f, nodes, bytes);
  }
  if (spec.topology == "dragonfly") {
    dn::DragonflyFabric f(eng, "dragonfly", system.dragonfly().params());
    return probe_fabric(eng, f, nodes, bytes);
  }
  dn::TorusFabric f(eng, "extoll", system.extoll().params());
  return probe_fabric(eng, f, nodes, bytes);
}

/// Cluster -> booster messages through one CBP gateway.
double forward_ns(std::int64_t bytes) {
  ds::Engine eng;
  dn::CrossbarFabric ib(eng, "ib", {});
  dn::TorusParams tp;
  tp.dims = {4, 2, 1};
  dn::TorusFabric extoll(eng, "extoll", tp);
  dc::BridgedTransport bridge(eng, ib, extoll);
  for (dh::NodeId n = 0; n < 4; ++n) {
    ib.attach(n);
    bridge.register_cluster_node(n);
  }
  std::int64_t delivered = 0;
  for (dh::NodeId n = 10; n < 14; ++n) {
    extoll.attach(n);
    bridge.register_booster_node(n);
    bridge.home_nic(n).bind(dn::Port::Raw,
                            [&delivered](dn::Message&&) { ++delivered; });
  }
  ib.attach(20);
  extoll.attach(20);
  bridge.register_gateway(20);
  constexpr int kMsgs = 16, kRounds = 500;
  const auto round = [&] {
    for (int i = 0; i < kMsgs; ++i)
      bridge.send(raw_message(i % 4, 10 + i % 4, bytes), dn::Service::Bulk);
    eng.run();
  };
  round();
  const double ns = median_of([&] {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < kRounds; ++r) round();
    return per_op(t0, now_ns(), kMsgs * kRounds);
  });
  return delivered == kMsgs * (1 + kReps * kRounds) ? ns : -1.0;
}

// --- mpi / apps: ranks over a crossbar, as the launcher builds them -------

class Ranks {
 public:
  explicit Ranks(int n) : ib_(eng_, "ib", {}), tr_(ib_), sys_(eng_, tr_, {}) {
    std::vector<dh::NodeId> ids;
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<dh::Node>(i, "cn" + std::to_string(i),
                                                  dh::xeon_cluster_node()));
      ib_.attach(i);
      ids.push_back(i);
    }
    world_ = sys_.create_world(ids);
  }

  void run(const std::function<void(dm::Mpi&)>& fn) {
    const int n = world_.group->size();
    for (int r = 0; r < n; ++r) {
      eng_.spawn("rank" + std::to_string(r), [this, r, fn](ds::Context& ctx) {
        auto state = std::make_shared<dm::CommState>();
        state->ctx_p2p = world_.ctx_p2p;
        state->ctx_coll = world_.ctx_coll;
        state->group = world_.group;
        state->rank = r;
        const auto idx = static_cast<std::size_t>(r);
        dm::Mpi mpi(sys_, ctx, *nodes_[idx],
                    sys_.endpoint(world_.group->members[idx].ep),
                    dm::Comm(std::move(state)), std::nullopt);
        fn(mpi);
      });
    }
    eng_.run();
  }

 private:
  ds::Engine eng_;
  dn::CrossbarFabric ib_;
  dc::DirectTransport tr_;
  dm::MpiSystem sys_;
  std::vector<std::unique_ptr<dh::Node>> nodes_;
  dm::MpiSystem::World world_;
};

struct EagerProbe {
  double ns_per_cycle = 0.0;
  double allocs_per_cycle = 0.0;
};

/// Rank 0 isend+wait, rank 1 irecv+wait of one 64-byte eager message.
EagerProbe eager_cycle() {
  constexpr int kWarm = 100, kCounted = 1000, kCycles = 20'000;
  EagerProbe p;
  p.ns_per_cycle = median_of([&] {
    Ranks ranks(2);
    std::size_t a0 = 0, a1 = 0;
    const std::int64_t t0 = now_ns();
    ranks.run([&](dm::Mpi& mpi) {
      std::vector<std::byte> buf(64, std::byte{1});
      for (int i = 0; i < kCycles; ++i) {
        if (mpi.rank() == 0) {
          // Both ranks run on this thread's fibers, so the tally between
          // these two points covers kCounted whole cycles of both sides.
          if (i == kWarm) a0 = thread_allocs();
          if (i == kWarm + kCounted) a1 = thread_allocs();
          mpi.wait(mpi.isend_bytes(mpi.world(), 1, 0, buf));
        } else {
          mpi.wait(mpi.irecv_bytes(mpi.world(), 0, 0, buf));
        }
      }
    });
    const double ns = per_op(t0, now_ns(), kCycles);
    p.allocs_per_cycle = static_cast<double>(a1 - a0) / kCounted;
    return ns;
  });
  return p;
}

/// Host ns per cell update of apps::run_jacobi on a one-rank communicator,
/// in the shape svc::run_session's stencil uses.
double jacobi_ns_per_cell() {
  deep::apps::StencilConfig cfg;
  cfg.nx = 256;
  cfg.rows = 64;
  cfg.iterations = 10;
  const double cells = 256.0 * 64.0 * 10.0;
  return median_of([&] {
    Ranks ranks(1);
    double ns = 0.0;
    ranks.run([&](dm::Mpi& mpi) {
      constexpr int kCalls = 20;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kCalls; ++i) deep::apps::run_jacobi(mpi, mpi.world(), cfg);
      ns = per_op(t0, now_ns(), cells * kCalls);
    });
    return ns;
  });
}

// --- ompss / obs --------------------------------------------------------------

/// submit + taskwait of the 8 x 24 tiled cholesky graph, per task.
double task_ns() {
  return median_of([] {
    ds::Engine eng;
    deep::obs::Registry reg;
    eng.set_metrics(&reg);
    dh::Node node(0, "bn0", dh::knc_booster_node());
    constexpr int kGraphs = 10;
    std::int64_t ns = 0;
    eng.spawn("master", [&](ds::Context& ctx) {
      for (int g = 0; g < kGraphs; ++g) {
        deep::ompss::Runtime rt(ctx, node);
        deep::apps::TiledMatrix a(8, 24);
        deep::apps::fill_spd(a, 1);
        const std::int64_t t0 = now_ns();
        deep::apps::submit_cholesky_tasks(rt, a);
        rt.taskwait();
        ns += now_ns() - t0;
      }
    });
    eng.run();
    const std::int64_t tasks = reg.value("ompss.tasks");
    return tasks > 0 ? static_cast<double>(ns) / static_cast<double>(tasks)
                     : -1.0;
  });
}

/// One counter add plus one histogram record on an attached registry.
double record_ns() {
  constexpr int kOps = 1'000'000;
  deep::obs::Registry reg;
  const deep::obs::Counter c = reg.counter("probe.count");
  const deep::obs::Histogram h = reg.histogram("probe.hist");
  const double ns = median_of([&] {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kOps; ++i) {
      c.add(1);
      h.record(i & 4095);
    }
    return per_op(t0, now_ns(), kOps);
  });
  return reg.value("probe.count") == std::int64_t{kOps} * kReps ? ns : -1.0;
}

// --- sys / svc ----------------------------------------------------------------

/// DeepSystem construction + destruction, mean over the specs, in ms.
double build_ms(const std::vector<std::string>& texts) {
  std::vector<double> per_spec;
  for (const std::string& text : texts) {
    dsv::Reject reject;
    const std::optional<dsv::JobSpec> spec = dsv::JobSpec::from_text(text, reject);
    if (!spec) return -1.0;
    const deep::sys::SystemConfig cfg = spec->to_config();
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const std::int64_t t0 = now_ns();
      { deep::sys::DeepSystem system(cfg); }
      reps.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    per_spec.push_back(median(std::move(reps)));
  }
  double sum = 0.0;
  for (const double v : per_spec) sum += v;
  return sum / static_cast<double>(per_spec.size());
}

/// JobSpec::from_text + key_hash, per spec.
double parse_ns(const std::vector<std::string>& texts) {
  const int passes = std::max<int>(1, 10'000 / static_cast<int>(texts.size()));
  return median_of([&] {
    std::size_t sink = 0;
    const std::int64_t t0 = now_ns();
    for (int p = 0; p < passes; ++p) {
      for (const std::string& text : texts) {
        dsv::Reject reject;
        const auto spec = dsv::JobSpec::from_text(text, reject);
        if (spec) sink += spec->key_hash().size();
      }
    }
    const double ns = per_op(t0, now_ns(),
                             static_cast<double>(passes) * texts.size());
    return sink == 16 * static_cast<std::size_t>(passes) * texts.size() ? ns
                                                                       : -1.0;
  });
}

}  // namespace

void run_probes(const ProbeInputs& in, Spans* spans, std::vector<Metric>& out) {
  const auto probe = [&](const std::string& name, const std::string& unit,
                         const std::function<double()>& fn) {
    SpanScope span(spans, "probe." + name);
    out.push_back({name, fn(), unit});
  };
  probe("sim.dispatch_ns", "ns", dispatch_ns);
  probe("sim.switch_ns", "ns", switch_ns);

  SendProbe torus;
  probe("net.extoll.send_ns", "ns", [&] {
    torus = probe_booster_fabric(in.torus_spec, in.msg_bytes);
    return torus.ns_per_msg;
  });
  out.push_back({"net.extoll.allocs_per_msg", torus.allocs_per_msg, "count"});
  probe("net.fattree.send_ns", "ns", [&] {
    return probe_booster_fabric(in.fattree_spec, in.msg_bytes).ns_per_msg;
  });
  probe("net.dragonfly.send_ns", "ns", [&] {
    return probe_booster_fabric(in.dragonfly_spec, in.msg_bytes).ns_per_msg;
  });
  probe("cbp.forward_ns", "ns", [&] { return forward_ns(in.msg_bytes); });

  EagerProbe eager;
  probe("mpi.eager_cycle_ns", "ns", [&] {
    eager = eager_cycle();
    return eager.ns_per_cycle;
  });
  out.push_back(
      {"mpi.eager_allocs_per_cycle", eager.allocs_per_cycle, "count"});

  probe("ompss.task_ns", "ns", task_ns);
  probe("apps.jacobi_ns_per_cell", "ns", jacobi_ns_per_cell);
  probe("obs.record_ns", "ns", record_ns);
  probe("sys.build_ms", "ms", [&] { return build_ms(in.spec_texts); });
  probe("svc.parse_ns", "ns", [&] { return parse_ns(in.spec_texts); });
}

}  // namespace perfbench
