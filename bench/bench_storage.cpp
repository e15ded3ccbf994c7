// Experiment E15 — storage as a shared resource: tape -> disk -> WAN staging.
//
// The sweep drives an LHC-style staging pipeline: N streams arrive at a
// fixed cadence at a source site; each mounts + reads its file off tape,
// then ships it over a WAN link to one of four destination sites. Three
// arms per point:
//   * fifo                — the busy-until head model: tape accesses
//     serialize, network transfers see links only;
//   * maxmin-full         — heads are solver capacity resources (mounts
//     overlap, heads max-min share; each WAN transfer is jointly
//     constrained by source disk read + link + destination disk write),
//     solved by the full reference solver;
//   * maxmin-incremental  — same model on the dirty-component incremental
//     solver.
//
// Self-checks (the bench exits non-zero on any failure):
//   * every arm re-runs and must reproduce its FNV-1a state hash bit for
//     bit (completion times + delivered bytes are deterministic);
//   * per stream count, maxmin-full and maxmin-incremental hashes must be
//     EQUAL — the incremental solver is byte-identical under disk+link
//     joint constraints;
//   * per stream count, the fifo hash must DIFFER from the maxmin hash (the
//     sharing model actually changes the trace), and the incremental solver
//     must never re-rate more flows than the full one;
//   * per arm, makespan must grow with the stream count (staging contention
//     scales, it does not saturate away); state hashes are non-zero, wall
//     times and makespans finite and non-negative.
// A failed check prints a FAIL line and the bench exits 1. Results go to
// BENCH_storage.json; --small caps the sweep for CI, --large adds a
// 4096-stream point.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "core/hash.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "net/flow.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace hosts = lsds::hosts;
namespace obs = lsds::obs;

namespace {

using namespace lsds::bench;

constexpr double kFileBytes = 1e8;    // 100 MB per staged file
constexpr double kCadence = 0.5;      // stream arrivals, seconds apart
constexpr std::size_t kDestinations = 4;

struct ArmResult {
  std::uint64_t hash = 0;
  double makespan = 0;
  double wall_ms = 0;
  std::uint64_t flows_rerated = 0;
  std::uint64_t delivered = 0;
};

ArmResult run_arm(std::size_t streams, hosts::StorageSharing sharing, bool incremental) {
  core::Engine eng;
  hosts::Grid grid(eng);

  hosts::SiteSpec src_spec;
  src_spec.name = "T0";
  src_spec.has_mass_storage = true;
  src_spec.tape_bandwidth = 3e7;     // 30 MB/s robot
  src_spec.tape_mount_latency = 5.0;
  src_spec.disk_read_bw = 2e8;
  src_spec.disk_write_bw = 2e8;
  src_spec.disk_latency = 0.001;
  src_spec.storage_sharing = sharing;
  auto& src = grid.add_site(src_spec);

  std::vector<hosts::Site*> dsts;
  for (std::size_t k = 0; k < kDestinations; ++k) {
    hosts::SiteSpec d;
    d.name = "T1_" + std::to_string(k);
    d.disk_read_bw = 2e8;
    d.disk_write_bw = 1e8;
    d.disk_latency = 0.001;
    d.storage_sharing = sharing;
    auto& site = grid.add_site(d);
    grid.topology().add_link(src.node(), site.node(), 1e8, 0.02);
    dsts.push_back(&site);
  }
  grid.finalize(net::FlowNetwork::Config{incremental});

  for (std::size_t j = 0; j < streams; ++j)
    src.tape().store("f" + std::to_string(j), kFileBytes);

  ArmResult res;
  core::StateHash hash;
  std::uint64_t done = 0;
  for (std::size_t j = 0; j < streams; ++j) {
    eng.schedule_at(kCadence * static_cast<double>(j), [&, j] {
      src.tape().read("f" + std::to_string(j), [&, j] {
        grid.net().start_flow(src.node(), dsts[j % kDestinations]->node(), kFileBytes,
                              [&, j](net::FlowId) {
                                hash.mix(j);
                                hash.mix(bits(eng.now()));
                                res.makespan = eng.now();
                                ++done;
                              });
      });
    });
  }

  const auto w0 = std::chrono::steady_clock::now();
  eng.run();
  res.wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - w0).count();
  hash.mix(bits(grid.net().total_bytes_delivered()));
  hash.mix(done);
  res.hash = hash.value();
  res.flows_rerated = grid.net().flows_rerated();
  res.delivered = done;
  return res;
}

struct Point {
  std::size_t streams = 0;
  std::string arm;
  ArmResult r;
  bool ok = false;
};

obs::Json record(const std::vector<Point>& points) {
  auto doc = obs::Json::object();
  doc.set("benchmark", "storage_staging");
  doc.set("file_bytes", kFileBytes);
  doc.set("destinations", kDestinations);
  auto& arr = doc["points"] = obs::Json::array();
  for (const Point& p : points) {
    auto pt = obs::Json::object();
    pt.set("streams", p.streams);
    pt.set("arm", p.arm);
    pt.set("wall_ms", p.r.wall_ms);
    pt.set("makespan_s", p.r.makespan);
    pt.set("delivered", p.r.delivered);
    pt.set("flows_rerated", p.r.flows_rerated);
    pt.set("state_hash", hex(p.r.hash));
    pt.set("ok", p.ok);
    arr.push(std::move(pt));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sweep = {64, 256, 1024};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") sweep = {32, 128};
    if (std::string(argv[i]) == "--large") sweep.push_back(4096);
  }

  struct Arm {
    const char* name;
    hosts::StorageSharing sharing;
    bool incremental;
  };
  const Arm arms[] = {
      {"fifo", hosts::StorageSharing::kFifo, true},
      {"maxmin-full", hosts::StorageSharing::kMaxMin, false},
      {"maxmin-incremental", hosts::StorageSharing::kMaxMin, true},
  };

  std::printf("== Experiment E15: tape -> disk -> WAN staging under contention ==\n");
  std::printf("%.0f MB files, %zu destination sites, one arrival per %.1fs\n\n", kFileBytes / 1e6,
              kDestinations, kCadence);
  std::printf("%8s  %20s  %12s  %10s  %12s  %s\n", "streams", "arm", "makespan [s]", "wall [ms]",
              "rerated", "self-check");

  std::vector<Point> points;
  SelfCheck check;
  for (std::size_t streams : sweep) {
    ArmResult fifo, full;
    for (const Arm& arm : arms) {
      Point p;
      p.streams = streams;
      p.arm = arm.name;
      p.r = run_arm(streams, arm.sharing, arm.incremental);
      // Determinism re-pass: an identical run must reproduce the hash.
      const ArmResult again = run_arm(streams, arm.sharing, arm.incremental);
      p.ok = again.hash == p.r.hash && p.r.delivered == streams;
      if (arm.sharing == hosts::StorageSharing::kFifo) {
        fifo = p.r;
      } else if (!arm.incremental) {
        full = p.r;
      } else {
        // Differential: both maxmin solvers must agree bit for bit, and the
        // incremental one must not re-rate more flows than the full one.
        p.ok = p.ok && p.r.hash == full.hash;
        check.expect(p.r.flows_rerated <= full.flows_rerated,
                     "streams=%zu: incremental re-rated more flows (%" PRIu64
                     ") than full (%" PRIu64 ")",
                     streams, p.r.flows_rerated, full.flows_rerated);
      }
      std::printf("%8zu  %20s  %12.1f  %10.1f  %12" PRIu64 "  %s\n", streams, arm.name,
                  p.r.makespan, p.r.wall_ms, p.r.flows_rerated, p.ok ? "hash" : "FAILED");
      std::fflush(stdout);
      check.expect(p.ok, "%s@%zu: self-check failed", arm.name, streams);
      check.expect(p.r.hash != 0, "%s@%zu: zero state hash", arm.name, streams);
      for (const double v : {p.r.wall_ms, p.r.makespan}) {
        check.expect(std::isfinite(v) && v >= 0, "%s@%zu: bad measurement %g", arm.name,
                     streams, v);
      }
      points.push_back(p);
    }
    check.expect(fifo.hash != full.hash,
                 "streams=%zu: fifo and maxmin hashes equal, the sharing model changed nothing",
                 streams);
  }

  // Scaling check: within each arm, makespan grows with the stream count.
  for (const Arm& arm : arms) {
    double prev = 0;
    for (const Point& p : points) {
      if (p.arm != arm.name) continue;
      check.expect(p.r.makespan > prev, "%s makespan did not grow at %zu streams", arm.name,
                   p.streams);
      prev = p.r.makespan;
    }
  }

  std::printf("\n");
  check.write(record(points), "BENCH_storage.json");
  return check.ok ? 0 : 1;
}
