// Sites (regional centers) and the Grid container.
//
// MONARC's largest component is "the regional center, which contains a farm
// of processing nodes (CPU units), database servers and mass storage units,
// as well as one or more local and wide area networks". A Site bundles a
// CPU farm, a disk storage element and optional mass storage, attached to a
// topology node. Grid owns the sites plus the network stack and finalizes
// routing once the topology is complete.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "hosts/cpu.hpp"
#include "hosts/storage.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace lsds::hosts {

using SiteId = std::uint32_t;
inline constexpr SiteId kInvalidSite = static_cast<SiteId>(-1);

struct SiteSpec {
  std::string name;
  unsigned cores = 1;
  double cpu_speed = 1000;  // ops/s per core
  SharingPolicy policy = SharingPolicy::kSpaceShared;
  double disk_capacity = 1e12;
  double disk_read_bw = 100e6;
  double disk_write_bw = 100e6;
  double disk_latency = 0.005;
  /// Price per CPU-second (GridSim economy facade); 0 = free.
  double price_per_cpu_second = 0;
  /// Optional mass storage (tape).
  bool has_mass_storage = false;
  double tape_capacity = 1e15;
  double tape_bandwidth = 30e6;
  double tape_mount_latency = 30.0;
  /// Optional fast tier (SSD cache in front of the disk buffer).
  bool has_ssd = false;
  double ssd_capacity = 1e11;
  double ssd_read_bw = 500e6;
  double ssd_write_bw = 400e6;
  double ssd_latency = 1e-4;
  /// Contention model for every storage tier of this site. kMaxMin makes
  /// the devices capacity resources of the grid's flow network, so network
  /// transfers are jointly constrained by endpoint disks (Grid installs
  /// the endpoint binder when any site opts in).
  StorageSharing storage_sharing = StorageSharing::kFifo;
};

/// The tiers a site may carry, slowest to fastest.
enum class StorageTier { kTape, kDisk, kSsd };

class Site {
 public:
  Site(core::Engine& engine, SiteId id, net::NodeId node, const SiteSpec& spec);

  SiteId id() const { return id_; }
  net::NodeId node() const { return node_; }
  const std::string& name() const { return spec_.name; }
  const SiteSpec& spec() const { return spec_; }

  CpuResource& cpu() { return cpu_; }
  const CpuResource& cpu() const { return cpu_; }
  StorageDevice& disk() { return disk_; }
  const StorageDevice& disk() const { return disk_; }
  bool has_tape() const { return tape_ != nullptr; }
  StorageDevice& tape() { return *tape_; }
  bool has_ssd() const { return ssd_ != nullptr; }
  StorageDevice& ssd() { return *ssd_; }
  /// Tier accessor; nullptr when the site does not carry that tier.
  StorageDevice* storage(StorageTier tier);
  /// Register every max-min tier with the flow network (no-op for FIFO
  /// tiers). wire_storage calls this.
  void attach_solver(net::FlowNetwork& net);

 private:
  SiteId id_;
  net::NodeId node_;
  SiteSpec spec_;
  CpuResource cpu_;
  StorageDevice disk_;
  std::unique_ptr<StorageDevice> tape_;
  std::unique_ptr<StorageDevice> ssd_;
};

/// Attach the max-min storage tiers of `sites` to `flows` in the given
/// order (ascending site id keeps resource ids a pure function of site
/// order) and, when any of them opted into max-min sharing, install the
/// endpoint binder that joins `source disk read + route links + destination
/// disk write` into one constraint set. The binder maps a node to the first
/// of `sites` attached to it, so it is pure in (src, dst). When every site
/// is FIFO, `flows` stays link-only and gets no binder. Grid wires all its
/// sites into its one network; ParallelGrid wires each LP's network with
/// that LP's own sites.
void wire_storage(net::FlowNetwork& flows, std::span<Site* const> sites);

/// Owns the simulated distributed system: topology + sites + (after
/// finalize) routing and the flow network. Build order: add nodes/links and
/// sites, then finalize(), then simulate.
class Grid {
 public:
  explicit Grid(core::Engine& engine) : engine_(engine) {}

  core::Engine& engine() { return engine_; }
  net::Topology& topology() { return topo_; }
  const net::Topology& topology() const { return topo_; }

  /// Create a topology node and a Site attached to it.
  Site& add_site(const SiteSpec& spec);
  /// Attach a site to an existing node.
  Site& add_site_at(const SiteSpec& spec, net::NodeId node);

  /// Build routing + flow network over the flat topology. The topology
  /// must not change afterwards.
  void finalize(net::FlowNetwork::Config net_cfg = {});
  /// Zone/external-provider variant: routes come from `provider` instead of
  /// a flat graph (sites attach to provider node ids via add_site_at; the
  /// local topology stays unused). `provider` must outlive the grid.
  void finalize_with(net::RouteProvider& provider, net::FlowNetwork::Config net_cfg = {});
  bool finalized() const { return provider_ != nullptr; }

  /// The route provider every consumer should program against (works for
  /// both flat and zone-backed grids).
  net::RouteProvider& route_provider() { return *provider_; }
  /// The flat Routing; only valid after finalize() (not finalize_with).
  net::Routing& routing() { return *routing_; }
  net::FlowNetwork& net() { return *net_; }

  std::size_t site_count() const { return sites_.size(); }
  Site& site(SiteId id) { return *sites_[id]; }
  const Site& site(SiteId id) const { return *sites_[id]; }
  /// Lookup by name; kInvalidSite when absent.
  SiteId find_site(const std::string& name) const;

 private:
  core::Engine& engine_;
  net::Topology topo_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<net::Routing> routing_;
  net::RouteProvider* provider_ = nullptr;
  std::unique_ptr<net::FlowNetwork> net_;
};

}  // namespace lsds::hosts
