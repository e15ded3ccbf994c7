#include "hosts/site.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>

namespace lsds::hosts {

Site::Site(core::Engine& engine, SiteId id, net::NodeId node, const SiteSpec& spec)
    : id_(id),
      node_(node),
      spec_(spec),
      cpu_(engine, spec.name + ".cpu", spec.cores, spec.cpu_speed, spec.policy),
      disk_(engine, spec.name + ".disk",
            StorageDevice::Spec{spec.disk_capacity, spec.disk_read_bw, spec.disk_write_bw,
                                spec.disk_latency, spec.storage_sharing}) {
  if (spec.has_mass_storage) {
    tape_ = std::make_unique<StorageDevice>(
        engine, spec.name + ".tape",
        mass_storage_spec(spec.tape_capacity, spec.tape_bandwidth, spec.tape_mount_latency,
                          spec.storage_sharing));
  }
  if (spec.has_ssd) {
    ssd_ = std::make_unique<StorageDevice>(
        engine, spec.name + ".ssd",
        StorageDevice::Spec{spec.ssd_capacity, spec.ssd_read_bw, spec.ssd_write_bw,
                            spec.ssd_latency, spec.storage_sharing});
  }
}

StorageDevice* Site::storage(StorageTier tier) {
  switch (tier) {
    case StorageTier::kTape:
      return tape_.get();
    case StorageTier::kDisk:
      return &disk_;
    case StorageTier::kSsd:
      return ssd_.get();
  }
  return nullptr;
}

void Site::attach_solver(net::FlowNetwork& net) {
  // Ascending tier order (tape, disk, ssd) so resource ids are a pure
  // function of site order — determinism by construction.
  if (tape_) tape_->attach_solver(net);
  disk_.attach_solver(net);
  if (ssd_) ssd_->attach_solver(net);
}

Site& Grid::add_site(const SiteSpec& spec) {
  const net::NodeId node = topo_.add_node(spec.name, net::NodeKind::kHost);
  return add_site_at(spec, node);
}

Site& Grid::add_site_at(const SiteSpec& spec, net::NodeId node) {
  assert(!finalized() && "cannot add sites after finalize()");
  const auto id = static_cast<SiteId>(sites_.size());
  sites_.push_back(std::make_unique<Site>(engine_, id, node, spec));
  return *sites_.back();
}

void wire_storage(net::FlowNetwork& flows, std::span<Site* const> sites) {
  const bool any_maxmin = std::any_of(sites.begin(), sites.end(), [](const Site* s) {
    return s->spec().storage_sharing == StorageSharing::kMaxMin;
  });
  if (!any_maxmin) return;
  for (Site* s : sites) s->attach_solver(flows);
  auto node_disk = std::make_shared<std::unordered_map<net::NodeId, StorageDevice*>>();
  for (Site* s : sites) node_disk->emplace(s->node(), &s->disk());
  flows.set_endpoint_binder([node_disk](net::NodeId src, net::NodeId dst,
                                        std::vector<net::ResourceId>& resources,
                                        double& extra_latency) {
    const auto src_it = node_disk->find(src);
    if (src_it != node_disk->end() && src_it->second->sharing() == StorageSharing::kMaxMin) {
      resources.push_back(src_it->second->read_resource());
      extra_latency += src_it->second->access_latency();
    }
    const auto dst_it = node_disk->find(dst);
    if (dst_it != node_disk->end() && dst_it->second->sharing() == StorageSharing::kMaxMin) {
      resources.push_back(dst_it->second->write_resource());
      extra_latency += dst_it->second->access_latency();
    }
  });
}

void Grid::finalize(net::FlowNetwork::Config net_cfg) {
  assert(!finalized());
  routing_ = std::make_unique<net::Routing>(topo_);
  finalize_with(*routing_, net_cfg);
}

void Grid::finalize_with(net::RouteProvider& provider, net::FlowNetwork::Config net_cfg) {
  assert(!finalized());
  provider_ = &provider;
  net_ = std::make_unique<net::FlowNetwork>(engine_, provider, net_cfg);
  std::vector<Site*> sites;
  for (auto& s : sites_) sites.push_back(s.get());
  wire_storage(*net_, sites);
}

SiteId Grid::find_site(const std::string& name) const {
  for (const auto& s : sites_) {
    if (s->name() == name) return s->id();
  }
  return kInvalidSite;
}

}  // namespace lsds::hosts
