#include "hosts/storage.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace lsds::hosts {

namespace {
void validate_bytes(const char* op, double bytes) {
  if (!std::isfinite(bytes) || bytes < 0) {
    throw std::invalid_argument(std::string("StorageDevice::") + op +
                                ": bytes must be finite and >= 0");
  }
}
}  // namespace

StorageDevice::StorageDevice(core::Engine& engine, std::string name, Spec spec)
    : engine_(engine), name_(std::move(name)), spec_(spec) {
  assert(spec_.capacity > 0 && spec_.read_bw > 0 && spec_.write_bw > 0);
}

void StorageDevice::attach_solver(net::FlowNetwork& net) {
  if (spec_.sharing != StorageSharing::kMaxMin) return;  // FIFO: solver-free
  assert(net_ == nullptr && "StorageDevice: solver already attached");
  net_ = &net;
  read_res_ = net.add_resource(spec_.read_bw, name_ + ".read");
  write_res_ = net.add_resource(spec_.write_bw, name_ + ".write");
}

bool StorageDevice::store(const std::string& lfn, double bytes, bool pinned) {
  validate_bytes("store", bytes);
  if (used_ + bytes > spec_.capacity || pending_writes_.count(lfn)) return false;
  const double now = engine_.now();
  const std::size_t before = files_.size();
  files_.try_emplace(files_.end(), lfn, StoredFile{lfn, bytes, now, now, 0, pinned});
  if (files_.size() == before) return false;  // the name is taken
  used_ += bytes;
  return true;
}

bool StorageDevice::evict(const std::string& lfn) {
  auto it = files_.find(lfn);
  if (it == files_.end()) return false;
  if (it->second.pinned) return false;  // pinned files survive eviction
  used_ -= it->second.bytes;
  files_.erase(it);
  return true;
}

bool StorageDevice::set_pinned(const std::string& lfn, bool pinned) {
  auto it = files_.find(lfn);
  if (it == files_.end()) return false;
  it->second.pinned = pinned;
  return true;
}

std::optional<std::string> StorageDevice::lru_candidate() const {
  const StoredFile* best = nullptr;
  for (const auto& [lfn, f] : files_) {
    if (f.pinned) continue;
    if (!best || f.last_access < best->last_access) best = &f;
  }
  if (!best) return std::nullopt;
  return best->lfn;
}

std::optional<std::string> StorageDevice::lfu_candidate() const {
  const StoredFile* best = nullptr;
  for (const auto& [lfn, f] : files_) {
    if (f.pinned) continue;
    if (!best || f.access_count < best->access_count ||
        (f.access_count == best->access_count && f.last_access < best->last_access)) {
      best = &f;
    }
  }
  if (!best) return std::nullopt;
  return best->lfn;
}

const StoredFile* StorageDevice::file(const std::string& lfn) const {
  auto it = files_.find(lfn);
  return it == files_.end() ? nullptr : &it->second;
}

std::vector<std::string> StorageDevice::list() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [lfn, f] : files_) out.push_back(lfn);
  return out;
}

double StorageDevice::schedule_io(double duration, IoDoneFn on_done) {
  const double now = engine_.now();
  const double start = std::max(now, busy_until_) + spec_.latency;
  busy_until_ = start + duration;
  engine_.schedule_at(busy_until_, [cb = std::move(on_done)] {
    if (cb) cb();
  });
  return busy_until_;
}

void StorageDevice::start_shared_io(double bytes, net::ResourceId head, IoDoneFn on_done) {
  assert(net_ != nullptr &&
         "StorageDevice: max-min sharing requires attach_solver before timed I/O");
  ++active_ios_;
  net_->start_io(bytes, {head}, spec_.latency,
                 [this, cb = std::move(on_done)](net::FlowId) {
                   --active_ios_;
                   if (cb) cb();
                 });
}

bool StorageDevice::read(const std::string& lfn, IoDoneFn on_done) {
  auto it = files_.find(lfn);
  if (it == files_.end()) return false;
  it->second.last_access = engine_.now();
  ++it->second.access_count;
  ++reads_;
  bytes_read_ += it->second.bytes;
  if (spec_.sharing == StorageSharing::kMaxMin) {
    start_shared_io(it->second.bytes, read_res_, std::move(on_done));
  } else {
    schedule_io(it->second.bytes / spec_.read_bw, std::move(on_done));
  }
  return true;
}

bool StorageDevice::write(const std::string& lfn, double bytes, IoDoneFn on_done) {
  validate_bytes("write", bytes);
  if (used_ + bytes > spec_.capacity || files_.count(lfn)) return false;
  const std::size_t before = pending_writes_.size();
  const auto pending = pending_writes_.insert(pending_writes_.end(), lfn);
  if (pending_writes_.size() == before) return false;  // a write of it is pending
  // Reserve capacity immediately; the file becomes visible when the head
  // finishes. Only the completion erases a pending name, so its iterator
  // stays valid until then.
  used_ += bytes;
  ++writes_;
  bytes_written_ += bytes;
  IoDoneFn finish = [this, pending, bytes, cb = std::move(on_done)] {
    const double now = engine_.now();
    const std::string& lfn = *pending;
    // store() and write() refuse a pending name, so the name is still free.
    files_.try_emplace(files_.end(), lfn, StoredFile{lfn, bytes, now, now, 0, false});
    pending_writes_.erase(pending);
    if (cb) cb();
  };
  if (spec_.sharing == StorageSharing::kMaxMin) {
    start_shared_io(bytes, write_res_, std::move(finish));
  } else {
    schedule_io(bytes / spec_.write_bw, std::move(finish));
  }
  return true;
}

double StorageDevice::estimated_access_delay() const {
  if (spec_.sharing == StorageSharing::kFifo) {
    return std::max(0.0, busy_until_ - engine_.now()) + spec_.latency;
  }
  // Max-min: accesses overlap rather than queue; each concurrent I/O
  // shrinks the newcomer's fair share, so scale the access latency by the
  // current sharers as a placement-cost proxy.
  return spec_.latency * (1.0 + static_cast<double>(active_ios_));
}

StorageDevice::Spec mass_storage_spec(double capacity, double bandwidth, double mount_latency,
                                      StorageSharing sharing) {
  StorageDevice::Spec s;
  s.capacity = capacity;
  s.read_bw = bandwidth;
  s.write_bw = bandwidth;
  s.latency = mount_latency;
  s.sharing = sharing;
  return s;
}

}  // namespace lsds::hosts
