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

// The position of `lfn` in a catalog sorted by name: its entry, or where it
// would be inserted. A name past the last entry costs one comparison.
template <class Entries>
auto position(Entries& entries, const std::string& lfn) {
  if (entries.empty() || entries.back().file.lfn < lfn) return entries.end();
  return std::lower_bound(entries.begin(), entries.end(), lfn,
                          [](const auto& e, const std::string& n) { return e.file.lfn < n; });
}

// The entry named `lfn`, stored or pending, or end().
template <class Entries>
auto find_entry(Entries& entries, const std::string& lfn) {
  const auto it = position(entries, lfn);
  return it != entries.end() && it->file.lfn == lfn ? it : entries.end();
}

// The stored file named `lfn`, or nullptr when it is absent or its write is
// pending.
template <class Entries>
auto stored_file(Entries& entries, const std::string& lfn) -> decltype(&entries.front().file) {
  const auto it = find_entry(entries, lfn);
  return it == entries.end() || it->pending ? nullptr : &it->file;
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
  if (used_ + bytes > spec_.capacity) return false;
  const auto at = position(entries_, lfn);
  if (at != entries_.end() && at->file.lfn == lfn) return false;  // stored, or write pending
  const double now = engine_.now();
  entries_.insert(at, Entry{StoredFile{lfn, bytes, now, now, 0, pinned}});
  ++stored_;
  used_ += bytes;
  return true;
}

bool StorageDevice::evict(const std::string& lfn) {
  const auto it = find_entry(entries_, lfn);
  if (it == entries_.end() || it->pending) return false;
  if (it->file.pinned) return false;  // pinned files survive eviction
  used_ -= it->file.bytes;
  entries_.erase(it);
  --stored_;
  return true;
}

bool StorageDevice::set_pinned(const std::string& lfn, bool pinned) {
  StoredFile* f = stored_file(entries_, lfn);
  if (!f) return false;
  f->pinned = pinned;
  return true;
}

std::optional<std::string> StorageDevice::lru_candidate() const {
  const StoredFile* best = nullptr;
  for (const auto& e : entries_) {
    const StoredFile& f = e.file;
    if (e.pending || f.pinned) continue;
    if (!best || f.last_access < best->last_access) best = &f;
  }
  if (!best) return std::nullopt;
  return best->lfn;
}

std::optional<std::string> StorageDevice::lfu_candidate() const {
  const StoredFile* best = nullptr;
  for (const auto& e : entries_) {
    const StoredFile& f = e.file;
    if (e.pending || f.pinned) continue;
    if (!best || f.access_count < best->access_count ||
        (f.access_count == best->access_count && f.last_access < best->last_access)) {
      best = &f;
    }
  }
  if (!best) return std::nullopt;
  return best->lfn;
}

const StoredFile* StorageDevice::file(const std::string& lfn) const {
  return stored_file(entries_, lfn);
}

std::vector<std::string> StorageDevice::list() const {
  std::vector<std::string> out;
  out.reserve(stored_);
  for (const auto& e : entries_) {
    if (!e.pending) out.push_back(e.file.lfn);
  }
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
  StoredFile* f = stored_file(entries_, lfn);
  if (!f) return false;
  f->last_access = engine_.now();
  ++f->access_count;
  ++reads_;
  bytes_read_ += f->bytes;
  if (spec_.sharing == StorageSharing::kMaxMin) {
    start_shared_io(f->bytes, read_res_, std::move(on_done));
  } else {
    schedule_io(f->bytes / spec_.read_bw, std::move(on_done));
  }
  return true;
}

bool StorageDevice::write(const std::string& lfn, double bytes, IoDoneFn on_done) {
  validate_bytes("write", bytes);
  if (used_ + bytes > spec_.capacity) return false;
  const auto at = position(entries_, lfn);
  if (at != entries_.end() && at->file.lfn == lfn) return false;  // stored, or write pending
  // Reserve capacity immediately; the file becomes visible when the head
  // finishes.
  entries_.insert(at, Entry{StoredFile{lfn, bytes, 0, 0, 0, false}, /*pending=*/true});
  used_ += bytes;
  ++writes_;
  bytes_written_ += bytes;
  IoDoneFn finish = [this, lfn, cb = std::move(on_done)] {
    // store(), write() and evict() leave a pending entry alone, so it is
    // still there.
    const auto it = find_entry(entries_, lfn);
    assert(it != entries_.end() && it->pending);
    it->file.created = it->file.last_access = engine_.now();
    it->pending = false;
    ++stored_;
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
