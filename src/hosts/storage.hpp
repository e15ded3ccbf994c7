// Storage: disks, mass storage (tape), and the files they hold.
//
// The taxonomy's host axis includes "the types of data storage facilities".
// A StorageDevice tracks capacity and per-file metadata (size, creation and
// last-access times, pin state — the hooks replication strategies need) and
// times I/O under one of two sharing models:
//
//   * StorageSharing::kFifo (default) — the original busy-until model: one
//     head, accesses serialize FIFO, each paying the per-access seek/mount
//     latency. Closed-form, no solver involvement; traces are locked
//     byte-identical to the pre-resource-API framework by
//     tests/storage_sharing_test.cpp.
//   * StorageSharing::kMaxMin — the device registers a read-head and a
//     write-head capacity resource with a net::FlowNetwork
//     (attach_solver), and every read/write becomes a flow constrained by
//     that resource: N concurrent readers max-min share read_bw, exactly
//     like flows share a link — because to the solver a disk IS a link
//     without endpoints (the SimGrid DiskImpl design). Network transfers
//     whose endpoints sit on max-min devices pick up `source disk read +
//     route links + destination disk write` as one jointly-solved
//     constraint set via the FlowNetwork endpoint binder installed by
//     hosts::Grid.
//
// Both modes share the catalog (store/evict/LRU/LFU/pin) and statistics
// API unchanged. Mass storage adds a per-access mount latency, modeling
// MONARC's tape robots; in max-min mode the mount latency is the flow's
// access-latency phase, so robot mounts overlap while the tape heads
// contend.
//
// The catalog is one vector of entries sorted by name, because list() and the
// LRU/LFU tie-breaks are in name order. An entry is a StoredFile (its lfn is
// the one copy of the name) plus a pending flag for a write() whose head has
// not finished: capacity is reserved, but every query treats the file as
// absent. store() and write() each do one search. A name that sorts after
// the last entry, as names numbered in order nearly always do, is appended
// after one comparison; any other name (past 99,999 files "raw100000" sorts
// before "raw99999") takes a binary search and an insert that moves the
// entries after it, as does an eviction, so both are O(n) in the middle.
// That suits the users: MONARC and the tier model store thousands of files
// per device, nearly all appended, and never evict; OptorSim and ChicSim
// evict, but keep tens of files per cache. A write's completion finds its entry by name and
// clears the flag. No file costs a heap block of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/flow.hpp"

namespace lsds::hosts {

struct StoredFile {
  std::string lfn;  // logical file name
  double bytes = 0;
  double created = 0;
  double last_access = 0;
  std::uint64_t access_count = 0;
  bool pinned = false;  // pinned files are never eviction candidates
};

/// How concurrent accesses to one device contend. kFifo serializes behind a
/// busy-until head; kMaxMin max-min shares the head bandwidth through the
/// flow solver (requires attach_solver).
enum class StorageSharing { kFifo, kMaxMin };

class StorageDevice {
 public:
  struct Spec {
    double capacity = 0;   // bytes
    double read_bw = 0;    // bytes/s
    double write_bw = 0;   // bytes/s
    double latency = 0;    // per-access seek/mount latency, seconds
    StorageSharing sharing = StorageSharing::kFifo;
  };

  StorageDevice(core::Engine& engine, std::string name, Spec spec);

  // --- capacity-resource wiring (max-min mode) -----------------------------

  /// Register this device's read and write heads as capacity resources of
  /// `net`. Required before timed I/O when sharing == kMaxMin; a no-op in
  /// FIFO mode (FIFO devices never touch the solver — that is what keeps
  /// fifo traces byte-identical to the pre-solver framework).
  void attach_solver(net::FlowNetwork& net);
  bool solver_attached() const { return net_ != nullptr; }
  StorageSharing sharing() const { return spec_.sharing; }
  /// Resource ids of the heads (valid only after attach_solver).
  net::ResourceId read_resource() const { return read_res_; }
  net::ResourceId write_resource() const { return write_res_; }

  // --- catalog (instant metadata operations) -------------------------------

  /// Register a file if capacity allows. Returns false when full, dup, or
  /// while a write() of the name is pending.
  /// Throws std::invalid_argument when `bytes` is negative or non-finite.
  bool store(const std::string& lfn, double bytes, bool pinned = false);
  bool has(const std::string& lfn) const { return file(lfn) != nullptr; }
  /// Remove a file. Pinned files are protected: evict refuses (returns
  /// false) until set_pinned(lfn, false).
  bool evict(const std::string& lfn);
  /// Pin/unpin a stored file. Returns false when absent.
  bool set_pinned(const std::string& lfn, bool pinned);
  /// Least-recently-used unpinned file; nullopt when none.
  std::optional<std::string> lru_candidate() const;
  /// Least-frequently-used unpinned file; nullopt when none.
  std::optional<std::string> lfu_candidate() const;
  /// The stored file, or nullptr (also while its write is pending). The
  /// pointer is valid until the next store, write or evict.
  const StoredFile* file(const std::string& lfn) const;
  std::vector<std::string> list() const;
  std::size_t file_count() const { return stored_; }

  double used() const { return used_; }
  double capacity() const { return spec_.capacity; }
  double free() const { return spec_.capacity - used_; }
  /// Per-access seek/mount latency from the spec.
  double access_latency() const { return spec_.latency; }

  // --- timed I/O -----------------------------------------------------------

  using IoDoneFn = std::function<void()>;

  /// Timed read of a stored file; bumps access stats. `on_done` fires when
  /// the head finishes (FIFO) or the flow drains (max-min). Returns false
  /// (no callback) if the file is absent.
  bool read(const std::string& lfn, IoDoneFn on_done);
  /// Timed write; reserves capacity immediately, registers the file on
  /// completion. Returns false without side effects when it cannot fit or
  /// the name exists. Throws std::invalid_argument on negative or
  /// non-finite `bytes`.
  bool write(const std::string& lfn, double bytes, IoDoneFn on_done);

  /// Heuristic cost of one more access right now, for placement decisions
  /// (the replica catalog ranks staging sources with this): FIFO = current
  /// queue wait + seek/mount latency; max-min = latency scaled by the
  /// number of accesses already sharing the heads. Deterministic.
  double estimated_access_delay() const;
  /// Timed I/O currently in flight (max-min mode; 0 in FIFO mode).
  std::size_t active_ios() const { return active_ios_; }

  // --- statistics -----------------------------------------------------------

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  double bytes_read() const { return bytes_read_; }
  double bytes_written() const { return bytes_written_; }
  const std::string& name() const { return name_; }

 private:
  struct Entry {
    StoredFile file;
    bool pending = false;  // a write() in flight: capacity reserved, not visible
  };

  double schedule_io(double duration, IoDoneFn on_done);
  void start_shared_io(double bytes, net::ResourceId head, IoDoneFn on_done);

  core::Engine& engine_;
  std::string name_;
  Spec spec_;
  net::FlowNetwork* net_ = nullptr;
  net::ResourceId read_res_ = net::kInvalidResource;
  net::ResourceId write_res_ = net::kInvalidResource;
  std::vector<Entry> entries_;  // sorted by file.lfn
  std::size_t stored_ = 0;      // entries that are not pending
  double used_ = 0;
  double busy_until_ = 0;
  std::size_t active_ios_ = 0;
  std::uint64_t reads_ = 0, writes_ = 0;
  double bytes_read_ = 0, bytes_written_ = 0;
};

/// Tape-robot convenience: a StorageDevice spec with a large mount latency
/// and modest bandwidth.
StorageDevice::Spec mass_storage_spec(double capacity, double bandwidth, double mount_latency,
                                      StorageSharing sharing = StorageSharing::kFifo);

}  // namespace lsds::hosts
