// Awaitable adapters shared by the simulator facades.
//
// The facades model jobs as coroutine processes (MONARC-style); these
// adapters turn the callback APIs of the substrates into awaitables:
//
//   co_await sim::transfer(net, src, dst, bytes);   // flow completes
//   co_await sim::compute(cpu, job_id, ops);        // CPU work finishes
//   co_await sim::disk_read(disk, lfn);             // head finishes
//   co_await sim::disk_write(disk, lfn, bytes);
#pragma once

#include <coroutine>
#include <memory>
#include <string>

#include "core/engine.hpp"
#include "core/process.hpp"
#include "hosts/cpu.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "middleware/failures.hpp"
#include "net/flow.hpp"

namespace lsds::sim {

/// Wire a FailureSpec onto every site CPU (and, optionally, every link) of
/// a finalized Grid and start the fail/repair cycles. Returns the running
/// injector — keep it alive for the whole run — or nullptr when the spec is
/// disabled. Facades model *transparent* (fail-resume) chaos: outages delay
/// work but never lose it; fail-stop crash recovery is the domain of
/// middleware::FaultTolerantScheduler.
inline std::unique_ptr<middleware::FailureInjector> inject_failures(
    hosts::Grid& grid, const middleware::FailureSpec& spec) {
  if (!spec.enabled) return nullptr;
  auto inject = std::make_unique<middleware::FailureInjector>(grid.engine());
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    inject->add_cpu(grid.site(static_cast<hosts::SiteId>(s)).cpu());
  }
  if (spec.include_links) {
    for (std::size_t l = 0; l < grid.topology().link_count(); ++l) {
      inject->add_link(grid.net(), static_cast<net::LinkId>(l));
    }
  }
  const double horizon = spec.horizon > 0 ? spec.horizon : 1e5;
  inject->start_weibull(spec.weibull_shape, spec.mtbf, spec.mttr, horizon);
  return inject;
}

struct TransferAwaiter {
  net::FlowNetwork& net;
  net::NodeId src, dst;
  double bytes;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    net.start_flow(src, dst, bytes, [h](net::FlowId) { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline TransferAwaiter transfer(net::FlowNetwork& net, net::NodeId src, net::NodeId dst,
                                double bytes) {
  return {net, src, dst, bytes};
}

struct ComputeAwaiter {
  hosts::CpuResource& cpu;
  hosts::JobId id;
  double ops;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    cpu.submit(id, ops, [h](hosts::JobId) { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline ComputeAwaiter compute(hosts::CpuResource& cpu, hosts::JobId id, double ops) {
  return {cpu, id, ops};
}

struct DiskReadAwaiter {
  hosts::StorageDevice& disk;
  const std::string& lfn;
  /// Missing files complete immediately (ready) — callers check has() when
  /// the distinction matters.
  bool await_ready() const noexcept { return !disk.has(lfn); }
  void await_suspend(std::coroutine_handle<> h) const {
    disk.read(lfn, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

inline DiskReadAwaiter disk_read(hosts::StorageDevice& disk, const std::string& lfn) {
  return {disk, lfn};
}

struct DiskWriteAwaiter {
  hosts::StorageDevice& disk;
  std::string lfn;
  double bytes;
  bool ok = false;
  bool await_ready() noexcept {
    // Attempted in await_suspend; nothing to do if write is rejected.
    return false;
  }
  bool await_suspend(std::coroutine_handle<> h) {
    ok = disk.write(lfn, bytes, [h] { h.resume(); });
    return ok;  // rejected -> resume immediately (do not suspend)
  }
  /// True when the write was accepted and completed.
  bool await_resume() const noexcept { return ok; }
};

inline DiskWriteAwaiter disk_write(hosts::StorageDevice& disk, std::string lfn, double bytes) {
  return {disk, std::move(lfn), bytes, false};
}

}  // namespace lsds::sim
