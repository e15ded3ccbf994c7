// FTP-like file transfer service on top of the flow-level network.
//
// Adds what raw flows lack: per-(src,dst) concurrent-stream limits (GridFTP
// style) with FIFO queueing, and per-transfer records for analysis. This is
// the "higher-level application protocols such as FTP" rung of the
// taxonomy's protocol axis. The platform facade drives it; the data-grid
// models (OptorSim, MONARC) move replicas as raw flows through
// sim::transfer instead, with no stream limit.
//
// Every transfer dials through FlowNetwork::start_flow_checked, so when the
// grid's sites carry max-min storage (the endpoint binder is installed) each
// stream is automatically constrained by `source disk read + route links +
// destination disk write` as one jointly-solved set — disk-aware transfers
// end to end, with no TransferService configuration.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "net/flow.hpp"
#include "stats/summary.hpp"

namespace lsds::net {

struct TransferRecord {
  std::uint64_t id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  double bytes = 0;
  double submit_time = 0;
  double start_time = 0;   // when the flow actually started (after queueing)
  double finish_time = 0;
  /// Dial attempts made (> 1 when fail-stop outages forced retries).
  std::uint32_t attempts = 1;
  /// True when the transfer gave up after max_attempts aborts.
  bool failed = false;
};

class TransferService {
 public:
  struct Config {
    /// Max simultaneous streams per (src,dst) pair; 0 = unlimited.
    std::size_t max_streams_per_pair = 0;
    /// Retry budget under fail-stop link semantics: total dial attempts per
    /// transfer. 1 = no retry (an abort is a permanent failure), 0 =
    /// unlimited. Aborted attempts are re-dialed after an exponential
    /// backoff instead of hanging on the dead link.
    std::size_t max_attempts = 1;
    /// Backoff schedule, validated at construction: retry_backoff must be
    /// > 0, backoff_factor >= 1, backoff_cap finite and >= 0 (NaN fails all
    /// three). Invalid values throw std::invalid_argument.
    double retry_backoff = 1.0;   // delay before the first re-dial
    double backoff_factor = 2.0;  // growth per further re-dial
    double backoff_cap = 60.0;    // ceiling on the re-dial delay
  };

  using DoneFn = std::function<void(const TransferRecord&)>;

  TransferService(core::Engine& engine, FlowNetwork& net);  // default Config
  TransferService(core::Engine& engine, FlowNetwork& net, Config cfg);

  /// Queue a transfer; `on_done` fires at completion with the full record.
  std::uint64_t submit(NodeId src, NodeId dst, double bytes, DoneFn on_done = nullptr);

  // --- statistics -----------------------------------------------------------

  /// Durations (start -> finish) of completed transfers.
  const stats::SampleSet& durations() const { return durations_; }
  /// Queueing delays (submit -> start).
  const stats::SampleSet& queue_waits() const { return waits_; }
  double bytes_completed() const { return bytes_completed_; }
  std::uint64_t completed() const { return completed_; }
  /// Re-dials after fail-stop aborts.
  std::uint64_t retries() const { return retries_; }
  /// Transfers that exhausted their attempt budget.
  std::uint64_t failed() const { return failed_count_; }
  std::size_t queued() const;

 private:
  struct Pending {
    TransferRecord rec;
    DoneFn on_done;
  };
  using PairKey = std::pair<NodeId, NodeId>;

  void try_start(PairKey key);
  void start_now(Pending p);
  void dial(std::shared_ptr<Pending> p);

  core::Engine& engine_;
  FlowNetwork& net_;
  Config cfg_;
  std::map<PairKey, std::deque<Pending>> queues_;
  std::map<PairKey, std::size_t> in_flight_;
  stats::SampleSet durations_;
  stats::SampleSet waits_;
  double bytes_completed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_count_ = 0;
  std::uint64_t next_id_ = 1;
};

}  // namespace lsds::net
