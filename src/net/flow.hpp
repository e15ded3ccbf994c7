// Flow-level network model with progressive max-min fair sharing over
// generic CAPACITY RESOURCES.
//
// This is the granularity the paper describes as modeling "only the flows of
// packets going from one end to another in the network" — the approach
// SimGrid made standard for Grid simulation. A transfer is a fluid flow that
// receives a max-min fair share of every *capacity resource* it crosses:
//
//   repeat: find the most constrained resource (remaining capacity /
//   unfixed weight), fix those flows at that fair share, remove them,
//   until all flows are fixed.
//
// A capacity resource is anything whose capacity is max-min shared among
// the flows crossing it. The solver knows two implementations of the
// concept, unified in ONE dense id space so every per-resource array
// (capacity, failure state, rate, bytes, dirty-component membership)
// indexes directly:
//
//   * links        — ids [0, link_count()): capacity comes from the
//     RouteProvider's static link table; membership from the flow's route.
//   * registered resources — ids from add_resource(): capacity stored
//     here and adjustable at runtime (set_resource_capacity). This is how
//     disks join the constraint graph (hosts/storage.hpp registers one
//     read-head and one write-head resource per max-min device), so a
//     transfer's constraint set becomes
//
//         source disk read + route links + destination disk write
//
//     solved jointly and incrementally — SimGrid's DiskImpl lesson: a disk
//     is just another constraint in the same LMM system as the links.
//
// Whenever the set of active flows changes, shares are re-solved and byte
// progress is settled lazily from per-flow anchors (each flow's remaining is
// a closed form of its last rate change — no global per-event progression
// pass). Two further scalability mechanisms (SimGrid's lazy/partial-resolve
// lesson) keep the hot path sub-global:
//
//   * The sharing constraint graph is partitioned into connected components
//     by a union-find over shared resources, maintained incrementally on
//     flow add/remove and resource-state change (a disk capacity change
//     dirties exactly the component that disk anchors). A change re-solves
//     only the dirty component(s); every other flow keeps its rate — and
//     its pending completion event — untouched. Components only merge
//     between periodic rebuilds, so a re-solve may cover a stale
//     super-component; that is a pure performance matter, never a
//     correctness one, because the weighted max-min allocation of
//     disconnected flow sets decomposes exactly.
//   * One queued completion event per component. Every flow with a rate
//     keeps a *reserved* completion key (core::Engine::reserve_at): the
//     instant anchor_t + remaining/rate plus the sequence number a per-flow
//     event would have had. A re-solve re-reserves only the flows whose rate
//     changed (bitwise), then queues the earliest key of each component it
//     touched — one queue operation per change even when, on a saturated
//     link, the change re-rates every flow. Because a queued event runs
//     under exactly its per-flow key, completions (ties at equal instants
//     included) interleave with every other event exactly as one event per
//     flow would.
//   * Solver state in member lists, in id order. A sharing flow's solver
//     state — rate, weight, remaining bytes, anchor, reserved completion key
//     and queued-event slot — is an entry of its component's member list,
//     not a field of its Flow (which keeps the cold fields: constraint set,
//     callbacks, span data). Each list holds its entries contiguously in
//     ascending FlowId order: an append in the common case, a binary-search
//     insert otherwise, an inplace_merge when two components unite. The
//     lowest id leaves in O(1) — on a saturated link of equal shares the
//     oldest flow finishes first — and any other departure shifts the
//     shorter side. A change on one component then solves its list as it
//     stands; only a change that dirties several components sorts their
//     union. The general solver, settle, finish, cancel and the fail-stop
//     path all reach the state through the lists (a binary search by id).
//   * One pass for a component that shares one constraint set. When the
//     only dirty component with flows has every member crossing the same
//     resource list (no resource listed twice) — a MONARC T0->T1 link, or
//     any route that all its flows share — every resource of the set
//     carries the same weight sum, and the general solver fixes every
//     member at its first bottleneck. One pass over the members in id order
//     then assigns each rate (best * weight), sums the resource load,
//     settles at the old rate, re-keys and picks the earliest (time, event
//     id) key, using the same floating-point operations in the same order
//     as the general path: results stay bit-identical to it, and to the
//     full reference solver, which never takes this pass. The pass walks
//     the list front to back and makes no call: keys come from a local
//     sequence counter (core::Engine::KeyRun), the byte counters and the
//     load stay in locals until it ends, and the completions it supersedes
//     are cancelled after the loop. When the list knows its members all
//     share the front's set and weight, and that weight is a power of two
//     (the default weight 1 is), the weight sum is n * weight exactly and
//     the pass needs no check loop.
//
// Why no O(log N) heap of virtual finish times: a heap reserves each
// completion key once and settles lazily, which moves completion instants
// in their last bits and the keys' tie order against other events. The
// exact solver must settle and re-key every flow of a saturated component
// at every change, so its cost per change stays O(N); the flat member lists
// cut the constant per member, which bench_flow_scaling's saturated sweep
// (E11) tracks. A virtual-time solver waits for a stated tolerance on
// completion instants; its per-flow finish tags would live in the same
// lists.
//
// Determinism: the bottleneck scan walks resources in ascending ResourceId
// order and flows in ascending FlowId order, so tie-broken bottleneck
// selection is deterministic by construction — and the incremental solver
// produces byte-identical traces to the full solver (Config::incremental =
// false), locked in by tests/flow_incremental_test.cpp (links, and links
// plus registered disk heads) and tests/storage_sharing_test.cpp (storage
// devices in the constraint sets) across all queue kinds. The model is
// validated against closed forms in
// tests/net_test.cpp (max-min invariants as TEST_P properties) and in
// experiments E5 and E15.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/failure.hpp"
#include "net/routing.hpp"
#include "stats/timeseries.hpp"

namespace lsds::net {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

/// Dense id of a capacity resource in a FlowNetwork: link ids [0,
/// link_count()) followed by registered (non-link) resources in
/// registration order. LinkId values are valid ResourceIds unchanged.
using ResourceId = LinkId;
inline constexpr ResourceId kInvalidResource = kInvalidLink;

class FlowNetwork {
 public:
  using CompletionFn = std::function<void(FlowId)>;
  /// Fired when a flow is aborted by a fail-stop resource outage.
  using ErrorFn = std::function<void(FlowId)>;

  struct Config {
    /// Re-solve only the connected component(s) of the constraint graph
    /// dirtied by a change (default). false = re-solve globally on every
    /// change — the reference solver the differential suite compares
    /// against; both produce byte-identical traces.
    bool incremental = true;
  };

  /// Everything that defines a flow. `resources` are extra capacity
  /// constraints joined with the route's links (e.g. the source disk's read
  /// head and the destination disk's write head); `extra_latency` is added
  /// to the route's propagation latency (e.g. tape mount time).
  struct FlowSpec {
    NodeId src = 0;
    NodeId dst = 0;
    double bytes = 0;
    double weight = 1.0;
    std::vector<ResourceId> resources;
    double extra_latency = 0;
    /// Consult the endpoint binder (set_endpoint_binder) for additional
    /// endpoint resources/latency. start_io sets this false: a pure-device
    /// I/O names its constraints explicitly.
    bool bind_endpoints = true;
    CompletionFn on_complete;
    ErrorFn on_error;
  };

  /// Appends endpoint capacity resources (and extra access latency) for a
  /// (src, dst) flow — installed by hosts::Grid when sites carry max-min
  /// storage, so TransferService, the replica facades and every raw
  /// start_flow call become disk-constrained end to end with no call-site
  /// changes. Must be deterministic (pure in (src, dst)).
  using EndpointBinder =
      std::function<void(NodeId src, NodeId dst, std::vector<ResourceId>& resources,
                         double& extra_latency)>;

  FlowNetwork(core::Engine& engine, RouteProvider& routing, Config cfg);
  FlowNetwork(core::Engine& engine, RouteProvider& routing)
      : FlowNetwork(engine, routing, Config{}) {}

  const Config& config() const { return cfg_; }

  // --- capacity resources --------------------------------------------------

  /// Register a non-link capacity resource (a disk head, a tape robot…).
  /// Returns its id in the same dense space links occupy. Capacity must be
  /// > 0 and finite (throws std::invalid_argument otherwise). Resources can
  /// be registered at any time; ids are stable for the network's lifetime.
  ResourceId add_resource(double capacity, std::string name = {});
  /// Number of registered (non-link) resources.
  std::size_t resource_count() const { return extra_caps_.size(); }
  /// Total resources = links + registered.
  std::size_t total_resources() const { return n_links_ + extra_caps_.size(); }

  /// Live capacity of any resource (link table or registered store).
  double resource_capacity(ResourceId id) const {
    return id < n_links_ ? routing_.link_bandwidth(id) : extra_caps_[id - n_links_];
  }
  /// Change a registered resource's capacity (degraded RAID, robot taken
  /// offline for maintenance at reduced throughput…). Dirties exactly the
  /// resource's component; the incremental re-solve covers the rate change.
  /// Only registered resources are mutable (links are owned by the
  /// RouteProvider); throws std::invalid_argument on a link id or a
  /// non-finite/non-positive capacity.
  void set_resource_capacity(ResourceId id, double capacity);
  const std::string& resource_name(ResourceId id) const;

  /// Begin a transfer of `bytes` from src to dst. The flow first experiences
  /// the route's propagation latency (+ any bound endpoint access latency),
  /// then shares capacity. `on_complete` fires when the last byte arrives.
  /// src == dst completes after the latency alone unless endpoint resources
  /// are bound (a local copy still contends for its disk). Throws
  /// std::invalid_argument when dst is unreachable, when bytes is negative
  /// or not finite, or (weighted variants) when weight is not finite and
  /// > 0.
  FlowId start_flow(NodeId src, NodeId dst, double bytes, CompletionFn on_complete = nullptr);

  /// Weighted variant: the max-min shares become weighted — on a saturated
  /// resource, a weight-2 flow receives twice the rate of a weight-1 flow
  /// (SimGrid-style flow priorities). weight must be > 0.
  FlowId start_flow_weighted(NodeId src, NodeId dst, double bytes, double weight,
                             CompletionFn on_complete = nullptr, ErrorFn on_error = nullptr);

  /// Failure-aware variant: under kFailStop semantics, `on_error` fires
  /// (instead of the flow hanging) when an outage hits the constraint set —
  /// including a route that is already down at start time. The recovery
  /// layer (net/transfer.hpp retries) builds on this.
  FlowId start_flow_checked(NodeId src, NodeId dst, double bytes, CompletionFn on_complete,
                            ErrorFn on_error) {
    return start_flow_weighted(src, dst, bytes, 1.0, std::move(on_complete),
                               std::move(on_error));
  }

  /// Fully general entry point — every other start_* delegates here.
  FlowId start_flow_spec(FlowSpec spec);

  /// Pure device I/O: a flow constrained ONLY by the given resources (no
  /// route, no links), with `access_latency` as its latency phase. This is
  /// how a max-min StorageDevice times reads and writes.
  FlowId start_io(double bytes, std::vector<ResourceId> resources, double access_latency,
                  CompletionFn on_complete, ErrorFn on_error = nullptr);

  /// Install/replace the endpoint binder (nullptr clears). See
  /// EndpointBinder; hosts::Grid::finalize installs one when any site's
  /// storage is max-min shared.
  void set_endpoint_binder(EndpointBinder binder) { binder_ = std::move(binder); }
  bool has_endpoint_binder() const { return static_cast<bool>(binder_); }

  /// Abort an in-flight flow. Returns false if already finished/unknown.
  bool cancel(FlowId id);

  /// Failure injection, uniformly over the resource space. Under
  /// kFailResume (default), a down resource contributes zero capacity, so
  /// every flow crossing it stalls (rate 0) until it returns — a transport
  /// connection riding out a flap, or I/O frozen while a disk resets. Under
  /// kFailStop, every flow whose constraint set crosses the failed resource
  /// is aborted: it is removed and its on_error (when provided) fires.
  /// Routing is static — flows are never re-routed around outages.
  void set_resource_up(ResourceId id, bool up);
  bool resource_up(ResourceId id) const { return res_up_[id]; }
  /// Link-flavored aliases (the pre-resource API, still the common case).
  void set_link_up(LinkId id, bool up) { set_resource_up(id, up); }
  bool link_up(LinkId id) const { return res_up_[id]; }

  /// Crash semantics applied by set_resource_up(false) to flows in flight.
  void set_failure_semantics(core::FailureSemantics s) { semantics_ = s; }
  core::FailureSemantics failure_semantics() const { return semantics_; }

  // --- inspection --------------------------------------------------------

  /// The route provider (flat Routing or zone-backed ZoneRouting) this
  /// network models traffic over. Link ids below index its link space.
  const RouteProvider& routing() const { return routing_; }
  std::size_t link_count() const { return n_links_; }
  double link_bandwidth(LinkId id) const { return routing_.link_bandwidth(id); }
  std::size_t active_flows() const { return flows_.size(); }
  /// Flows past the latency phase, currently sharing capacity.
  std::size_t sharing_flows() const { return sharing_count_; }
  /// Current fair-share rate of a flow (0 when latency-phase or unknown).
  double flow_rate(FlowId id) const;
  /// Sum of flow rates currently allocated on a resource.
  double resource_load(ResourceId id) const { return res_rate_[id]; }
  double link_load(LinkId id) const { return res_rate_[id]; }
  double resource_utilization(ResourceId id) const {
    return res_rate_[id] / resource_capacity(id);
  }
  double link_utilization(LinkId id) const { return resource_utilization(id); }

  // --- statistics ---------------------------------------------------------

  double total_bytes_delivered() const;
  std::uint64_t flows_completed() const { return flows_completed_; }
  /// Flows killed by fail-stop resource outages.
  std::uint64_t flows_aborted() const { return flows_aborted_; }
  /// Cumulative bytes carried per resource (settled + in-flight anchors).
  double resource_bytes(ResourceId id) const;
  double link_bytes(LinkId id) const { return resource_bytes(id); }
  /// Max-min re-solves since construction, and flows re-rated by them —
  /// the work counters bench_flow_scaling reports (full re-rates every
  /// sharing flow per solve; incremental only the dirty component).
  std::uint64_t solves() const { return solves_; }
  std::uint64_t flows_rerated() const { return flows_rerated_; }

  /// Opt-in utilization series (records at every re-solve), kept as a
  /// running summary. Works for links and registered resources alike.
  void track_link(ResourceId id);
  const stats::TimeSeries& link_series(ResourceId id) const;

 private:
  /// A flow's cold state: what it was started with and who hears of its end.
  /// While the flow shares capacity its solver state is a Member of its
  /// component's member list, not a field here.
  struct Flow {
    FlowId id = kInvalidFlow;
    double weight = 1.0;
    bool sharing = false;  // false during the latency phase
    /// The flow's constraint set: route links in path order, then any extra
    /// capacity resources (endpoint disks). Uniform ids — the solver never
    /// distinguishes. Fixed for the flow's life.
    std::vector<ResourceId> resources;
    CompletionFn on_complete;
    ErrorFn on_error;
    // Span bookkeeping (obs/span.hpp): endpoints, demand and start time.
    NodeId src = 0;
    NodeId dst = 0;
    double bytes = 0;
    double started = 0;
  };

  /// A sharing flow's solver state, one entry of its component's member list
  /// (ascending FlowId). The one-set pass reads and writes every field of
  /// every member of a dirty component on every change, so the entries sit
  /// contiguously in the order the solver walks them and the pass follows no
  /// pointer to reach them.
  struct Member {
    FlowId id = kInvalidFlow;
    double rate = 0;
    double weight = 1.0;
    /// Bytes left at `anchor_t`. The live value is the closed form
    /// remaining - rate * (now - anchor_t): byte accounting is settled only
    /// when the rate changes, never per event — so the arithmetic (and its
    /// float rounding) depends only on the rate-change sequence, which the
    /// incremental and full solvers produce identically.
    double remaining = 0;
    double anchor_t = 0;
    /// Reserved completion key while the rate is > 0 (due_id 0 otherwise);
    /// re-reserved exactly when the rate changes.
    double due_t = 0;
    core::EventId due_id = 0;
    /// The flow's constraint set (Flow::resources, which never moves) and
    /// its first entry, so the one-set check reads no other memory for a
    /// one-resource set.
    const ResourceId* res = nullptr;
    std::uint32_t n_res = 0;
    ResourceId first = kInvalidResource;
    /// Engine slot of the completion event queued under the due key, or
    /// core::kNoSlot. Each component queues at least its earliest key; a
    /// superseded one is cancelled (O(1): its slot is freed and its key
    /// skipped when it surfaces).
    std::uint32_t slot = core::kNoSlot;

    std::span<const ResourceId> set() const { return {res, n_res}; }
    /// Crosses the same constraint set as `o`; a one-resource set is
    /// compared without reading the set itself.
    bool same_set(const Member& o) const {
      return first == o.first && n_res == o.n_res &&
             (n_res == 1 || std::equal(res, res + n_res, o.res));
    }
    bool same_share(const Member& o) const { return same_set(o) && weight == o.weight; }
    bool due_before(const Member& o) const {
      return due_t < o.due_t || (due_t == o.due_t && due_id < o.due_id);
    }
  };

  /// A component's members in ascending FlowId order. Erasing the lowest id
  /// — on a saturated link of equal shares, the oldest flow is the one that
  /// finishes — only advances the head; a departure elsewhere shifts the
  /// shorter side. The dead prefix is dropped once it outgrows the live
  /// part, which keeps both O(1) amortized per departure.
  ///
  /// The list also knows whether every member crosses the front's set with
  /// the front's weight (uniform). A departure never breaks that; a member
  /// that joins keeps it only when it matches, and the one-set check
  /// re-establishes it.
  class MemberList {
   public:
    Member* begin() { return v_.data() + head_; }
    Member* end() { return v_.data() + v_.size(); }
    const Member* begin() const { return v_.data() + head_; }
    const Member* end() const { return v_.data() + v_.size(); }
    std::size_t size() const { return v_.size() - head_; }
    bool empty() const { return head_ == v_.size(); }
    Member& front() { return v_[head_]; }
    /// Insert at the member's id position (an append in the common case).
    void insert(const Member& m);
    void erase(Member* m);
    /// Move every member of `other` here, keeping the id order.
    void merge(MemberList& other);
    bool uniform() const { return uniform_; }
    void set_uniform(bool uniform) { uniform_ = uniform; }

   private:
    std::vector<Member> v_;
    std::size_t head_ = 0;  // v_[0, head_) is dead
    bool uniform_ = false;
  };

  /// Publish a completed/aborted flow span to the observability bus.
  void publish_span(const Flow& flow, const char* status) const;

  void activate(FlowId id);
  /// Settle a member's transferred bytes from its anchor up to now at
  /// `old_rate`, crediting the global and per-resource byte counters, and
  /// re-anchor at now. Called exactly when a flow's rate changes or the
  /// flow leaves — never on unrelated events.
  void settle(Member& m, double old_rate);
  /// Re-solve max-min shares for the dirty flow set (everything when
  /// Config::incremental is off), re-reserve the completion key of every
  /// flow whose rate changed and re-arm the touched components: in one pass
  /// when rerate_single_set applies, through rerate_general otherwise.
  void resolve_and_reschedule();
  /// collect_dirty + solve_members, then re-key the flows whose rate moved
  /// and arm their components (every component after a rebuild).
  void rerate_general(bool rebuilt);
  /// Fills scratch_members_ (ascending FlowId) and scratch_res_ (ascending
  /// ResourceId) with the flow set to re-solve and the resources whose
  /// rates it determines.
  void collect_dirty();
  /// The one-pass re-rate of a dirty component whose members all cross the
  /// same constraint set (see "One pass" above). Does nothing and returns
  /// false when the case does not apply; the general path then runs.
  bool rerate_single_set();
  /// The pass itself over `list`, at `best` per unit of weight.
  /// kQuantized: the engine rounds times up to its time quantum;
  /// kOneResource: the set has one resource.
  template <bool kQuantized, bool kOneResource>
  void one_set_pass(MemberList& list, double best);
  /// Queue the earliest reserved completion key of every component among
  /// `members`, which must hold whole components.
  void arm_completions(const std::vector<Member*>& members);
  /// Queue `m`'s completion event under its reserved key.
  void queue_completion(Member& m);
  /// Cancel `m`'s queued completion event, if it holds one.
  void drop_completion(Member& m);
  /// Component a sharing flow belongs to (the whole network is one
  /// component when Config::incremental is off).
  ResourceId component_of(ResourceId first) const {
    return cfg_.incremental ? dsu_find(first) : 0;
  }
  MemberList& list_of(const Flow& flow) {
    return comp_members_[component_of(flow.resources.front())];
  }
  /// A sharing flow's entry in its component's list (binary search by id);
  /// nullptr for a flow in its latency phase.
  Member* member_of(const Flow& flow);
  const Member* member_of(const Flow& flow) const;
  /// Every sharing flow's member, in ascending FlowId order.
  void all_members(std::vector<Member*>& out);
  /// Weighted max-min over scratch_members_ / scratch_res_; updates
  /// Member::rate and res_rate_. Deterministic by construction: both scans
  /// run in ascending id order.
  void solve_members();
  void on_completion_event(FlowId id);
  /// A flow leaves (done, cancelled or aborted): settle its bytes at its
  /// rate, publish its span with `status` and detach it. `m` is its member,
  /// nullptr in the latency phase. The Flow stays in flows_.
  void depart(Flow& flow, Member* m, const char* status);
  void finish_flow(std::map<FlowId, Flow>::iterator it, Member* m);
  /// Bookkeeping when a sharing flow leaves: cancels its pending completion
  /// event, erases its member and dirties its resources.
  void detach_sharing(Flow& flow, Member& m);

  // --- constraint-graph components (incremental mode) ---------------------
  ResourceId dsu_find(ResourceId r) const;
  void dsu_unite(ResourceId a, ResourceId b);
  /// Union-find only ever merges; removals leave it over-merged (a stale
  /// super-component is re-solved — correct, just wider than needed). When
  /// enough flows have left since the last rebuild, rebuild the partition
  /// from live flows. Returns true when it rebuilt.
  bool maybe_rebuild_components();

  core::Engine& engine_;
  RouteProvider& routing_;
  Config cfg_;
  core::FailureSemantics semantics_ = core::FailureSemantics::kFailResume;
  /// Ordered so every per-flow scan (fail-stop dooming, byte totals) walks
  /// ascending FlowId — determinism by construction instead of by accident
  /// of hash layout.
  std::map<FlowId, Flow> flows_;
  std::size_t sharing_count_ = 0;
  /// Links [0, n_links_), registered resources after. All per-resource
  /// arrays below span the full space and grow on add_resource.
  std::size_t n_links_ = 0;
  std::vector<double> extra_caps_;         // registered resources only
  std::vector<std::string> extra_names_;   // registered resources only
  std::vector<double> res_rate_;
  std::vector<double> res_bytes_;
  std::vector<char> res_up_;
  EndpointBinder binder_;
  std::unordered_map<ResourceId, stats::TimeSeries> tracked_;
  FlowId next_id_ = 1;
  double bytes_delivered_ = 0;  // settled segments only; see settle()
  std::uint64_t flows_completed_ = 0;
  std::uint64_t flows_aborted_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t flows_rerated_ = 0;

  // Component tracking: parent pointers over resources (path halving is a
  // cache, hence mutable), and the member list of each component root (the
  // full solver keeps every member in list 0). Keeping the id order costs a
  // shift on an out-of-order activation or a departure — far less than the
  // sort it saves on every change.
  mutable std::vector<ResourceId> dsu_parent_;
  std::vector<MemberList> comp_members_;  // indexed by root
  std::size_t departed_ = 0;  // flows that left since the last rebuild
  std::vector<ResourceId> dirty_res_;

  // Per-solve scratch, reserved once and reused (no per-call allocation).
  std::vector<Member*> scratch_members_;
  std::vector<Member> scratch_rebuild_;
  std::vector<double> scratch_old_rate_;
  std::vector<char> scratch_fixed_;
  std::vector<ResourceId> scratch_res_;
  std::vector<double> scratch_carried_;  // the one-set pass's byte counters
  std::vector<core::EventHandle> scratch_stale_;  // and the completions it supersedes
  std::vector<double> solve_cap_;       // indexed by ResourceId
  std::vector<double> solve_wsum_;      // indexed by ResourceId
  std::vector<std::uint32_t> res_mark_;  // epoch stamps, indexed by ResourceId
  std::uint32_t mark_epoch_ = 0;
  std::vector<Member*> comp_first_;      // per-component earliest due, by root
  std::vector<ResourceId> scratch_comps_;
};

}  // namespace lsds::net
