#include "net/flow.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/span.hpp"

namespace lsds::net {

namespace {
// A flow is "done" when its residue is below one millionth of a byte —
// absorbs float error from progressing to the scheduled completion instant.
constexpr double kByteEpsilon = 1e-6;
// Residual weight below this is floating-point dust from the weighted
// subtractions, not a real unfixed flow.
constexpr double kWeightEpsilon = 1e-9;

// A normal power of two: no mantissa bits, exponent field not zero.
bool is_power_of_two(double w) {
  const auto bits = std::bit_cast<std::uint64_t>(w);
  return (bits & 0x000F'FFFF'FFFF'FFFFull) == 0 && (bits >> 52) != 0;
}

}  // namespace

FlowNetwork::FlowNetwork(core::Engine& engine, RouteProvider& routing, Config cfg)
    : engine_(engine),
      routing_(routing),
      cfg_(cfg),
      n_links_(routing.link_count()),
      res_rate_(routing.link_count(), 0.0),
      res_bytes_(routing.link_count(), 0.0),
      res_up_(routing.link_count(), 1),
      dsu_parent_(routing.link_count()),
      comp_members_(routing.link_count()),
      solve_cap_(routing.link_count(), 0.0),
      solve_wsum_(routing.link_count(), 0.0),
      res_mark_(routing.link_count(), 0),
      comp_first_(routing.link_count(), nullptr) {
  std::iota(dsu_parent_.begin(), dsu_parent_.end(), ResourceId{0});
  scratch_members_.reserve(64);
  scratch_old_rate_.reserve(64);
  scratch_fixed_.reserve(64);
  scratch_res_.reserve(64);
  dirty_res_.reserve(16);
}

ResourceId FlowNetwork::add_resource(double capacity, std::string name) {
  if (!std::isfinite(capacity) || capacity <= 0) {
    throw std::invalid_argument("FlowNetwork::add_resource: capacity must be finite and > 0");
  }
  const ResourceId id = static_cast<ResourceId>(total_resources());
  extra_caps_.push_back(capacity);
  extra_names_.push_back(std::move(name));
  res_rate_.push_back(0.0);
  res_bytes_.push_back(0.0);
  res_up_.push_back(1);
  dsu_parent_.push_back(id);
  comp_members_.emplace_back();
  solve_cap_.push_back(0.0);
  solve_wsum_.push_back(0.0);
  res_mark_.push_back(0);
  comp_first_.push_back(nullptr);
  return id;
}

void FlowNetwork::set_resource_capacity(ResourceId id, double capacity) {
  if (id < n_links_ || id >= total_resources()) {
    throw std::invalid_argument(
        "FlowNetwork::set_resource_capacity: not a registered resource (links are owned by "
        "the RouteProvider)");
  }
  if (!std::isfinite(capacity) || capacity <= 0) {
    throw std::invalid_argument(
        "FlowNetwork::set_resource_capacity: capacity must be finite and > 0");
  }
  double& cap = extra_caps_[id - n_links_];
  if (cap == capacity) return;
  cap = capacity;
  // Dirty exactly this resource's component: the incremental re-solve picks
  // up the new capacity there and touches nothing else.
  if (cfg_.incremental) dirty_res_.push_back(id);
  resolve_and_reschedule();
}

const std::string& FlowNetwork::resource_name(ResourceId id) const {
  static const std::string kLinkName = "link";
  return id < n_links_ ? kLinkName : extra_names_[id - n_links_];
}

void FlowNetwork::set_resource_up(ResourceId id, bool up) {
  if (static_cast<bool>(res_up_[id]) == up) return;
  res_up_[id] = up ? 1 : 0;
  if (cfg_.incremental) dirty_res_.push_back(id);
  // Fail-stop: the outage severs every connection crossing the resource (a
  // dead link drops the circuit; a dead disk kills the I/O). Abort them all
  // (latency-phase flows included — their handshake dies too).
  std::vector<std::pair<FlowId, ErrorFn>> aborted;
  if (!up && semantics_ == core::FailureSemantics::kFailStop) {
    std::vector<FlowId> doomed;  // flows_ is ordered: ascending-id callbacks
    for (const auto& [fid, flow] : flows_) {
      if (std::find(flow.resources.begin(), flow.resources.end(), id) !=
          flow.resources.end()) {
        doomed.push_back(fid);
      }
    }
    for (FlowId fid : doomed) {
      auto it = flows_.find(fid);
      depart(it->second, member_of(it->second), "aborted");
      aborted.emplace_back(fid, std::move(it->second.on_error));
      flows_.erase(it);
      ++flows_aborted_;
    }
  }
  resolve_and_reschedule();
  // Callbacks last: they may start replacement flows re-entrantly.
  for (auto& [fid, cb] : aborted) {
    if (cb) cb(fid);
  }
}

FlowId FlowNetwork::start_flow(NodeId src, NodeId dst, double bytes, CompletionFn on_complete) {
  return start_flow_weighted(src, dst, bytes, 1.0, std::move(on_complete));
}

FlowId FlowNetwork::start_flow_weighted(NodeId src, NodeId dst, double bytes, double weight,
                                        CompletionFn on_complete, ErrorFn on_error) {
  FlowSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.bytes = bytes;
  spec.weight = weight;
  spec.on_complete = std::move(on_complete);
  spec.on_error = std::move(on_error);
  return start_flow_spec(std::move(spec));
}

FlowId FlowNetwork::start_io(double bytes, std::vector<ResourceId> resources,
                             double access_latency, CompletionFn on_complete, ErrorFn on_error) {
  FlowSpec spec;
  spec.bytes = bytes;
  spec.resources = std::move(resources);
  spec.extra_latency = access_latency;
  spec.bind_endpoints = false;
  spec.on_complete = std::move(on_complete);
  spec.on_error = std::move(on_error);
  return start_flow_spec(std::move(spec));
}

FlowId FlowNetwork::start_flow_spec(FlowSpec spec) {
  if (!std::isfinite(spec.bytes) || spec.bytes < 0) {
    throw std::invalid_argument("FlowNetwork: flow bytes must be finite and >= 0");
  }
  if (!std::isfinite(spec.weight) || spec.weight <= 0) {
    throw std::invalid_argument("FlowNetwork: flow weight must be finite and > 0");
  }
  double latency = spec.extra_latency;
  std::vector<ResourceId> resources;
  if (spec.src != spec.dst) {
    const Route& route = routing_.route(spec.src, spec.dst);
    if (!route.valid) {
      throw std::invalid_argument("FlowNetwork: no route between nodes");
    }
    resources = route.links;
    latency += route.total_latency;
  }
  // Endpoint binding joins the storage constraints: source disk read + route
  // links + destination disk write, one constraint set for the solver.
  if (spec.bind_endpoints && binder_) binder_(spec.src, spec.dst, resources, latency);
  resources.insert(resources.end(), spec.resources.begin(), spec.resources.end());

  const FlowId id = next_id_++;
  Flow flow;
  flow.id = id;
  flow.resources = std::move(resources);
  flow.weight = spec.weight;
  flow.on_complete = std::move(spec.on_complete);
  flow.on_error = std::move(spec.on_error);
  flow.src = spec.src;
  flow.dst = spec.dst;
  flow.bytes = spec.bytes;
  flow.started = engine_.now();
  // Fail-stop + constraint set already down = connection refused: fail
  // asynchronously (callers expect the error after start returns), never
  // admit the flow.
  if (semantics_ == core::FailureSemantics::kFailStop) {
    for (ResourceId r : flow.resources) {
      if (!res_up_[r]) {
        ++flows_aborted_;
        publish_span(flow, "refused");
        engine_.schedule_in(0, [cb = std::move(flow.on_error), id] {
          if (cb) cb(id);
        });
        return id;
      }
    }
  }
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  assert(inserted);

  if (spec.bytes <= kByteEpsilon || it->second.resources.empty()) {
    // Pure-latency delivery (empty payload, or a local copy with no bound
    // storage constraints).
    engine_.schedule_in(latency, [this, id, bytes = spec.bytes] {
      auto fit = flows_.find(id);
      if (fit == flows_.end()) return;  // cancelled
      bytes_delivered_ += bytes;
      finish_flow(fit, nullptr);
    });
    return id;
  }
  engine_.schedule_in(latency, [this, id] { activate(id); });
  return id;
}

void FlowNetwork::activate(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // cancelled during the latency phase
  Flow& flow = it->second;
  flow.sharing = true;
  ++sharing_count_;
  Member m;
  m.id = id;
  m.weight = flow.weight;
  m.remaining = flow.bytes;
  m.anchor_t = engine_.now();
  m.res = flow.resources.data();
  m.n_res = static_cast<std::uint32_t>(flow.resources.size());
  m.first = flow.resources.front();
  if (cfg_.incremental) {
    for (ResourceId r : flow.resources) dsu_unite(m.first, r);
    dirty_res_.push_back(m.first);
  }
  list_of(flow).insert(m);
  resolve_and_reschedule();
}

bool FlowNetwork::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  const bool was_sharing = it->second.sharing;
  depart(it->second, member_of(it->second), "cancelled");
  flows_.erase(it);
  // A latency-phase flow never held capacity: nothing to re-solve.
  if (was_sharing) resolve_and_reschedule();
  return true;
}

double FlowNetwork::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  if (it == flows_.end()) return 0.0;
  const Member* m = member_of(it->second);
  return m == nullptr ? 0.0 : m->rate;
}

void FlowNetwork::track_link(ResourceId id) { tracked_.emplace(id, stats::TimeSeries{}); }

const stats::TimeSeries& FlowNetwork::link_series(ResourceId id) const { return tracked_.at(id); }

FlowNetwork::Member* FlowNetwork::member_of(const Flow& flow) {
  return const_cast<Member*>(std::as_const(*this).member_of(flow));
}

const FlowNetwork::Member* FlowNetwork::member_of(const Flow& flow) const {
  if (!flow.sharing) return nullptr;
  const MemberList& list = comp_members_[component_of(flow.resources.front())];
  const auto it = std::lower_bound(list.begin(), list.end(), flow.id,
                                   [](const Member& m, FlowId id) { return m.id < id; });
  assert(it != list.end() && it->id == flow.id);
  return &*it;
}

void FlowNetwork::all_members(std::vector<Member*>& out) {
  out.clear();
  out.reserve(sharing_count_);
  for (MemberList& list : comp_members_) {
    for (Member& m : list) out.push_back(&m);
  }
  std::sort(out.begin(), out.end(), [](const Member* a, const Member* b) { return a->id < b->id; });
}

void FlowNetwork::settle(Member& m, double old_rate) {
  const double now = engine_.now();
  const double dt = now - m.anchor_t;
  m.anchor_t = now;
  if (dt <= 0 || old_rate <= 0) return;
  const double moved = std::min(old_rate * dt, m.remaining);
  m.remaining -= moved;
  bytes_delivered_ += moved;
  for (ResourceId r : m.set()) res_bytes_[r] += moved;
}

double FlowNetwork::total_bytes_delivered() const {
  // Settled segments plus every live flow's in-flight bytes since its
  // anchor, summed in ascending-FlowId order (deterministic and identical
  // under either solver, because anchors sit at rate-change instants).
  double total = bytes_delivered_;
  const double now = engine_.now();
  for (const auto& [id, flow] : flows_) {
    const Member* m = member_of(flow);
    if (m == nullptr || m->rate <= 0) continue;
    total += std::min(m->rate * (now - m->anchor_t), m->remaining);
  }
  return total;
}

double FlowNetwork::resource_bytes(ResourceId id) const {
  double total = res_bytes_[id];
  const double now = engine_.now();
  for (const auto& [fid, flow] : flows_) {
    if (std::find(flow.resources.begin(), flow.resources.end(), id) == flow.resources.end()) {
      continue;
    }
    const Member* m = member_of(flow);
    if (m == nullptr || m->rate <= 0) continue;
    total += std::min(m->rate * (now - m->anchor_t), m->remaining);
  }
  return total;
}

void FlowNetwork::queue_completion(Member& m) {
  m.slot = engine_
               .schedule_reserved(core::EventHandle{m.due_id, m.due_t},
                                  [this, id = m.id] { on_completion_event(id); })
               .slot;
}

void FlowNetwork::drop_completion(Member& m) {
  if (m.slot == core::kNoSlot) return;
  engine_.cancel(core::EventHandle{m.due_id, m.due_t, m.slot});
  m.slot = core::kNoSlot;
}

void FlowNetwork::depart(Flow& flow, Member* m, const char* status) {
  if (m != nullptr) settle(*m, m->rate);
  publish_span(flow, status);
  if (m != nullptr) detach_sharing(flow, *m);
}

void FlowNetwork::detach_sharing(Flow& flow, Member& m) {
  flow.sharing = false;
  --sharing_count_;
  drop_completion(m);
  list_of(flow).erase(&m);
  if (cfg_.incremental) {
    // The departing flow's resources must be re-solved (and zeroed when it
    // was their last user).
    ++departed_;
    for (ResourceId r : flow.resources) dirty_res_.push_back(r);
  }
}

ResourceId FlowNetwork::dsu_find(ResourceId r) const {
  while (dsu_parent_[r] != r) {
    dsu_parent_[r] = dsu_parent_[dsu_parent_[r]];  // path halving
    r = dsu_parent_[r];
  }
  return r;
}

void FlowNetwork::dsu_unite(ResourceId a, ResourceId b) {
  const ResourceId ra = dsu_find(a);
  const ResourceId rb = dsu_find(b);
  if (ra == rb) return;
  // Small-to-large: the shorter member list is appended to the longer, so a
  // flow id moves lists O(log n) times. Ties go to the smaller root id —
  // fully determined by ids and sizes, never by hash layout.
  ResourceId win = ra;
  ResourceId lose = rb;
  const std::size_t sa = comp_members_[ra].size();
  const std::size_t sb = comp_members_[rb].size();
  if (sb > sa || (sb == sa && rb < ra)) {
    win = rb;
    lose = ra;
  }
  dsu_parent_[lose] = win;
  comp_members_[win].merge(comp_members_[lose]);
}

void FlowNetwork::MemberList::insert(const Member& m) {
  if (empty()) {
    v_.push_back(m);
    uniform_ = true;
    return;
  }
  uniform_ = uniform_ && m.same_share(front());
  // Flows mostly activate in id order; one that outlived a longer latency
  // phase than a later flow goes to its id position.
  if (v_.back().id < m.id) {
    v_.push_back(m);
    return;
  }
  v_.insert(std::lower_bound(v_.begin() + static_cast<std::ptrdiff_t>(head_), v_.end(), m.id,
                             [](const Member& x, FlowId id) { return x.id < id; }),
            m);
}

void FlowNetwork::MemberList::erase(Member* m) {
  const auto pos = v_.begin() + (m - v_.data());
  const auto head = v_.begin() + static_cast<std::ptrdiff_t>(head_);
  if (pos - head < v_.end() - pos - 1) {
    std::move_backward(head, pos, pos + 1);
    ++head_;
  } else {
    v_.erase(pos);
  }
  if (head_ > size()) {
    v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void FlowNetwork::MemberList::merge(MemberList& other) {
  if (other.empty()) return;
  if (empty()) {
    std::swap(*this, other);
    return;
  }
  // Both lists are in id order; so is their merge. Two components share no
  // resource, so their members cross different sets.
  uniform_ = false;
  v_.erase(v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
  const auto mid = v_.insert(v_.end(), other.begin(), other.end());
  std::inplace_merge(v_.begin(), mid, v_.end(),
                     [](const Member& x, const Member& y) { return x.id < y.id; });
  other = {};
}

bool FlowNetwork::maybe_rebuild_components() {
  // Removals leave the union-find over-merged (supersets stay correct but
  // shrink the incrementality win). Rebuild from live flows once the
  // departures since the last rebuild outnumber the live flows: O(1)
  // amortized per departure.
  if (departed_ < 64 || departed_ < sharing_count_) return false;
  scratch_rebuild_.clear();
  for (MemberList& list : comp_members_) {
    scratch_rebuild_.insert(scratch_rebuild_.end(), list.begin(), list.end());
    list = {};
  }
  std::sort(scratch_rebuild_.begin(), scratch_rebuild_.end(),
            [](const Member& x, const Member& y) { return x.id < y.id; });
  std::iota(dsu_parent_.begin(), dsu_parent_.end(), ResourceId{0});
  departed_ = 0;
  for (const Member& m : scratch_rebuild_) {
    for (ResourceId r : m.set()) dsu_unite(m.first, r);
    comp_members_[dsu_find(m.first)].insert(m);
  }
  return true;
}

void FlowNetwork::collect_dirty() {
  scratch_members_.clear();
  scratch_res_.clear();
  if (!cfg_.incremental) {
    // Full reference solver: every sharing flow, every resource, every time.
    std::fill(res_rate_.begin(), res_rate_.end(), 0.0);
    ++mark_epoch_;
    if (sharing_count_ == 0) return;
    for (Member& m : comp_members_[0]) {
      scratch_members_.push_back(&m);
      for (ResourceId r : m.set()) {
        if (res_mark_[r] != mark_epoch_) {
          res_mark_[r] = mark_epoch_;
          scratch_res_.push_back(r);
        }
      }
    }
    std::sort(scratch_res_.begin(), scratch_res_.end());
    return;
  }
  // Dirty component roots -> their members. Each list is in id order;
  // several are merged by a sort, so the solve walks flows in ascending id
  // order, exactly like the full solver restricted to these components.
  ++mark_epoch_;
  std::size_t lists = 0;
  for (ResourceId r : dirty_res_) {
    const ResourceId root = dsu_find(r);
    if (res_mark_[root] == mark_epoch_) continue;
    res_mark_[root] = mark_epoch_;
    MemberList& list = comp_members_[root];
    if (list.empty()) continue;
    for (Member& m : list) scratch_members_.push_back(&m);
    ++lists;
  }
  if (lists > 1) {
    std::sort(scratch_members_.begin(), scratch_members_.end(),
              [](const Member* a, const Member* b) { return a->id < b->id; });
  }
  // Resources to re-solve: every member's constraint set plus the explicitly
  // dirtied ones (a departed flow's resources must be zeroed even when no
  // member remains on them).
  ++mark_epoch_;
  for (const Member* m : scratch_members_) {
    for (ResourceId r : m->set()) {
      if (res_mark_[r] != mark_epoch_) {
        res_mark_[r] = mark_epoch_;
        scratch_res_.push_back(r);
      }
    }
  }
  for (ResourceId r : dirty_res_) {
    if (res_mark_[r] != mark_epoch_) {
      res_mark_[r] = mark_epoch_;
      scratch_res_.push_back(r);
    }
  }
  std::sort(scratch_res_.begin(), scratch_res_.end());
}

bool FlowNetwork::rerate_single_set() {
  if (!cfg_.incremental) return false;  // the reference solver never takes this pass
  // Exactly one dirty component may hold members; any other dirty root is
  // empty and only needs its resource rates zeroed.
  MemberList* list = nullptr;
  ResourceId root = kInvalidResource;
  for (ResourceId r : dirty_res_) {
    const ResourceId c = dsu_find(r);
    if (c == root) continue;
    MemberList& members = comp_members_[c];
    if (members.empty()) continue;
    if (list != nullptr) return false;
    list = &members;
    root = c;
  }
  if (list == nullptr) return false;
  // Every member must cross the same set, with no resource listed twice.
  // Then each resource of the set carries the same weight sum, the first
  // bottleneck fixes every member, and the general solver's later rounds
  // and its bottleneck search do no work that reaches a result.
  const Member& head = list->front();
  const std::span<const ResourceId> set = head.set();
  for (auto r = set.begin() + 1; r < set.end(); ++r) {
    if (std::find(set.begin(), r, *r) != r) return false;
  }
  // The weight sum in id order, as solve_members accumulates it per
  // resource. Equal weights w that are a power of two fold to exactly n * w
  // (every partial sum k * w is representable), so a uniform list needs no
  // walk; otherwise one walk checks the sets and sums the weights.
  const double w = head.weight;
  double wsum = 0.0;
  if (list->uniform() && is_power_of_two(w)) {
    wsum = static_cast<double>(list->size()) * w;
  } else {
    bool same_weight = true;
    for (const Member& m : *list) {
      if (!m.same_set(head)) return false;
      same_weight = same_weight && m.weight == w;
      wsum += m.weight;
    }
    list->set_uniform(same_weight);
  }
  if (wsum <= kWeightEpsilon) return false;
  // The minimum fair share over the set: a strict '<' in any order yields
  // the value solve_members' ascending-ResourceId scan finds (no NaN can
  // occur), and which resource attains it does not matter here.
  double best = std::numeric_limits<double>::infinity();
  for (ResourceId r : set) {
    const double fair = (res_up_[r] ? resource_capacity(r) : 0.0) / wsum;
    if (fair < best) best = fair;
  }
  ++solves_;
  flows_rerated_ += list->size();
  // The pass buffers the completions it supersedes, at most one per member.
  if (scratch_stale_.size() < list->size()) scratch_stale_.resize(list->size());
  const bool quantized = engine_.time_quantum() > 0;
  if (set.size() == 1) {
    quantized ? one_set_pass<true, true>(*list, best) : one_set_pass<false, true>(*list, best);
  } else {
    quantized ? one_set_pass<true, false>(*list, best) : one_set_pass<false, false>(*list, best);
  }
  return true;
}

template <bool kQuantized, bool kOneResource>
void FlowNetwork::one_set_pass(MemberList& list, double best) {
  // One pass in id order does solve_members' rate assignment and res_rate_
  // sums, settle() and the re-key loop, and arm_completions' earliest-key
  // choice, with the same operations in the same order as the general path.
  // The loop makes no call: the byte counters, the load and the sequence
  // counter live in locals until it ends (a register for a one-resource
  // set), the earliest key is tracked by value, and the queued completions
  // it supersedes (one, unless components merged) are cancelled after it,
  // in member order.
  const std::span<const ResourceId> set = list.front().set();
  double carried_one = res_bytes_[set[0]];  // kOneResource
  if constexpr (!kOneResource) {
    scratch_carried_.clear();
    for (ResourceId r : set) scratch_carried_.push_back(res_bytes_[r]);
  }
  double* const carried = scratch_carried_.data();  // otherwise, in set order
  const double now = engine_.now();
  const double quantum = engine_.time_quantum();
  core::Engine::KeyRun keys = engine_.open_key_run();
  double load = 0.0;
  double delivered = bytes_delivered_;
  Member* first = nullptr;
  double first_t = std::numeric_limits<double>::infinity();
  core::EventId first_id = std::numeric_limits<core::EventId>::max();
  core::EventHandle* stale = scratch_stale_.data();
  std::size_t n_stale = 0;
  for (Member& m : list) {
    const double old_rate = m.rate;
    m.rate = best * m.weight;
    load += m.rate;
    if (m.rate != old_rate) {
      const double dt = now - m.anchor_t;
      m.anchor_t = now;
      if (dt > 0 && old_rate > 0) {
        const double moved = std::min(old_rate * dt, m.remaining);
        m.remaining -= moved;
        delivered += moved;
        if constexpr (kOneResource) {
          carried_one += moved;
        } else {
          for (std::size_t k = 0; k < set.size(); ++k) carried[k] += moved;
        }
      }
      if (m.slot != core::kNoSlot) [[unlikely]] {
        stale[n_stale++] = core::EventHandle{m.due_id, m.due_t, m.slot};
        m.slot = core::kNoSlot;
      }
      if (m.rate > 0) {
        // remaining >= 0 and rate > 0: the time is >= now, as reserve_at
        // would leave it before quantizing.
        m.due_t = now + m.remaining / m.rate;
        if constexpr (kQuantized) m.due_t = core::Engine::quantize(m.due_t, quantum);
        m.due_id = keys.take();
      } else {
        m.due_id = 0;
      }
    }
    if (m.due_id != 0 && (m.due_t < first_t || (m.due_t == first_t && m.due_id < first_id))) {
      first = &m;
      first_t = m.due_t;
      first_id = m.due_id;
    }
  }
  engine_.close_key_run(keys);
  for (std::size_t k = 0; k < n_stale; ++k) engine_.cancel(stale[k]);
  bytes_delivered_ = delivered;
  if constexpr (kOneResource) {
    res_bytes_[set[0]] = carried_one;
  } else {
    for (std::size_t k = 0; k < set.size(); ++k) res_bytes_[set[k]] = carried[k];
  }
  for (ResourceId r : dirty_res_) res_rate_[r] = 0.0;
  for (ResourceId r : set) res_rate_[r] = load;
  if (first != nullptr && first->slot == core::kNoSlot) queue_completion(*first);
}

void FlowNetwork::solve_members() {
  ++solves_;
  flows_rerated_ += scratch_members_.size();
  for (ResourceId r : scratch_res_) {
    solve_cap_[r] = res_up_[r] ? resource_capacity(r) : 0.0;
    solve_wsum_[r] = 0.0;
    res_rate_[r] = 0.0;
  }
  // Weighted max-min: the bottleneck metric is capacity per unit of unfixed
  // *weight*, and a flow fixed at a bottleneck receives weight * that unit
  // rate.
  scratch_old_rate_.clear();
  for (Member* m : scratch_members_) {
    scratch_old_rate_.push_back(m->rate);
    m->rate = 0;
    for (ResourceId r : m->set()) solve_wsum_[r] += m->weight;
  }
  scratch_fixed_.assign(scratch_members_.size(), 0);
  std::size_t n_left = scratch_members_.size();
  while (n_left > 0) {
    // Most constrained resource: min per-weight share among resources with
    // unfixed flows. Ascending-ResourceId scan with a strict '<' makes the
    // tie-break (equal fair shares) the smallest resource id, by
    // construction.
    double best = std::numeric_limits<double>::infinity();
    ResourceId best_res = kInvalidResource;
    for (ResourceId r : scratch_res_) {
      if (solve_wsum_[r] <= kWeightEpsilon) continue;
      const double fair = solve_cap_[r] / solve_wsum_[r];
      if (fair < best) {
        best = fair;
        best_res = r;
      }
    }
    if (best_res == kInvalidResource) break;  // defensive: shouldn't happen
    // Fix every unfixed flow crossing the bottleneck at weight * unit rate.
    bool progressed = false;
    for (std::size_t i = 0; i < scratch_members_.size(); ++i) {
      if (scratch_fixed_[i]) continue;
      Member* m = scratch_members_[i];
      const std::span<const ResourceId> set = m->set();
      if (std::find(set.begin(), set.end(), best_res) == set.end()) continue;
      m->rate = best * m->weight;
      scratch_fixed_[i] = 1;
      progressed = true;
      --n_left;
      for (ResourceId r : set) {
        solve_cap_[r] = std::max(0.0, solve_cap_[r] - m->rate);
        solve_wsum_[r] = std::max(0.0, solve_wsum_[r] - m->weight);
      }
    }
    if (!progressed) {
      // All remaining weight on the chosen resource was epsilon dust; zero
      // it out so the resource stops being selected. (Never happens with
      // integer weights, but fractional weights can leave residue.)
      solve_wsum_[best_res] = 0;
    }
  }

  for (const Member* m : scratch_members_) {
    for (ResourceId r : m->set()) res_rate_[r] += m->rate;
  }
}

void FlowNetwork::resolve_and_reschedule() {
  // A rebuild can split a component whose one queued event now covers only
  // one of the parts, so it takes the general path and re-arms every
  // component.
  const bool rebuilt = cfg_.incremental && !dirty_res_.empty() && maybe_rebuild_components();
  if (rebuilt || !rerate_single_set()) rerate_general(rebuilt);
  dirty_res_.clear();
  for (auto& [r, series] : tracked_) {
    series.record(engine_.now(), res_rate_[r] / resource_capacity(r));
  }
}

void FlowNetwork::rerate_general(bool rebuilt) {
  collect_dirty();
  solve_members();
  // Re-reserve only the flows whose fair share moved: with a piecewise-
  // linear remaining, an unchanged rate means an unchanged absolute
  // completion instant, so the reserved key stays valid. Members are in
  // ascending flow id order -> deterministic sequence numbers.
  for (std::size_t i = 0; i < scratch_members_.size(); ++i) {
    Member& m = *scratch_members_[i];
    if (m.rate == scratch_old_rate_[i]) continue;
    settle(m, scratch_old_rate_[i]);
    drop_completion(m);  // O(1); the dead key is skipped at pop
    if (m.rate > 0) {
      const core::EventHandle key = engine_.reserve_at(engine_.now() + m.remaining / m.rate);
      m.due_t = key.time;
      m.due_id = key.id;
    } else {
      m.due_id = 0;
    }
  }
  if (rebuilt) all_members(scratch_members_);
  arm_completions(scratch_members_);
}

void FlowNetwork::arm_completions(const std::vector<Member*>& members) {
  // Invariant: every component has its earliest reserved key queued. That
  // event is the first of the component's completions the engine reaches,
  // and it fires under exactly the key a per-flow event would have had.
  // Later keys stay reserved until a re-solve makes one the earliest.
  ++mark_epoch_;
  scratch_comps_.clear();
  for (Member* m : members) {
    if (m->due_id == 0) continue;
    const ResourceId c = component_of(m->first);
    if (res_mark_[c] != mark_epoch_) {
      res_mark_[c] = mark_epoch_;
      scratch_comps_.push_back(c);
      comp_first_[c] = m;
      continue;
    }
    if (m->due_before(*comp_first_[c])) comp_first_[c] = m;
  }
  for (ResourceId c : scratch_comps_) {
    Member* m = comp_first_[c];
    if (m->slot == core::kNoSlot) queue_completion(*m);  // else already queued
  }
}

void FlowNetwork::on_completion_event(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // defensive: cancelled events never fire
  Member* m = member_of(it->second);
  m->slot = core::kNoSlot;  // consumed by this firing
  // The event was scheduled at this flow's completion instant under its
  // current rate (any rate change would have rescheduled it), so the flow
  // is done — settling leaves at most float dust in `remaining`, and when
  // the residual transfer time is below the clock's ulp the residue could
  // never drain at all. Finish directly either way.
  finish_flow(it, m);
  resolve_and_reschedule();
}

void FlowNetwork::finish_flow(std::map<FlowId, Flow>::iterator it, Member* m) {
  const FlowId id = it->first;
  depart(it->second, m, "done");
  CompletionFn cb = std::move(it->second.on_complete);
  flows_.erase(it);
  ++flows_completed_;
  if (cb) cb(id);
}

void FlowNetwork::publish_span(const Flow& flow, const char* status) const {
  const auto& bus = obs::SpanBus::global();
  if (!bus.enabled()) return;
  obs::Span s;
  s.kind = "flow";
  s.status = status;
  s.id = flow.id;
  s.t0 = flow.started;
  s.t1 = engine_.now();
  s.quantity = flow.bytes;
  s.src = flow.src;
  s.dst = flow.dst;
  bus.publish(s);
}

}  // namespace lsds::net
