#include "net/flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/span.hpp"

namespace lsds::net {

namespace {
// A flow is "done" when its residue is below one millionth of a byte —
// absorbs float error from progressing to the scheduled completion instant.
constexpr double kByteEpsilon = 1e-6;
// Residual weight below this is floating-point dust from the weighted
// subtractions, not a real unfixed flow.
constexpr double kWeightEpsilon = 1e-9;

bool earlier(const core::EventHandle& a, const core::EventHandle& b) {
  return a.time < b.time || (a.time == b.time && a.id < b.id);
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
      settle(it->second, it->second.rate);
      publish_span(it->second, "aborted");
      detach_sharing(it->second);
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
  flow.remaining = spec.bytes;
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
      finish_flow(id);
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
  flow.anchor_t = engine_.now();
  ++sharing_count_;
  if (cfg_.incremental) {
    const ResourceId anchor = flow.resources.front();
    for (ResourceId r : flow.resources) dsu_unite(anchor, r);
    add_member(flow);
    dirty_res_.push_back(anchor);
  }
  resolve_and_reschedule();
}

bool FlowNetwork::cancel(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  settle(it->second, it->second.rate);
  publish_span(it->second, "cancelled");
  const bool was_sharing = it->second.sharing;
  detach_sharing(it->second);
  flows_.erase(it);
  // A latency-phase flow never held capacity: nothing to re-solve.
  if (was_sharing) resolve_and_reschedule();
  return true;
}

double FlowNetwork::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void FlowNetwork::track_link(ResourceId id) { tracked_.emplace(id, stats::TimeSeries{}); }

const stats::TimeSeries& FlowNetwork::link_series(ResourceId id) const { return tracked_.at(id); }

void FlowNetwork::settle(Flow& flow, double old_rate, const std::vector<ResourceId>& resources) {
  const double now = engine_.now();
  const double dt = now - flow.anchor_t;
  flow.anchor_t = now;
  if (dt <= 0 || !flow.sharing || old_rate <= 0) return;
  const double moved = std::min(old_rate * dt, flow.remaining);
  flow.remaining -= moved;
  bytes_delivered_ += moved;
  for (ResourceId r : resources) res_bytes_[r] += moved;
}

double FlowNetwork::total_bytes_delivered() const {
  // Settled segments plus every live flow's in-flight bytes since its
  // anchor, summed in ascending-FlowId order (deterministic and identical
  // under either solver, because anchors sit at rate-change instants).
  double total = bytes_delivered_;
  const double now = engine_.now();
  for (const auto& [id, flow] : flows_) {
    if (!flow.sharing || flow.rate <= 0) continue;
    total += std::min(flow.rate * (now - flow.anchor_t), flow.remaining);
  }
  return total;
}

double FlowNetwork::resource_bytes(ResourceId id) const {
  double total = res_bytes_[id];
  const double now = engine_.now();
  for (const auto& [fid, flow] : flows_) {
    if (!flow.sharing || flow.rate <= 0) continue;
    if (std::find(flow.resources.begin(), flow.resources.end(), id) == flow.resources.end()) {
      continue;
    }
    total += std::min(flow.rate * (now - flow.anchor_t), flow.remaining);
  }
  return total;
}

void FlowNetwork::detach_sharing(Flow& flow) {
  if (!flow.sharing) return;
  flow.sharing = false;
  --sharing_count_;
  if (flow.completion.valid()) {
    engine_.cancel(flow.completion);
    flow.completion = {};
  }
  flow.due = {};
  if (cfg_.incremental) {
    // The departing flow's resources must be re-solved (and zeroed when it
    // was their last user).
    remove_member(flow);
    ++departed_;
    for (ResourceId r : flow.resources) dirty_res_.push_back(r);
  }
}

ResourceId FlowNetwork::dsu_find(ResourceId r) {
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
  const auto list_size = [this](ResourceId r) {
    auto it = comp_members_.find(r);
    return it == comp_members_.end() ? std::size_t{0} : it->second.size();
  };
  // Small-to-large: the shorter member list is appended to the longer, so a
  // flow id moves lists O(log n) times. Ties go to the smaller root id —
  // fully determined by ids and sizes, never by hash layout.
  ResourceId win = ra;
  ResourceId lose = rb;
  const std::size_t sa = list_size(ra);
  const std::size_t sb = list_size(rb);
  if (sb > sa || (sb == sa && rb < ra)) {
    win = rb;
    lose = ra;
  }
  dsu_parent_[lose] = win;
  auto it = comp_members_.find(lose);
  if (it == comp_members_.end()) return;
  std::vector<Member> moved = std::move(it->second);
  comp_members_.erase(it);
  auto& dst = comp_members_[win];
  if (dst.empty()) {
    dst = std::move(moved);
    return;
  }
  // Both lists are in id order; so is their merge.
  const auto mid = dst.insert(dst.end(), moved.begin(), moved.end());
  std::inplace_merge(dst.begin(), mid, dst.end());
}

void FlowNetwork::add_member(Flow& flow) {
  auto& list = comp_members_[dsu_find(flow.resources.front())];
  const Member m{flow.id, &flow, flow.weight, flow.resources.front(),
                 static_cast<std::uint32_t>(flow.resources.size())};
  // Flows mostly activate in id order; one that outlived a longer latency
  // phase than a later flow goes to its id position.
  if (list.empty() || list.back().id < flow.id) {
    list.push_back(m);
  } else {
    list.insert(std::lower_bound(list.begin(), list.end(), m), m);
  }
}

void FlowNetwork::remove_member(Flow& flow) {
  const auto it = comp_members_.find(dsu_find(flow.resources.front()));
  assert(it != comp_members_.end());
  auto& list = it->second;
  const auto pos = std::lower_bound(list.begin(), list.end(), Member{flow.id, &flow, 0, 0, 0});
  assert(pos != list.end() && pos->flow == &flow);
  list.erase(pos);  // an emptied list keeps its capacity for the next flow
}

bool FlowNetwork::maybe_rebuild_components() {
  // Removals leave the union-find over-merged (supersets stay correct but
  // shrink the incrementality win). Rebuild from live flows once the
  // departures since the last rebuild outnumber the live flows: O(1)
  // amortized per departure.
  if (departed_ < 64 || departed_ < sharing_count_) return false;
  std::iota(dsu_parent_.begin(), dsu_parent_.end(), ResourceId{0});
  comp_members_.clear();
  departed_ = 0;
  for (auto& [id, flow] : flows_) {
    if (!flow.sharing) continue;
    const ResourceId anchor = flow.resources.front();
    for (ResourceId r : flow.resources) dsu_unite(anchor, r);
    add_member(flow);
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
    for (auto& [id, flow] : flows_) {
      if (!flow.sharing) continue;
      scratch_members_.push_back(&flow);
      for (ResourceId r : flow.resources) {
        if (res_mark_[r] != mark_epoch_) {
          res_mark_[r] = mark_epoch_;
          scratch_res_.push_back(r);
        }
      }
    }
    std::sort(scratch_res_.begin(), scratch_res_.end());
    return;
  }
  // Dirty component roots -> their member flows. Each list is in id order;
  // several are merged by a sort, so the solve walks flows in ascending id
  // order, exactly like the full solver restricted to these components.
  ++mark_epoch_;
  scratch_sorted_.clear();
  std::size_t lists = 0;
  for (ResourceId r : dirty_res_) {
    const ResourceId root = dsu_find(r);
    if (res_mark_[root] == mark_epoch_) continue;
    res_mark_[root] = mark_epoch_;
    auto it = comp_members_.find(root);
    if (it == comp_members_.end() || it->second.empty()) continue;
    scratch_sorted_.insert(scratch_sorted_.end(), it->second.begin(), it->second.end());
    ++lists;
  }
  if (lists > 1) std::sort(scratch_sorted_.begin(), scratch_sorted_.end());
  for (const Member& m : scratch_sorted_) scratch_members_.push_back(m.flow);
  // Resources to re-solve: every member's constraint set plus the explicitly
  // dirtied ones (a departed flow's resources must be zeroed even when no
  // member remains on them).
  ++mark_epoch_;
  for (const Flow* f : scratch_members_) {
    for (ResourceId r : f->resources) {
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
  std::vector<Member>* list = nullptr;
  ResourceId root = kInvalidResource;
  for (ResourceId r : dirty_res_) {
    const ResourceId c = dsu_find(r);
    if (c == root) continue;
    const auto it = comp_members_.find(c);
    if (it == comp_members_.end() || it->second.empty()) continue;
    if (list != nullptr) return false;
    list = &it->second;
    root = c;
  }
  if (list == nullptr) return false;
  // Every member must cross the same set, with no resource listed twice.
  // Then each resource of the set carries the same weight sum, the first
  // bottleneck fixes every member, and the general solver's later rounds
  // and its bottleneck search do no work that reaches a result.
  const Member& head = list->front();
  const std::vector<ResourceId>& set = head.flow->resources;
  for (auto r = set.begin() + 1; r < set.end(); ++r) {
    if (std::find(set.begin(), r, *r) != r) return false;
  }
  // The weight sum in id order, as solve_members accumulates it per
  // resource. A one-resource set is checked from the list alone; a longer
  // one needs the flow's own list.
  double wsum = 0.0;
  for (const Member& m : *list) {
    if (m.first != head.first || m.n_res != head.n_res) return false;
    if (m.n_res > 1 && m.flow->resources != set) return false;
    wsum += m.weight;
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

  // One pass in id order does solve_members' rate assignment and res_rate_
  // sums, the re-key loop, and arm_completions' earliest-key choice, with
  // the same operations in the same order as the general path.
  ++solves_;
  flows_rerated_ += list->size();
  const double now = engine_.now();
  double load = 0.0;
  Flow* first = nullptr;
  for (const Member& m : *list) {
    Flow& f = *m.flow;
    const double old_rate = f.rate;
    f.rate = best * f.weight;
    load += f.rate;
    if (f.rate != old_rate) {
      settle(f, old_rate, set);
      if (f.completion.valid()) {
        engine_.cancel(f.completion);
        f.completion = {};
      }
      f.due = f.rate > 0 ? engine_.reserve_at(now + f.remaining / f.rate) : core::EventHandle{};
    }
    if (f.due.valid() && (first == nullptr || earlier(f.due, first->due))) first = &f;
  }
  for (ResourceId r : dirty_res_) res_rate_[r] = 0.0;
  for (ResourceId r : set) res_rate_[r] = load;
  if (first != nullptr && !first->completion.valid()) {
    first->completion =
        engine_.schedule_reserved(first->due, [this, id = first->id] { on_completion_event(id); });
  }
  return true;
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
  for (Flow* f : scratch_members_) {
    scratch_old_rate_.push_back(f->rate);
    f->rate = 0;
    for (ResourceId r : f->resources) solve_wsum_[r] += f->weight;
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
      Flow* f = scratch_members_[i];
      const bool on_bottleneck =
          std::find(f->resources.begin(), f->resources.end(), best_res) != f->resources.end();
      if (!on_bottleneck) continue;
      f->rate = best * f->weight;
      scratch_fixed_[i] = 1;
      progressed = true;
      --n_left;
      for (ResourceId r : f->resources) {
        solve_cap_[r] = std::max(0.0, solve_cap_[r] - f->rate);
        solve_wsum_[r] = std::max(0.0, solve_wsum_[r] - f->weight);
      }
    }
    if (!progressed) {
      // All remaining weight on the chosen resource was epsilon dust; zero
      // it out so the resource stops being selected. (Never happens with
      // integer weights, but fractional weights can leave residue.)
      solve_wsum_[best_res] = 0;
    }
  }

  for (const Flow* f : scratch_members_) {
    for (ResourceId r : f->resources) res_rate_[r] += f->rate;
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
    Flow* f = scratch_members_[i];
    if (f->rate == scratch_old_rate_[i]) continue;
    settle(*f, scratch_old_rate_[i]);
    if (f->completion.valid()) {
      engine_.cancel(f->completion);  // O(1); the dead key is skipped at pop
      f->completion = {};
    }
    f->due = f->rate > 0 ? engine_.reserve_at(engine_.now() + f->remaining / f->rate)
                         : core::EventHandle{};
  }
  if (!rebuilt) {
    arm_completions(scratch_members_);
    return;
  }
  std::vector<Flow*> all;
  all.reserve(sharing_count_);
  for (auto& [id, flow] : flows_) {
    if (flow.sharing) all.push_back(&flow);
  }
  arm_completions(all);
}

void FlowNetwork::arm_completions(const std::vector<Flow*>& flows) {
  // Invariant: every component has its earliest reserved key queued. That
  // event is the first of the component's completions the engine reaches,
  // and it fires under exactly the key a per-flow event would have had.
  // Later keys stay reserved until a re-solve makes one the earliest.
  ++mark_epoch_;
  scratch_comps_.clear();
  for (Flow* f : flows) {
    if (!f->due.valid()) continue;
    const ResourceId c = component_of(*f);
    if (res_mark_[c] != mark_epoch_) {
      res_mark_[c] = mark_epoch_;
      scratch_comps_.push_back(c);
      comp_first_[c] = f;
      continue;
    }
    if (earlier(f->due, comp_first_[c]->due)) comp_first_[c] = f;
  }
  for (ResourceId c : scratch_comps_) {
    Flow* f = comp_first_[c];
    if (f->completion.valid()) continue;  // already queued
    f->completion =
        engine_.schedule_reserved(f->due, [this, id = f->id] { on_completion_event(id); });
  }
}

void FlowNetwork::on_completion_event(FlowId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return;  // defensive: cancelled events never fire
  it->second.completion = {};      // consumed by this firing
  // The event was scheduled at this flow's completion instant under its
  // current rate (any rate change would have rescheduled it), so the flow
  // is done — settling leaves at most float dust in `remaining`, and when
  // the residual transfer time is below the clock's ulp the residue could
  // never drain at all. Finish directly either way.
  finish_flow(id);
  resolve_and_reschedule();
}

void FlowNetwork::finish_flow(FlowId id) {
  auto it = flows_.find(id);
  assert(it != flows_.end());
  settle(it->second, it->second.rate);
  publish_span(it->second, "done");
  CompletionFn cb = std::move(it->second.on_complete);
  detach_sharing(it->second);
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
