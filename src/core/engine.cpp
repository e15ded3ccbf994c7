#include "core/engine.hpp"

#include <cassert>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/entity.hpp"
#include "core/probe.hpp"

namespace lsds::core {

namespace {
std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

Engine::Engine(Config cfg)
    : queue_(make_event_queue(cfg.queue)),
      seed_(cfg.seed),
      quantum_(cfg.time_quantum),
      max_events_(cfg.max_events) {}

Engine::~Engine() {
  // Destroy suspended coroutine frames that never completed, one at a time
  // from the head: a frame is unlinked before its destructor runs, and the
  // destructor may itself finish or start other processes, which relink
  // the list before the next pop.
  while (processes_ != nullptr) {
    ProcessLink& link = *processes_;
    drop_coroutine(link);
    std::coroutine_handle<>::from_address(link.frame).destroy();
  }
}

SimTime Engine::quantize(SimTime t) const {
  if (quantum_ <= 0) return t;
  return std::ceil(t / quantum_) * quantum_;
}

EventHandle Engine::schedule_at(SimTime t, EventFn fn) {
  return schedule_reserved(reserve_at(t), std::move(fn));
}

EventHandle Engine::reserve_at(SimTime t) {
  if (t < now_) {
    ++stats_.past_clamped;
    t = now_;
  }
  return EventHandle{next_seq_++, quantize(t)};
}

EventHandle Engine::schedule_reserved(const EventHandle& key, EventFn fn) {
  assert(key.valid() && key.id < next_seq_ && key.time >= now_ && key.slot == kNoSlot);
  const std::uint32_t i = acquire_slot();
  Slot& s = slot(i);
  s.fn = std::move(fn);
  s.seq = key.id;
  if (tags_enabled_) tags_[i] = exec_tag_;
  push_record(EventRecord{key.time, key.id, i});
  ++stats_.scheduled;
  return EventHandle{key.id, key.time, i};
}

std::uint32_t Engine::acquire_slot() {
  if (!free_.empty()) {
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }
  if ((slot_count_ & kPageMask) == 0) {
    assert(slot_count_ < kNoSlot - kPageMask && "event slab exhausted");
    pages_.push_back(std::make_unique<Slot[]>(std::size_t{1} << kPageBits));
    if (tags_enabled_) tags_.resize(pages_.size() << kPageBits);
  }
  return slot_count_++;
}

void Engine::release_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.fn = nullptr;
  s.seq = 0;
  free_.push_back(i);
}

void Engine::set_probe(EngineProbe* probe) {
  const std::uint32_t stride = probe ? probe->queue_stride() : 1;
  assert((stride & (stride - 1)) == 0 && "queue_stride() must be a power of two or 0");
  probe_ = probe;
  queue_mask_ = std::uint64_t{stride} - 1;
  pushes_ = 0;
  pops_ = 0;
}

EventRecord Engine::pop_record() {
  if (!probe_ || (++pops_ & queue_mask_) != 0) return queue_->pop();
  const auto w0 = std::chrono::steady_clock::now();
  const EventRecord rec = queue_->pop();
  probe_->on_queue_pop(elapsed_ns(w0));
  return rec;
}

void Engine::queue_push(EventRecord rec) {
  if (!probe_ || (++pushes_ & queue_mask_) != 0) {
    queue_->push(rec);
    return;
  }
  const auto w0 = std::chrono::steady_clock::now();
  queue_->push(rec);
  probe_->on_queue_push(elapsed_ns(w0), pending());
}

void Engine::push_record(EventRecord rec) {
  if (held_.seq != 0 && rec < held_) {
    queue_push(held_);
    held_.seq = 0;
  }
  queue_push(rec);
}

bool Engine::cancel(const EventHandle& h) {
  if (!queued(h)) return false;
  release_slot(h.slot);
  ++dead_keys_;
  ++stats_.cancelled;
  return true;
}

void Engine::execute(const EventRecord& ev) {
  assert(ev.time + kTimeEpsilon >= now_ && "event queue returned an event out of order");
  now_ = ev.time;
  // Events scheduled by the body inherit ev's tag unless a TagScope
  // overrides it; the probe already reads it as current_tag().
  if (tags_enabled_) exec_tag_ = tags_[ev.slot];
  if (probe_) probe_->on_event(ev.time, ev.seq);
  ++stats_.executed;
  // Run the body in place: pages never move, so events it schedules cannot
  // relocate it. Unstamping first makes the running event uncancellable.
  Slot& s = slot(ev.slot);
  s.seq = 0;
  s.fn();
  if (tags_enabled_) exec_tag_ = 0;
  release_slot(ev.slot);
}

bool Engine::pop_live(EventRecord& out) {
  if (held_.seq != 0) {
    out = held_;
    held_.seq = 0;
    if (slot(out.slot).seq == out.seq) return true;
    --dead_keys_;  // cancelled while held
  }
  while (!queue_->empty()) {
    out = pop_record();
    if (slot(out.slot).seq == out.seq) return true;
    --dead_keys_;  // cancelled; skip silently
  }
  return false;
}

bool Engine::step() {
  if (choice_hook_) return step_with_choice();
  EventRecord ev;
  if (!pop_live(ev)) return false;
  execute(ev);
  return true;
}

bool Engine::step_with_choice() {
  EventRecord first;
  if (!pop_live(first)) return false;
  // Collect every further live event tied at the same timestamp. The pop
  // order is ascending (time, seq) for every queue kind, so the tie set is
  // presented in seq order — the engine's default execution order.
  std::vector<EventRecord> tied{first};
  while (!queue_->empty() && queue_->min_time() == first.time) {
    const EventRecord next = pop_record();
    if (slot(next.slot).seq == next.seq) {
      tied.push_back(next);
    } else {
      --dead_keys_;
    }
  }
  std::size_t pick = 0;
  if (tied.size() > 1) {
    tied_scratch_.clear();
    for (const EventRecord& ev : tied) {
      tied_scratch_.push_back({ev.seq, tags_enabled_ ? tags_[ev.slot] : 0});
    }
    pick = choice_hook_(tied.front().time, tied_scratch_);
    assert(pick < tied.size() && "choice hook returned an out-of-range index");
    if (pick >= tied.size()) pick = 0;
  }
  // Requeue the not-chosen ties with their original seq, so the remaining
  // order (and cancellability) is exactly as if they had never been popped.
  for (std::size_t i = 0; i < tied.size(); ++i) {
    if (i != pick) push_record(tied[i]);
  }
  execute(tied[pick]);
  return true;
}

void Engine::run() {
  while (!stopped_ && step()) {
    if (max_events_ && stats_.executed >= max_events_) throw EventBudgetExceeded(max_events_);
  }
}

std::uint64_t Engine::run_until(SimTime t_end) {
  const std::uint64_t before = stats_.executed;
  run_window(t_end, /*inclusive=*/true);
  return stats_.executed - before;
}

SimTime Engine::next_event_time() {
  EventRecord ev;
  if (!pop_live(ev)) return kInfTime;
  held_ = ev;
  return ev.time;
}

SimTime Engine::run_window(SimTime t_end, bool inclusive) {
  SimTime next = kInfTime;
  EventRecord ev;
  // Pop and inspect rather than polling min_time(); the first event past
  // the window stays held in front of the queue, not requeued.
  while (!stopped_ && pop_live(ev)) {
    if (inclusive ? (ev.time > t_end) : (ev.time >= t_end)) {
      next = ev.time;
      held_ = ev;
      break;
    }
    execute(ev);
    if (max_events_ && stats_.executed >= max_events_) throw EventBudgetExceeded(max_events_);
  }
  if (stopped_) return next_event_time();
  if (now_ < t_end) now_ = t_end;
  return next;
}

RngStream& Engine::rng(std::string_view name) {
  auto it = streams_.find(name);
  if (it == streams_.end()) {
    it = streams_.emplace(name, RngStream(seed_, name)).first;
  }
  return it->second;
}

std::uint32_t Engine::register_entity(Entity* e) {
  entities_.push_back(e);
  return static_cast<std::uint32_t>(entities_.size() - 1);
}

void Engine::unregister_entity(std::uint32_t id) {
  if (id < entities_.size()) entities_[id] = nullptr;
}

Entity* Engine::entity(std::uint32_t id) const {
  return id < entities_.size() ? entities_[id] : nullptr;
}

std::size_t Engine::entity_count() const {
  std::size_t n = 0;
  for (Entity* e : entities_) {
    if (e) ++n;
  }
  return n;
}

void Engine::start_entities() {
  // Snapshot: on_start may construct further entities.
  std::vector<Entity*> snapshot = entities_;
  for (Entity* e : snapshot) {
    if (e) e->on_start();
  }
}

void Engine::adopt_coroutine(ProcessLink& link, std::coroutine_handle<> h) {
  link.frame = h.address();
  link.prev = nullptr;
  link.next = processes_;
  if (processes_ != nullptr) processes_->prev = &link;
  processes_ = &link;
  ++live_processes_;
}

void Engine::drop_coroutine(ProcessLink& link) {
  (link.prev != nullptr ? link.prev->next : processes_) = link.next;
  if (link.next != nullptr) link.next->prev = link.prev;
  --live_processes_;
}

}  // namespace lsds::core
