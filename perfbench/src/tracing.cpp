#include "tracing.hpp"

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <random>
#include <stdexcept>

#include "obs/span.hpp"

namespace perfbench {

namespace {
double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}
}  // namespace

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_seconds(ru.ru_utime) + timeval_seconds(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double calibration_seconds() {
  // The working memory comes straight from mmap, not from malloc, so the
  // kernel leaves the allocator as it found it (the run's heap layout and
  // peak RSS stay the run's own) and its pages go back on munmap.
  constexpr std::size_t kHeapSlots = 1 << 16;  // 512 KiB binary heap of doubles
  constexpr std::size_t kTableBytes = 1 << 22;  // 4 MiB table, random toggles
  constexpr std::size_t kBytes = kHeapSlots * sizeof(double) + kTableBytes;
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("calibration kernel: mmap failed");
  auto* heap = static_cast<double*>(mem);
  auto* table = reinterpret_cast<std::uint8_t*>(heap + kHeapSlots);

  const auto t0 = Clock::now();
  std::mt19937_64 rng(12345);
  std::uniform_real_distribution<double> delay(0, 100);
  const std::greater<double> later;
  std::size_t n = 0;
  for (; n < 60000; ++n) {
    heap[n] = delay(rng);
    std::push_heap(heap, heap + n + 1, later);
  }
  double now = 0;
  std::uint64_t set_bits = 0;
  for (int i = 0; i < 120000; ++i) {
    std::pop_heap(heap, heap + n, later);
    now = heap[n - 1];
    heap[n - 1] = now + delay(rng);
    std::push_heap(heap, heap + n, later);
    std::uint8_t& slot = table[rng() & (kTableBytes - 1)];
    slot ^= 1;
    set_bits += slot;
  }
  volatile double sink = now + static_cast<double>(set_bits);  // keep the work
  (void)sink;
  const double seconds = seconds_since(t0);
  munmap(mem, kBytes);
  return seconds;
}

SpanLog::Scope::Scope(SpanLog& log, std::string name, std::string parent)
    : log_(log), name_(std::move(name)), parent_(std::move(parent)), start_(Clock::now()) {}

SpanLog::Scope::~Scope() {
  const auto end = Clock::now();
  const auto since = [&](Clock::time_point t) {
    return std::chrono::duration<double>(t - log_.origin_).count();
  };
  log_.spans_.push_back({std::move(name_), std::move(parent_), since(start_), since(end)});
}

lsds::obs::Json SpanLog::to_json() const {
  auto out = lsds::obs::Json::array();
  for (const auto& s : spans_) {
    auto j = lsds::obs::Json::object();
    j.set("name", s.name);
    j.set("parent", s.parent);
    j.set("start_s", s.start_s);
    j.set("end_s", s.end_s);
    out.push(std::move(j));
  }
  return out;
}

void QueueProbe::on_event(lsds::core::SimTime t, lsds::core::EventId seq) {
  if (inner_) inner_->on_event(t, seq);
}

void QueueProbe::on_queue_push(std::uint64_t ns, std::size_t pending) {
  push_ns_ += ns;
  pending_peak_ = std::max(pending_peak_, pending);
  if (inner_) inner_->on_queue_push(ns, pending);
}

void QueueProbe::on_queue_pop(std::uint64_t ns) {
  pop_ns_ += ns;
  if (inner_) inner_->on_queue_pop(ns);
}

SpanCounter::SpanCounter() {
  lsds::obs::SpanBus::global().subscribe([this](const lsds::obs::Span& s) {
    if (std::strcmp(s.kind, "flow") == 0) {
      auto& n = std::strcmp(s.status, "done") == 0 ? flows_done_ : flows_not_done_;
      n.fetch_add(1, std::memory_order_relaxed);
    } else if (std::strcmp(s.kind, "job") == 0 && std::strcmp(s.status, "done") == 0) {
      jobs_done_.fetch_add(1, std::memory_order_relaxed);
    }
  });
}

SpanCounter::~SpanCounter() { lsds::obs::SpanBus::global().reset(); }

}  // namespace perfbench
