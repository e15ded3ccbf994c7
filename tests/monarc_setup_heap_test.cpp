// Heap gates. The MONARC study's set-up: what a horizon-cut 30 Gbps run at
// 10,000 files leaves live on the heap while its engine still holds the
// pending study. Each of the 40,000 T1 analysis jobs is one pending start
// event (core::start_at); none may hold a suspended coroutine frame before
// its submit time. And a storage catalog: storing a file must not cost a
// heap block of its own.
//
// The global operator new/delete of this binary are replaced by counting
// ones, which is why the gates are an executable of their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "hosts/storage.hpp"
#include "sim/monarc/monarc.hpp"
#include "util/strings.hpp"

namespace {

std::atomic<long long> g_live_bytes{0};
std::atomic<long long> g_allocations{0};

// Every block carries its requested size in a header in front of it, at
// least 16 bytes so that the block keeps malloc's alignment.
std::size_t header_for(std::size_t align) { return std::max<std::size_t>(align, 16); }

void* counted_alloc(std::size_t n, std::size_t align) {
  const std::size_t header = header_for(align);
  const std::size_t total = (n + header + align - 1) / align * align;
  void* base = align <= 16 ? std::malloc(total) : std::aligned_alloc(align, total);
  if (base == nullptr) return nullptr;
  char* p = static_cast<char*>(base) + header;
  reinterpret_cast<std::size_t*>(p)[-1] = n;
  g_live_bytes.fetch_add(static_cast<long long>(n), std::memory_order_relaxed);
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return p;
}

void counted_free(void* p, std::size_t align) {
  if (p == nullptr) return;
  const std::size_t n = static_cast<std::size_t*>(p)[-1];
  g_live_bytes.fetch_sub(static_cast<long long>(n), std::memory_order_relaxed);
  std::free(static_cast<char*>(p) - header_for(align));
}

void* checked_alloc(std::size_t n, std::size_t align) {
  void* p = counted_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n, 16); }
void* operator new[](std::size_t n) { return checked_alloc(n, 16); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 16); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 16);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { counted_free(p, 16); }
void operator delete[](void* p) noexcept { counted_free(p, 16); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p, 16); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p, 16); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p, 16); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p, 16); }
void operator delete(void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
  counted_free(p, static_cast<std::size_t>(a));
}

namespace {

namespace core = lsds::core;
namespace monarc = lsds::sim::monarc;

// The benchmark's lhc_30g_observed study (perfbench/src/workloads.cpp),
// unobserved, with its set-up horizon.
monarc::Config lhc_30gbps_setup() {
  monarc::Config cfg;
  cfg.num_t1 = 4;
  cfg.t0_t1_bandwidth = 30e9 / 8;
  cfg.num_files = 10000;
  cfg.file_bytes = 20e9;
  cfg.production_interval = 40;
  cfg.run_analysis = true;
  cfg.archive_to_tape = true;
  cfg.storage_sharing = lsds::hosts::StorageSharing::kFifo;
  cfg.horizon = 1e-6;
  return cfg;
}

}  // namespace

// Measured with this gate on an x86-64 gcc 12 build: 11.74 MB live while
// every analysis was a coroutine created at t = 0 and suspended in its
// first delay (40,000 frames beside the 40,001 pending events), and
// 3.74 MB with the analyses deferred by core::start_at. The bound lies
// between the two.
TEST(MonarcSetupHeap, HorizonCutSetupHoldsNoAnalysisFrames) {
  constexpr double kBoundMB = 8.0;
  const long long before = g_live_bytes.load();
  core::Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = 2005});
  const auto res = monarc::run(eng, lhc_30gbps_setup());
  const double live_mb = static_cast<double>(g_live_bytes.load() - before) / 1e6;
  std::printf("live heap after the horizon-cut set-up: %.2f MB (%zu pending events, %zu "
              "live processes)\n",
              live_mb, eng.pending(), eng.live_processes());
  EXPECT_EQ(res.analysis_jobs, 0u);
  EXPECT_EQ(eng.live_processes(), 40001u);  // production + 40,000 unstarted analyses
  EXPECT_LT(live_mb, kBoundMB);
}

// 10,000 stores in name order, the order numbered files arrive in, append to
// the catalog. Measured with this gate on an x86-64 gcc 12 build: 10,000
// allocations while the catalog was a std::map (one tree node per file),
// and 15 with the sorted vector (its growth steps).
TEST(StorageCatalogHeap, InOrderStoresDoNotAllocatePerFile) {
  constexpr long long kBound = 64;
  constexpr std::size_t kFiles = 10000;
  std::vector<std::string> names;
  names.reserve(kFiles);
  for (std::size_t i = 0; i < kFiles; ++i) names.push_back(lsds::util::numbered("raw", i, 5));
  core::Engine eng;
  lsds::hosts::StorageDevice disk(eng, "disk", {1e15, 1e9, 1e9, 0});
  const long long before = g_allocations.load();
  for (const auto& n : names) ASSERT_TRUE(disk.store(n, 20e9));
  const long long allocations = g_allocations.load() - before;
  std::printf("%zu in-order stores: %lld allocations\n", kFiles, allocations);
  EXPECT_EQ(disk.file_count(), kFiles);
  EXPECT_LT(allocations, kBound);
}
