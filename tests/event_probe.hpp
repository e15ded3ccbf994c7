// A probe that hands each executed event to a callable and times no queue
// operation: how a test records an engine's (time, seq) trace.
//
//   std::vector<std::pair<double, core::EventId>> trace;
//   EventProbe probe([&](double t, core::EventId id) { trace.emplace_back(t, id); });
//   core::Engine eng;
//   eng.set_probe(&probe);
#pragma once

#include <cstdint>
#include <utility>

#include "core/probe.hpp"

namespace lsds::testutil {

template <class F>
class EventProbe final : public core::EngineProbe {
 public:
  explicit EventProbe(F f) : f_(std::move(f)) {}
  void on_event(core::SimTime t, core::EventId seq) override { f_(t, seq); }
  std::uint32_t queue_stride() const override { return 0; }

 private:
  F f_;
};

}  // namespace lsds::testutil
