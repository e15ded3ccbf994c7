#include "p2p/churn.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace lsds::p2p {

// --- specs --------------------------------------------------------------

void ChurnSpec::validate() const {
  auto positive_finite = [](double v, const char* what) {
    if (!(v > 0) || !std::isfinite(v)) {
      throw std::invalid_argument("ChurnSpec: " + std::string(what) +
                                  " must be positive and finite, got " + std::to_string(v));
    }
  };
  positive_finite(mean_lifetime, "mean_lifetime");
  positive_finite(mean_downtime, "mean_downtime");
  if (lifetime_model == Lifetime::kWeibull) positive_finite(weibull_shape, "weibull_shape");
  if (!std::isfinite(horizon) || horizon < 0) {
    throw std::invalid_argument("ChurnSpec: horizon must be finite and >= 0, got " +
                                std::to_string(horizon));
  }
}

double ChurnSpec::weibull_scale() const {
  // E[Weibull(shape, scale)] = scale * Gamma(1 + 1/shape).
  return mean_lifetime / std::tgamma(1.0 + 1.0 / weibull_shape);
}

void TrafficSpec::validate() const {
  if (!(rate > 0) || !std::isfinite(rate)) {
    throw std::invalid_argument("TrafficSpec: rate must be positive and finite, got " +
                                std::to_string(rate));
  }
  if (!std::isfinite(horizon) || horizon < 0) {
    throw std::invalid_argument("TrafficSpec: horizon must be finite and >= 0, got " +
                                std::to_string(horizon));
  }
}

// --- ChordChurn ---------------------------------------------------------

ChordChurn::ChordChurn(core::Engine& engine, ChordNetwork& chord, const ChurnSpec& spec)
    : engine_(engine),
      chord_(chord),
      spec_(spec),
      lifetime_rng_(engine.rng("p2p.churn.lifetime")),
      downtime_rng_(engine.rng("p2p.churn.downtime")),
      bootstrap_rng_(engine.rng("p2p.churn.bootstrap")) {
  spec_.validate();
}

double ChordChurn::draw_lifetime() {
  return spec_.lifetime_model == ChurnSpec::Lifetime::kWeibull
             ? lifetime_rng_.weibull(spec_.weibull_shape, spec_.weibull_scale())
             : lifetime_rng_.exponential(spec_.mean_lifetime);
}

void ChordChurn::start() {
  chord_.for_each_live([&](PeerIndex p) { schedule_death(p); });
}

void ChordChurn::schedule_death(PeerIndex peer) {
  const double at = engine_.now() + draw_lifetime();
  const auto slot = static_cast<std::uint32_t>(peer);
  const std::uint32_t gen = chord_.generation(peer);
  // The overlay may then resolve hops through this peer ahead of time.
  chord_.announce_death(peer, at);
  engine_.schedule_at(at, [this, slot, gen] { on_death(slot, gen); });
}

void ChordChurn::on_death(std::uint32_t slot, std::uint32_t gen) {
  if (engine_.now() >= spec_.horizon) return;
  if (chord_.generation(slot) != gen || !chord_.is_live(slot)) return;  // already churned
  if (chord_.size() <= 2) {
    // Never reap the overlay down to nothing: there must remain a live
    // bootstrap for rebirths. Redraw this peer's remaining lifetime.
    schedule_death(slot);
    return;
  }
  const net::NodeId node = chord_.node_of(slot);
  chord_.fail_peer(slot);
  ++deaths_;
  const double down = downtime_rng_.exponential(spec_.mean_downtime);
  engine_.schedule_in(down, [this, node] { on_rebirth(node); });
}

void ChordChurn::on_rebirth(net::NodeId node) {
  if (engine_.now() >= spec_.horizon) return;
  if (chord_.size() == 0) return;  // nobody left to bootstrap from
  const PeerIndex bootstrap = chord_.random_live_peer(bootstrap_rng_);
  const PeerIndex newcomer = chord_.join_via(node, bootstrap);
  ++rebirths_;
  schedule_death(newcomer);
}

// --- GnutellaChurn ------------------------------------------------------

GnutellaChurn::GnutellaChurn(core::Engine& engine, GnutellaNetwork& net, const ChurnSpec& spec,
                             std::size_t rejoin_degree)
    : engine_(engine),
      net_(net),
      spec_(spec),
      rejoin_degree_(rejoin_degree),
      lifetime_rng_(engine.rng("p2p.churn.lifetime")),
      downtime_rng_(engine.rng("p2p.churn.downtime")),
      rewire_rng_(engine.rng("p2p.churn.rewire")) {
  spec_.validate();
}

double GnutellaChurn::draw_lifetime() {
  return spec_.lifetime_model == ChurnSpec::Lifetime::kWeibull
             ? lifetime_rng_.weibull(spec_.weibull_shape, spec_.weibull_scale())
             : lifetime_rng_.exponential(spec_.mean_lifetime);
}

void GnutellaChurn::start() {
  for (std::size_t s = 0; s < net_.slot_count(); ++s) {
    if (net_.is_live(s)) schedule_death(s);
  }
}

void GnutellaChurn::schedule_death(GnutellaNetwork::PeerIndex peer) {
  const double life = draw_lifetime();
  const auto slot = static_cast<std::uint32_t>(peer);
  const std::uint32_t gen = net_.generation(peer);
  engine_.schedule_in(life, [this, slot, gen] { on_death(slot, gen); });
}

void GnutellaChurn::on_death(std::uint32_t slot, std::uint32_t gen) {
  if (engine_.now() >= spec_.horizon) return;
  if (net_.generation(slot) != gen || !net_.is_live(slot)) return;  // already churned
  if (net_.size() <= 2) {
    schedule_death(slot);
    return;
  }
  const net::NodeId node = net_.node_of(slot);
  net_.remove_peer(slot);
  ++deaths_;
  const double down = downtime_rng_.exponential(spec_.mean_downtime);
  engine_.schedule_in(down, [this, node] { on_rebirth(node); });
}

void GnutellaChurn::on_rebirth(net::NodeId node) {
  if (engine_.now() >= spec_.horizon) return;
  if (net_.size() == 0) return;
  const auto newcomer = net_.add_peer(node);
  net_.connect_random(newcomer, rejoin_degree_, rewire_rng_);
  ++rebirths_;
  schedule_death(newcomer);
}

// --- ChordLookupTraffic -------------------------------------------------

ChordLookupTraffic::ChordLookupTraffic(core::Engine& engine, ChordNetwork& chord,
                                       const TrafficSpec& spec)
    : engine_(engine),
      chord_(chord),
      spec_(spec),
      arrival_rng_(engine.rng("p2p.traffic.arrival")),
      origin_rng_(engine.rng("p2p.traffic.origin")),
      key_rng_(engine.rng("p2p.traffic.key")) {
  spec_.validate();
  chord_.set_lookup_handler(&ChordLookupTraffic::dispatch, this);
}

void ChordLookupTraffic::dispatch(void* user, std::uint64_t /*tag*/,
                                  const ChordNetwork::LookupResult& r) {
  auto* self = static_cast<ChordLookupTraffic*>(user);
  if (r.ok) {
    ++self->succeeded_;
    self->hops_.add(static_cast<double>(r.hops));
    self->latency_.add(r.latency);
  } else {
    ++self->failed_;
  }
}

void ChordLookupTraffic::start() { schedule_next(); }

void ChordLookupTraffic::schedule_next() {
  const double dt = arrival_rng_.exponential(1.0 / spec_.rate);
  engine_.schedule_in(dt, [this] { on_tick(); });
}

void ChordLookupTraffic::on_tick() {
  if (engine_.now() >= spec_.horizon) return;
  if (chord_.size() > 0) {
    const PeerIndex origin = chord_.random_live_peer(origin_rng_);
    const ChordId key = key_rng_.next_u64() & chord_.id_mask();
    ++issued_;
    chord_.lookup_tagged(origin, key, issued_);
  }
  if (engine_.pending() > peak_pending_) peak_pending_ = engine_.pending();
  schedule_next();
}

// --- GnutellaSearchTraffic ----------------------------------------------

GnutellaSearchTraffic::GnutellaSearchTraffic(core::Engine& engine, GnutellaNetwork& net,
                                             const TrafficSpec& spec,
                                             std::vector<std::uint64_t> catalog)
    : engine_(engine),
      net_(net),
      spec_(spec),
      catalog_(std::move(catalog)),
      arrival_rng_(engine.rng("p2p.traffic.arrival")),
      origin_rng_(engine.rng("p2p.traffic.origin")),
      target_rng_(engine.rng("p2p.traffic.target")) {
  spec_.validate();
  if (catalog_.empty()) {
    throw std::invalid_argument("GnutellaSearchTraffic: empty object catalog");
  }
  net_.set_search_handler(&GnutellaSearchTraffic::dispatch, this);
}

void GnutellaSearchTraffic::dispatch(void* user, std::uint64_t /*tag*/,
                                     const GnutellaNetwork::SearchResult& r) {
  auto* self = static_cast<GnutellaSearchTraffic*>(user);
  self->messages_.add(static_cast<double>(r.messages));
  if (r.found) {
    ++self->found_;
    self->hops_.add(static_cast<double>(r.hops));
    self->latency_.add(r.latency);
  } else {
    ++self->missed_;
  }
}

void GnutellaSearchTraffic::start() { schedule_next(); }

void GnutellaSearchTraffic::schedule_next() {
  const double dt = arrival_rng_.exponential(1.0 / spec_.rate);
  engine_.schedule_in(dt, [this] { on_tick(); });
}

void GnutellaSearchTraffic::on_tick() {
  if (engine_.now() >= spec_.horizon) return;
  if (net_.size() > 0) {
    const auto origin = net_.random_live_peer(origin_rng_);
    const auto target = static_cast<std::size_t>(
        target_rng_.uniform_int(0, static_cast<std::int64_t>(catalog_.size()) - 1));
    ++issued_;
    net_.search_tagged(origin, catalog_[target], spec_.ttl, issued_);
  }
  if (engine_.pending() > peak_pending_) peak_pending_ = engine_.pending();
  schedule_next();
}

}  // namespace lsds::p2p
