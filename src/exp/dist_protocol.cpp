#include "exp/dist_protocol.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "core/rng.hpp"

namespace lsds::exp {

std::vector<Shard> plan_shards(std::size_t n_runs, std::size_t shard_size) {
  if (shard_size == 0) throw std::invalid_argument("plan_shards: shard_size must be >= 1");
  std::vector<Shard> plan;
  plan.reserve((n_runs + shard_size - 1) / shard_size);
  for (std::size_t begin = 0; begin < n_runs; begin += shard_size) {
    Shard s;
    s.id = plan.size();
    s.begin = begin;
    s.end = begin + shard_size < n_runs ? begin + shard_size : n_runs;
    plan.push_back(s);
  }
  return plan;
}

std::string grid_signature(const Campaign& campaign) {
  // Canonical description of everything that determines slot outcomes.
  // Field separators use '\x1f' (unit separator) so adjacent fields cannot
  // collide by concatenation.
  std::string canon;
  auto field = [&canon](const std::string& s) {
    canon += s;
    canon += '\x1f';
  };
  field(campaign.facade());
  field(campaign.queue_name());
  field(std::to_string(campaign.base_seed()));
  field(std::to_string(campaign.spec().replications));
  field(std::to_string(campaign.spec().warmup));
  for (const SweepAxis& axis : campaign.sweep().axes()) {
    field(axis.name());
    for (const std::string& v : axis.values) field(v);
    canon += '\x1e';  // axis separator
  }
  // Slot outcomes depend on *every* base-scenario key (platform, workload,
  // network parameters, ...), so the full INI contents are part of the
  // fingerprint. The only exception is the [campaign] execution keys, which
  // choose how and where the grid is computed, never what it computes — a
  // --resume is allowed to use a different fleet, timeout or partial
  // directory than the run that produced the partials.
  static constexpr const char* kExecutionKeys[] = {
      "workers",  "timing",      "distribute", "shard_size",
      "timeout",  "retries",     "partial_dir", "keep_partials",
      "hosts",
  };
  // A copy: reading marks keys, and the campaign's own marks must stay the
  // ones its slots check against.
  const util::IniConfig base = campaign.base();
  for (const std::string& section : base.sections()) {
    canon += '\x1d';  // section separator
    field(section);
    for (const std::string& key : base.keys(section)) {
      if (section == "campaign" &&
          std::find(std::begin(kExecutionKeys), std::end(kExecutionKeys), key) !=
              std::end(kExecutionKeys)) {
        continue;
      }
      field(key);
      field(base.get_string(section, key, ""));
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(core::fnv1a(canon)));
  return buf;
}

std::string partial_filename(const Shard& shard) {
  return "partial_s" + std::to_string(shard.id) + "_" + std::to_string(shard.begin) + "_" +
         std::to_string(shard.end) + ".json";
}

obs::Json partial_to_json(const Shard& shard, const std::string& signature,
                          const std::vector<RepOutcome>& outcomes) {
  if (outcomes.size() != shard.size()) {
    throw std::invalid_argument("partial_to_json: " + std::to_string(outcomes.size()) +
                                " outcomes for a shard of " + std::to_string(shard.size()));
  }
  obs::Json root = obs::Json::object();
  root.set("schema", kPartialSchema);
  root.set("signature", signature);
  obs::Json sh = obs::Json::object();
  sh.set("id", static_cast<std::uint64_t>(shard.id));
  sh.set("begin", static_cast<std::uint64_t>(shard.begin));
  sh.set("end", static_cast<std::uint64_t>(shard.end));
  root.set("shard", std::move(sh));
  obs::Json slots = obs::Json::array();
  for (const RepOutcome& out : outcomes) {
    obs::Json slot = obs::Json::object();
    slot.set("rc", out.rc);
    slot.set("error", out.error);
    obs::Json metrics = obs::Json::array();
    for (const auto& [name, value] : out.metrics) {
      obs::Json pair = obs::Json::array();
      pair.push(name);
      pair.push(value);
      metrics.push(std::move(pair));
    }
    slot.set("metrics", std::move(metrics));
    slots.push(std::move(slot));
  }
  root.set("slots", std::move(slots));
  return root;
}

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("campaign partial: " + what);
}

const obs::Json& member(const obs::Json& doc, const char* key) {
  const obs::Json* v = doc.find(key);
  if (!v) bad(std::string("missing '") + key + "'");
  return *v;
}

}  // namespace

std::vector<RepOutcome> parse_partial(const obs::Json& doc, const Shard& shard,
                                      const std::string& signature) {
  if (!doc.is_object()) bad("not an object");
  if (member(doc, "schema").as_string() != kPartialSchema) {
    bad("unexpected schema '" + member(doc, "schema").as_string() + "'");
  }
  if (member(doc, "signature").as_string() != signature) {
    bad("grid signature mismatch (got " + member(doc, "signature").as_string() + ", expected " +
        signature + ") — partial belongs to a different campaign");
  }
  const obs::Json& sh = member(doc, "shard");
  const auto id = static_cast<std::size_t>(member(sh, "id").as_int());
  const auto begin = static_cast<std::size_t>(member(sh, "begin").as_int());
  const auto end = static_cast<std::size_t>(member(sh, "end").as_int());
  if (id != shard.id || begin != shard.begin || end != shard.end) {
    bad("shard mismatch (got " + std::to_string(id) + " [" + std::to_string(begin) + ", " +
        std::to_string(end) + "), expected " + std::to_string(shard.id) + " [" +
        std::to_string(shard.begin) + ", " + std::to_string(shard.end) + "))");
  }
  const obs::Json& slots = member(doc, "slots");
  if (!slots.is_array() || slots.items().size() != shard.size()) {
    bad("expected " + std::to_string(shard.size()) + " slots");
  }
  std::vector<RepOutcome> outcomes;
  outcomes.reserve(shard.size());
  for (const obs::Json& slot : slots.items()) {
    if (!slot.is_object()) bad("slot is not an object");
    RepOutcome out;
    out.rc = static_cast<int>(member(slot, "rc").as_int());
    out.error = member(slot, "error").as_string();
    const obs::Json& metrics = member(slot, "metrics");
    if (!metrics.is_array()) bad("slot metrics is not an array");
    out.metrics.reserve(metrics.items().size());
    for (const obs::Json& pair : metrics.items()) {
      if (!pair.is_array() || pair.items().size() != 2 ||
          pair.items()[0].kind() != obs::Json::Kind::kString || !pair.items()[1].is_number()) {
        bad("metric entry is not a [name, value] pair");
      }
      out.metrics.emplace_back(pair.items()[0].as_string(), pair.items()[1].as_double());
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

}  // namespace lsds::exp
