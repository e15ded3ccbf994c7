// Scenario runner: drive any registered facade from an INI scenario file —
// the "configuration over code" workflow a simulation user expects.
//
//   ./scenario_runner examples/scenarios/lhc_2.5gbps.ini
//   ./scenario_runner --report=out.json examples/scenarios/chaos_bag.ini
//   ./scenario_runner --workers=4 examples/scenarios/lhc_campaign.ini
//
// See examples/scenarios/*.ini for the format. The [scenario] section picks
// the facade (resolved through sim::FacadeRegistry), seed and event-queue
// structure; the facade-named section holds its parameters (rates/sizes/
// durations accept units: 2.5Gbps, 20GB, 40s). The [observability] section
// (or a --report= override) turns on the metrics/trace/profiler layer and
// writes a structured RunReport JSON.
//
// Key validation is always on: the facade parses its sections before
// anything runs, and any key or section that no code read — a typo, or a
// leftover `strict` key — fails with a near-miss suggestion. Campaign mode
// never reads [observability], so a campaign scenario may not have one.
//
// A scenario with a [sweep] or [campaign] section (or a --campaign flag)
// runs in *campaign mode* instead: the parameter grid is expanded, every
// point is replicated with substream seeds on a worker pool (--workers=N
// overrides [campaign] workers without changing the output), and a
// deterministic campaign report (mean ± 95% CI per point and metric) is
// written to --report= or CAMPAIGN_<facade>.json. See exp/campaign.hpp.
//
// With `[campaign] distribute = N` (or --distribute=N) the (point,
// replication) grid is sharded across N worker *processes* — spawned
// `scenario_runner --campaign-worker` subprocesses, or ssh targets from a
// `hosts =` file — with per-shard timeout, bounded retry and shard
// reassignment; --resume skips shards whose partials already landed in
// --partial-dir. The merged report is byte-identical to the in-process
// one. See exp/dist_campaign.hpp.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "exp/dist_campaign.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/flags.hpp"
#include "util/ini.hpp"
#include "util/strings.hpp"

using namespace lsds;

namespace {

int run_campaign(const util::IniConfig& ini, const util::Flags& flags) {
  exp::DistConfig dcfg = exp::DistConfig::parse(ini);
  if (flags.has("distribute")) {
    dcfg.processes = static_cast<unsigned>(flags.get_int("distribute", 0));
  }
  if (flags.has("timeout")) dcfg.timeout_sec = flags.get_duration("timeout", dcfg.timeout_sec);
  if (flags.has("retries")) {
    dcfg.retries = static_cast<unsigned>(flags.get_int("retries", dcfg.retries));
  }
  if (flags.has("partial-dir")) dcfg.partial_dir = flags.get_string("partial-dir");
  if (flags.has("worker-binary")) dcfg.worker_binary = flags.get_string("worker-binary");
  if (flags.has("worker-threads")) {
    dcfg.worker_threads = static_cast<unsigned>(flags.get_int("worker-threads", 1));
  }
  if (flags.get_bool("resume", false)) dcfg.resume = true;
  if (flags.get_bool("keep-partials", false)) dcfg.keep_partials = true;
  // Fault-injection hooks for the distexec-smoke CI job: lose one worker
  // (SIGKILL / hang-until-timeout) and prove the report still converges.
  if (flags.has("test-kill-shard")) {
    dcfg.kill_shard = static_cast<std::size_t>(flags.get_int("test-kill-shard", -1));
  }
  if (flags.has("test-hang-shard")) {
    dcfg.hang_shard = static_cast<std::size_t>(flags.get_int("test-hang-shard", -1));
  }
  const bool set_workers = flags.has("workers");
  const auto workers = static_cast<unsigned>(flags.get_int("workers", 1));
  const std::string report_path = flags.get_string("report");
  flags.reject_unread();

  exp::CampaignResult result;
  if (dcfg.processes > 0) {
    exp::DistributedCampaign distributed(ini, dcfg);
    result = distributed.run();
  } else {
    exp::Campaign campaign(ini);
    if (set_workers) campaign.set_workers(workers);
    result = campaign.run();
  }

  for (const auto& point : result.points) {
    std::string params;
    for (const auto& [name, value] : point.params) {
      if (!params.empty()) params += " ";
      params += name + "=" + value;
    }
    std::printf("point %zu%s%s\n", point.index, params.empty() ? "" : ": ", params.c_str());
    for (const auto& [name, ms] : point.metrics) {
      std::printf("  %-32s %.6g ± %.3g  (n=%zu, min %.6g, max %.6g)\n", name.c_str(), ms.mean,
                  ms.ci95, ms.n, ms.min, ms.max);
    }
  }
  std::printf("campaign: %llu runs in %.2f s wall\n",
              static_cast<unsigned long long>(result.runs), result.wall_seconds);
  if (result.distribution) {
    const auto& d = *result.distribution;
    std::printf("distributed: %zu shards over %u processes, %zu resumed, %zu retries, "
                "%zu worker failure%s recovered\n",
                d.shards, d.processes, d.shards_resumed, d.retries_used, d.failures.size(),
                d.failures.size() == 1 ? "" : "s");
  }

  const std::string path =
      report_path.empty() ? "CAMPAIGN_" + result.facade + ".json" : report_path;
  result.write(path);
  std::printf("report: %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (flags.has("campaign-worker")) {
    // Shard worker of a distributed campaign (spawned by the coordinator):
    // compute grid slots [--shard-begin, --shard-end) of --scenario= and
    // publish the lsds.campaign_partial/1 message at --partial=.
    return exp::run_campaign_worker(flags);
  }
  if (flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: scenario_runner [--report=out.json] [--campaign] [--workers=N]\n"
                 "                       [--distribute=N] [--partial-dir=DIR] [--resume]\n"
                 "                       [--timeout=60s] [--retries=K] <scenario.ini>\n");
    return 2;
  }
  try {
    const std::string source = flags.positional()[0];
    auto ini = util::IniConfig::load(source);
    const std::string facade = ini.get_string("scenario", "facade", "");

    sim::register_builtin_facades();
    const auto& reg = sim::FacadeRegistry::global();
    const auto* entry = reg.find(facade);
    if (!entry) {
      std::fprintf(stderr, "unknown facade '%s' in [scenario]; registered: %s\n",
                   facade.c_str(), util::join(reg.names(), ", ").c_str());
      return 2;
    }
    const auto sections = ini.sections();
    const bool has_campaign_cfg =
        std::find(sections.begin(), sections.end(), "campaign") != sections.end() ||
        std::find(sections.begin(), sections.end(), "sweep") != sections.end();
    if (flags.get_bool("campaign", false) || has_campaign_cfg) {
      return run_campaign(ini, flags);
    }
    const std::string report_path = flags.get_string("report");
    flags.reject_unread();

    core::Engine::Config ecfg;
    ecfg.seed = ini.get_count("scenario", "seed", 42);
    const std::string queue = ini.get_string("scenario", "queue", "heap");
    ecfg.queue = sim::facades::parse_queue(queue);
    obs::Options oopts = obs::parse_options(ini);
    const auto study = entry->parse(ini);
    ini.reject_unread();

    core::Engine engine(ecfg);
    if (!report_path.empty()) {
      // A --report= flag forces observability on and overrides the path.
      oopts.enabled = true;
      oopts.report_path = report_path;
    }
    obs::Observability observability(oopts);
    observability.attach(engine);

    obs::RunReport report;
    report.set_scenario(facade, ecfg.seed, queue, source);
    report.echo_config(ini);

    const int rc = study(engine, report);

    if (observability.enabled()) {
      observability.finalize(engine, report);
      const std::string path = observability.report_path(facade);
      report.write(path);
      std::printf("report: %s\n", path.c_str());
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 1;
  }
}
