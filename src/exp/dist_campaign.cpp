#include "exp/dist_campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/flags.hpp"
#include "util/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#define LSDS_EXP_CAN_SPAWN 1
#endif
#if defined(__APPLE__)
#include <mach-o/dyld.h>
#endif

namespace lsds::exp {

namespace fs = std::filesystem;

DistConfig DistConfig::parse(const util::IniConfig& ini) {
  DistConfig cfg;
  cfg.processes = static_cast<unsigned>(ini.get_count("campaign", "distribute", 0));
  cfg.shard_size = ini.get_count("campaign", "shard_size", 1, 1);
  cfg.timeout_sec = ini.get_duration("campaign", "timeout", cfg.timeout_sec);
  if (!(cfg.timeout_sec > 0) || !std::isfinite(cfg.timeout_sec)) {
    throw util::ConfigError("[campaign] timeout must be a positive finite duration");
  }
  cfg.retries = static_cast<unsigned>(ini.get_count("campaign", "retries", 2));
  cfg.partial_dir = ini.get_string("campaign", "partial_dir", "");
  cfg.keep_partials = ini.get_bool("campaign", "keep_partials", false);

  const std::string hosts_path = ini.get_string("campaign", "hosts", "");
  if (!hosts_path.empty()) {
    std::ifstream f(hosts_path);
    if (!f) throw util::ConfigError("[campaign] hosts: cannot open " + hosts_path);
    std::string line;
    while (std::getline(f, line)) {
      const std::string host{util::trim(line)};
      if (host.empty() || host[0] == '#') continue;
      cfg.hosts.push_back(host);
    }
    if (cfg.hosts.empty()) {
      throw util::ConfigError("[campaign] hosts: " + hosts_path + " lists no hosts");
    }
  }
  return cfg;
}

void DistConfig::validate() const {
  if (processes == 0) {
    throw std::invalid_argument("DistConfig: processes must be >= 1 for a distributed run");
  }
  if (shard_size == 0) throw std::invalid_argument("DistConfig: shard_size must be >= 1");
  if (!(timeout_sec > 0) || !std::isfinite(timeout_sec)) {
    throw std::invalid_argument("DistConfig: timeout_sec must be positive and finite");
  }
}

namespace {

#ifdef LSDS_EXP_CAN_SPAWN

std::string read_file(const fs::path& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("campaign: cannot read " + path.string());
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string self_executable() {
#if defined(__APPLE__)
  std::uint32_t size = 0;
  ::_NSGetExecutablePath(nullptr, &size);  // reports the needed buffer size
  std::string path(size, '\0');
  if (::_NSGetExecutablePath(path.data(), &size) != 0) return {};
  const std::size_t nul = path.find('\0');
  if (nul != std::string::npos) path.resize(nul);
  return path;
#else
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
#endif
}

// Single-quote an argument for the remote shell an ssh target runs.
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') out += "'\\''";
    else out.push_back(c);
  }
  out += "'";
  return out;
}

struct RunningWorker {
  pid_t pid = -1;
  std::size_t shard_idx = 0;
  unsigned attempt = 0;
  std::chrono::steady_clock::time_point deadline;
  bool timed_out = false;  // SIGKILLed by the coordinator's timeout
};

/// Fork+exec one worker. Returns the child pid; throws on fork failure.
pid_t spawn_worker(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("campaign: fork failed");
  if (pid == 0) {
    ::execvp(argv[0], argv.data());
    // exec failed: nothing sane to do in the child but exit loudly.
    std::fprintf(stderr, "campaign-worker: cannot exec %s\n", argv[0]);
    ::_exit(127);
  }
  return pid;
}

#endif  // LSDS_EXP_CAN_SPAWN

}  // namespace

DistributedCampaign::DistributedCampaign(util::IniConfig base, DistConfig cfg)
    : campaign_(std::move(base)), cfg_(std::move(cfg)) {
  cfg_.validate();
}

CampaignResult DistributedCampaign::run() {
#ifndef LSDS_EXP_CAN_SPAWN
  throw std::runtime_error("campaign: distributed execution needs a POSIX host");
#else
  const std::size_t n_runs = campaign_.run_count();
  const std::vector<Shard> plan = plan_shards(n_runs, cfg_.shard_size);
  const std::string signature = grid_signature(campaign_);

  const bool private_dir = cfg_.partial_dir.empty();
  const fs::path dir = private_dir ? fs::temp_directory_path() /
                                         ("lsds_campaign_" + std::to_string(::getpid()))
                                   : fs::path(cfg_.partial_dir);
  fs::create_directories(dir);
  const fs::path scenario_path = dir / "scenario.ini";
  campaign_.base().save(scenario_path.string());

  std::string worker = cfg_.worker_binary.empty() ? self_executable() : cfg_.worker_binary;
  if (worker.empty()) {
    throw std::runtime_error(
        "campaign: cannot determine the worker binary (set DistConfig::worker_binary)");
  }

  DistAccounting acct;
  acct.processes = cfg_.processes;
  acct.shards = plan.size();

  std::vector<RepOutcome> grid(n_runs);
  std::vector<unsigned> attempts(plan.size(), 0);
  std::deque<std::size_t> queue;
  std::size_t completed = 0;

  auto merge_partial_file = [&](std::size_t idx) {
    // Throws on a missing/invalid/mismatched partial.
    const Shard& sh = plan[idx];
    const obs::Json doc = obs::Json::parse(read_file(dir / partial_filename(sh)));
    std::vector<RepOutcome> outcomes = parse_partial(doc, sh, signature);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      grid[sh.begin + i] = std::move(outcomes[i]);
    }
    ++completed;
  };

  std::vector<char> done(plan.size(), 0);
  if (cfg_.resume) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (!fs::exists(dir / partial_filename(plan[i]))) continue;
      try {
        merge_partial_file(i);
        done[i] = 1;
        ++acct.shards_resumed;
      } catch (const std::exception&) {
        // Stale or truncated partial (signature/range/parse mismatch):
        // recompute the shard.
      }
    }
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (!done[i]) queue.push_back(i);
  }

  const std::string hosts_note =
      cfg_.hosts.empty() ? "" : " on " + std::to_string(cfg_.hosts.size()) + " host(s)";
  std::fprintf(stderr,
               "campaign: distributing %zu shard%s (%zu runs) over %u process%s%s — %zu "
               "resumed, partials in %s\n",
               plan.size(), plan.size() == 1 ? "" : "s", n_runs, cfg_.processes,
               cfg_.processes == 1 ? "" : "es", hosts_note.c_str(), acct.shards_resumed,
               dir.string().c_str());

  std::vector<RunningWorker> running;
  std::size_t spawn_count = 0;  // round-robin cursor over hosts

  auto kill_all = [&running] {
    for (const RunningWorker& rw : running) {
      ::kill(rw.pid, SIGKILL);
      int status = 0;
      ::waitpid(rw.pid, &status, 0);
    }
    running.clear();
  };

  const auto t0 = std::chrono::steady_clock::now();
  try {
    auto spawn_shard = [&](std::size_t idx) {
      const Shard& sh = plan[idx];
      const unsigned attempt = attempts[idx]++;
      std::vector<std::string> args = {
          worker,
          "--campaign-worker",
          "--scenario=" + scenario_path.string(),
          "--shard-id=" + std::to_string(sh.id),
          "--shard-begin=" + std::to_string(sh.begin),
          "--shard-end=" + std::to_string(sh.end),
          "--attempt=" + std::to_string(attempt),
          "--partial=" + (dir / partial_filename(sh)).string(),
          "--worker-threads=" + std::to_string(cfg_.worker_threads),
      };
      if (cfg_.hang_shard == sh.id && attempt == 0) args.push_back("--test-hang");
      if (!cfg_.hosts.empty()) {
        const std::string& host = cfg_.hosts[spawn_count % cfg_.hosts.size()];
        if (host != "localhost" && host != "-") {
          // The coordinator's SIGKILL (per-shard timeout, kill_all) only
          // reaches the local ssh client; give the remote side its own
          // watchdog with the same budget so a lost shard cannot keep
          // computing — or publish its partial after reassignment.
          const long long budget =
              std::max<long long>(1, static_cast<long long>(std::ceil(cfg_.timeout_sec)));
          std::string remote = "timeout " + std::to_string(budget);
          for (const std::string& a : args) {
            remote += " ";
            remote += shell_quote(a);
          }
          args = {"ssh", "-oBatchMode=yes", host, remote};
        }
      }
      RunningWorker rw;
      rw.pid = spawn_worker(args);
      rw.shard_idx = idx;
      rw.attempt = attempt;
      rw.deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(cfg_.timeout_sec));
      ++spawn_count;
      if (cfg_.kill_shard == sh.id && attempt == 0) {
        // Fault injection: lose this worker mid-campaign; the supervision
        // loop must reassign the shard and still converge byte-identically.
        ::kill(rw.pid, SIGKILL);
      }
      running.push_back(rw);
    };

    auto shard_failed = [&](std::size_t idx, unsigned attempt, const std::string& reason,
                            const std::string& detail) {
      DistAccounting::Failure f;
      f.shard = plan[idx].id;
      f.attempt = attempt;
      f.reason = reason;
      f.detail = detail;
      acct.failures.push_back(std::move(f));
      if (attempts[idx] > cfg_.retries) {
        throw std::runtime_error("campaign: shard " + std::to_string(plan[idx].id) + " [" +
                                 std::to_string(plan[idx].begin) + ", " +
                                 std::to_string(plan[idx].end) + ") failed after " +
                                 std::to_string(attempts[idx]) + " attempt(s): " + reason +
                                 (detail.empty() ? "" : " — " + detail));
      }
      ++acct.retries_used;
      queue.push_back(idx);  // reassigned to the next free worker slot
    };

    while (completed < plan.size()) {
      while (running.size() < cfg_.processes && !queue.empty()) {
        spawn_shard(queue.front());
        queue.pop_front();
      }
      if (running.empty()) {
        throw std::runtime_error("campaign: internal error — incomplete grid with no workers");
      }

      bool progressed = false;
      for (std::size_t i = 0; i < running.size();) {
        RunningWorker& rw = running[i];
        int status = 0;
        const pid_t r = ::waitpid(rw.pid, &status, WNOHANG);
        if (r == 0) {
          if (!rw.timed_out && std::chrono::steady_clock::now() >= rw.deadline) {
            ::kill(rw.pid, SIGKILL);  // reaped on a later poll
            rw.timed_out = true;
          }
          ++i;
          continue;
        }
        // Worker exited (or waitpid failed, which we treat as a loss).
        const std::size_t idx = rw.shard_idx;
        const unsigned attempt = rw.attempt;
        const bool timed_out = rw.timed_out;
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        progressed = true;

        if (r < 0) {
          shard_failed(idx, attempt, "spawn", "waitpid failed");
          continue;
        }
        if (timed_out) {
          shard_failed(idx, attempt, "timeout",
                       "exceeded " + std::to_string(cfg_.timeout_sec) + "s");
          continue;
        }
        if (WIFSIGNALED(status)) {
          shard_failed(idx, attempt, "signal",
                       "killed by signal " + std::to_string(WTERMSIG(status)));
          continue;
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
          shard_failed(idx, attempt, "exit",
                       "exit code " + std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                                       : -1));
          continue;
        }
        try {
          merge_partial_file(idx);
          done[idx] = 1;
        } catch (const std::exception& e) {
          shard_failed(idx, attempt, "bad-partial", e.what());
        }
      }
      if (!progressed) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  } catch (...) {
    kill_all();
    throw;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  CampaignResult result = campaign_.aggregate(grid, wall);
  result.distribution = std::move(acct);

  if (private_dir && !cfg_.keep_partials) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best-effort cleanup of the temp dir
  }
  return result;
#endif
}

int run_campaign_worker(const util::Flags& flags) {
  try {
    std::string scenario = flags.get_string("scenario");
    if (scenario.empty() && !flags.positional().empty()) scenario = flags.positional()[0];
    if (scenario.empty()) {
      throw std::runtime_error("--campaign-worker needs --scenario=<ini>");
    }
    const auto ini = util::IniConfig::load(scenario);
    // Parsed only so its keys count as read: the coordinator ships the
    // scenario with its [campaign] distribution keys intact.
    DistConfig::parse(ini);
    Campaign campaign(ini);

    const long long begin = flags.get_int("shard-begin", -1);
    const long long end = flags.get_int("shard-end", -1);
    const long long id = flags.get_int("shard-id", -1);
    const std::string partial = flags.get_string("partial");
    if (begin < 0 || end < begin || id < 0 || partial.empty()) {
      throw std::runtime_error(
          "--campaign-worker needs --shard-id/--shard-begin/--shard-end/--partial");
    }

    if (flags.get_bool("test-hang", false)) {
      // Fault-injection hook: simulate a wedged worker so the coordinator's
      // timeout + reassignment path can be exercised end to end.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }

    const auto threads = static_cast<unsigned>(flags.get_int("worker-threads", 1));
    const std::vector<RepOutcome> outcomes = campaign.run_slots(
        static_cast<std::size_t>(begin), static_cast<std::size_t>(end), threads);

    Shard shard;
    shard.id = static_cast<std::size_t>(id);
    shard.begin = static_cast<std::size_t>(begin);
    shard.end = static_cast<std::size_t>(end);
    const obs::Json doc = partial_to_json(shard, grid_signature(campaign), outcomes);

    // Atomic publish: a worker killed mid-write must never leave a partial
    // that --resume or the coordinator would trust.
    const std::string tmp = partial + ".tmp";
    {
      std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
      if (!f) throw std::runtime_error("cannot open " + tmp + " for writing");
      f << doc.dump() << "\n";
      if (!f.flush()) throw std::runtime_error("write to " + tmp + " failed");
    }
    std::filesystem::rename(tmp, partial);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign-worker: %s\n", e.what());
    return 3;
  }
}

}  // namespace lsds::exp
