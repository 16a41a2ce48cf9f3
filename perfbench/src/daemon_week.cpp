// serve-week and ingest-flood: the shipped funnel_serve daemon over
// loopback HTTP, one client thread (and so at most one open connection)
// per tenant, four tenants.
//
// serve-week is open loop: every tenant's deployment week is sent on a
// fixed schedule, with dark-launch changes registered at a fixed
// data-minute spacing, a known share of them carrying an injected level
// shift, checkpoints and /metrics scrapes at a fixed cadence, and a SIGKILL
// plus restart on the same data root at the end. ingest-flood is closed
// loop: each client posts minute-batches to its own persistent tenant as
// fast as they are answered; no change is registered, so detection idles.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

#include "common/rng.h"
#include "http.h"
#include "obs/journal.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using funnel::MinuteTime;

constexpr int kTenants = 4;

// Shipped funnel_serve defaults: horizon/lookback 60, min_did_window 9.
constexpr MinuteTime kHorizon = 60;
constexpr MinuteTime kLookback = 60;

struct KpiSpec {
  const char* name;
  funnel::tsdb::KpiClass cls;
  double sigma;  ///< marginal noise scale of the default generator
};
constexpr KpiSpec kKpis[3] = {
    {"page_views", funnel::tsdb::KpiClass::kSeasonal, 2.0},
    {"memory_util", funnel::tsdb::KpiClass::kStationary, 1.0},
    {"ctx_switches", funnel::tsdb::KpiClass::kVariable, 21.0},
};

std::string server_name(int s) { return "srv" + std::to_string(s); }

/// Append "service,server,kpi,minute,value\n".
void append_sample(std::string* body, const std::string& service,
                   const std::string& server, const char* kpi, MinuteTime m,
                   double v) {
  char buf[64];
  *body += service;
  *body += ',';
  *body += server;
  *body += ',';
  *body += kpi;
  *body += ',';
  auto r = std::to_chars(buf, buf + sizeof(buf), m);
  body->append(buf, r.ptr);
  *body += ',';
  r = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 4);
  body->append(buf, r.ptr);
  *body += '\n';
}

std::vector<std::unique_ptr<funnel::workload::KpiGenerator>> make_generators(
    std::uint64_t seed, int servers) {
  std::vector<std::unique_ptr<funnel::workload::KpiGenerator>> gens;
  for (int s = 0; s < servers; ++s) {
    for (int k = 0; k < 3; ++k) {
      gens.push_back(funnel::workload::make_default(
          kKpis[k].cls, funnel::Rng(mix_seed(seed, 1000 + 3 * s + k))));
    }
  }
  return gens;
}

// ---------------------------------------------------------------------------
// serve-week plan

/// Each tenant runs kServices services of kServersPerService servers; every
/// server is named once per tenant, since server metrics carry no service.
constexpr int kServices = 4;
constexpr int kServersPerService = 4;
constexpr int kServeServers = kServices * kServersPerService;
constexpr int kTreated = 2;  ///< dark-launched servers per change
constexpr MinuteTime kWeek = 7 * 1440;
constexpr MinuteTime kBatchMinutes = 5;
/// A change every 20 data-minutes per tenant, the soak harness's deployment
/// week cadence, so about three watches are open per tenant at any time.
constexpr MinuteTime kChangeEvery = 20;
/// Changes rotate over the services, so one service changes every 80
/// minutes: no watch's lookback or horizon holds another change's shift.
static_assert(kServices * kChangeEvery > std::max(kLookback, kHorizon));
constexpr double kInjectShare = 0.35;
constexpr std::size_t kSlotsPerDay = 1440 / kBatchMinutes;

struct ChangeTruth {
  MinuteTime time = 0;
  int service = 0;
  std::vector<int> servers;  ///< treated server indices
  std::set<int> stepped;     ///< KPI indices with an injected level shift
  std::uint64_t id = 0;      ///< assigned by the daemon at registration
};

struct TenantPlan {
  std::string name;
  std::vector<Request> requests;
  std::vector<std::size_t> slot;           ///< schedule slot per request
  /// applied_seq after each request: every sample line and every newly
  /// watched change is one WAL action.
  std::vector<std::uint64_t> seq_after;
  std::vector<ChangeTruth> changes;
  std::size_t slots = 0;
};

std::string service_name(int server) {
  return "svc" + std::to_string(server / kServersPerService);
}

TenantPlan build_serve_plan(int tenant, std::uint64_t seed) {
  TenantPlan plan;
  plan.name = "t" + std::to_string(tenant);
  funnel::Rng rng(mix_seed(seed, 100 + tenant));
  // The first change has a full lookback of history. Tenants deploy one
  // batch apart, not in lockstep.
  int k = 0;
  for (MinuteTime tc = kLookback + kBatchMinutes * tenant;
       tc + kHorizon + kBatchMinutes < kWeek;
       tc += kChangeEvery, ++k) {
    ChangeTruth c;
    c.time = tc;
    c.service = k % kServices;
    const int first = static_cast<int>(rng.uniform_int(0, kServersPerService - 1));
    for (int i = 0; i < kTreated; ++i) {
      c.servers.push_back(c.service * kServersPerService +
                          (first + i) % kServersPerService);
    }
    std::sort(c.servers.begin(), c.servers.end());
    if (rng.uniform() < kInjectShare) {
      for (int i = 0; i < 3; ++i) {
        if (rng.uniform() < 0.5) c.stepped.insert(i);
      }
      if (c.stepped.empty()) {
        c.stepped.insert(static_cast<int>(rng.uniform_int(0, 2)));
      }
    }
    plan.changes.push_back(std::move(c));
  }

  // Level shifts: permanent, signed, 6-10 sigma of the KPI's noise, on
  // every treated server, from the change minute on.
  std::vector<std::vector<std::pair<MinuteTime, double>>> shifts(
      kServeServers * 3);
  for (const ChangeTruth& c : plan.changes) {
    for (const int i : c.stepped) {
      const double delta = (rng.uniform() < 0.5 ? -1.0 : 1.0) *
                           rng.uniform(6.0, 10.0) * kKpis[i].sigma;
      for (const int s : c.servers) shifts[3 * s + i].push_back({c.time, delta});
    }
  }
  auto gens = make_generators(mix_seed(seed, 200 + tenant), kServeServers);
  std::vector<double> offset(kServeServers * 3, 0.0);
  std::vector<std::size_t> next_shift(kServeServers * 3, 0);
  std::vector<std::string> servers, services;
  for (int s = 0; s < kServeServers; ++s) {
    servers.push_back(server_name(s));
    services.push_back(service_name(s));
  }

  std::size_t next_change = 0;
  std::uint64_t seq = 0;
  for (MinuteTime m0 = 0; m0 < kWeek; m0 += kBatchMinutes) {
    const std::size_t slot = static_cast<std::size_t>(m0 / kBatchMinutes);
    while (next_change < plan.changes.size() &&
           plan.changes[next_change].time < m0 + kBatchMinutes) {
      const ChangeTruth& c = plan.changes[next_change];
      Request req;
      req.change = true;
      req.body = std::to_string(c.time) + ',' + services[c.servers[0]] + ",dark,";
      for (std::size_t i = 0; i < c.servers.size(); ++i) {
        req.body += (i == 0 ? "" : ";") + servers[c.servers[i]];
      }
      req.body += ",chg-" + std::to_string(next_change) + '\n';
      req.lines = 1;
      seq += 1;
      plan.requests.push_back(std::move(req));
      plan.slot.push_back(slot);
      plan.seq_after.push_back(seq);
      ++next_change;
    }
    Request req;
    req.body.reserve(kBatchMinutes * kServeServers * 3 * 48);
    for (MinuteTime m = m0; m < m0 + kBatchMinutes; ++m) {
      for (int s = 0; s < kServeServers; ++s) {
        for (int i = 0; i < 3; ++i) {
          const int j = 3 * s + i;
          while (next_shift[j] < shifts[j].size() &&
                 shifts[j][next_shift[j]].first <= m) {
            offset[j] += shifts[j][next_shift[j]++].second;
          }
          append_sample(&req.body, services[s], servers[s], kKpis[i].name, m,
                        gens[j]->sample(m) + offset[j]);
          ++req.lines;
        }
      }
    }
    seq += req.lines;
    plan.requests.push_back(std::move(req));
    plan.slot.push_back(slot);
    plan.seq_after.push_back(seq);
  }
  plan.slots = static_cast<std::size_t>(kWeek / kBatchMinutes);
  return plan;
}

std::vector<std::string> daemon_args(const std::string& data_root,
                                     const std::vector<std::string>& tenants) {
  std::string joined;
  for (const std::string& t : tenants) joined += (joined.empty() ? "" : ",") + t;
  return {"--data-root", data_root, "--tenants", joined};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Set up five times — generate the inputs, spawn the daemon on a fresh
/// data root and wait until it is ready — and keep the last daemon, whose
/// data root is returned in `*data_root`.
bool setup_daemon(const Args& args, const std::string& dir,
                  const std::vector<std::string>& tenants,
                  const std::function<void()>& generate, Daemon* daemon,
                  std::string* data_root, std::vector<double>* setup,
                  Outcome* outcome) {
  constexpr int kTimes = 5;
  for (int i = 0; i < kTimes; ++i) {
    const std::string root = dir + "/data" + std::to_string(i);
    fs::remove_all(root);
    fs::create_directories(root);
    const double t0 = now_s();
    generate();
    int code = -1;
    if (!daemon->spawn(args.serve_bin, daemon_args(root, tenants), dir, 60.0,
                       &code)) {
      outcome->check(false, "funnel_serve became ready (exit code " +
                                std::to_string(code) + ")");
      return false;
    }
    setup->push_back(now_s() - t0);
    if (i + 1 < kTimes) {
      daemon->kill_now();
      fs::remove_all(root);
    } else {
      *data_root = root;
    }
  }
  return true;
}

struct Event {
  int tenant = 0;
  funnel::obs::JournalEvent ev;
  double readable_s = 0.0;
};

/// Follows the tenants' journal files: every complete line becomes an
/// Event stamped with the moment it was first readable.
class JournalTail {
 public:
  explicit JournalTail(std::vector<std::string> paths)
      : paths_(std::move(paths)), offset_(paths_.size(), 0),
        partial_(paths_.size()), counts_(paths_.size(), 0) {}

  void poll() {
    for (std::size_t t = 0; t < paths_.size(); ++t) {
      // A stat per poll; the file is opened only when it has grown.
      std::error_code ec;
      const auto size = static_cast<std::streamoff>(fs::file_size(paths_[t], ec));
      if (ec || size <= offset_[t]) continue;
      std::ifstream in(paths_[t], std::ios::binary);
      if (!in) continue;
      in.seekg(offset_[t]);
      std::string chunk(static_cast<std::size_t>(size - offset_[t]), '\0');
      in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      const double stamp = now_s();
      offset_[t] = size;
      partial_[t] += chunk;
      std::size_t start = 0;
      for (std::size_t nl; (nl = partial_[t].find('\n', start)) !=
                           std::string::npos;
           start = nl + 1) {
        Event e;
        e.tenant = static_cast<int>(t);
        e.readable_s = stamp;
        if (funnel::obs::parse_jsonl(
                std::string_view(partial_[t]).substr(start, nl - start),
                e.ev)) {
          events_.push_back(std::move(e));
          ++counts_[t];
        } else {
          ++bad_lines_;
        }
      }
      partial_[t].erase(0, start);
    }
  }

  std::size_t count(std::size_t tenant) const { return counts_[tenant]; }
  const std::vector<Event>& events() const { return events_; }
  std::size_t bad_lines() const { return bad_lines_; }

 private:
  std::vector<std::string> paths_;
  std::vector<std::streamoff> offset_;
  std::vector<std::string> partial_;
  std::vector<std::size_t> counts_;
  std::vector<Event> events_;
  std::size_t bad_lines_ = 0;
};

struct ClientStats {
  std::vector<double> ingest_ms;  ///< from the scheduled (or actual) send
  std::vector<double> answer_ms;  ///< serve-week: from the actual send
  double busy_s = 0.0;  ///< answer time of every request, from its actual send
  std::vector<double> late_ms;
  std::uint64_t requests = 0;
  std::uint64_t bad_status = 0;
  std::uint64_t http_503 = 0;
  std::uint64_t refused = 0;
  std::uint64_t seq_mismatch = 0;
  std::uint64_t side_requests = 0;  ///< checkpoints and scrapes
  std::uint64_t side_failed = 0;
  std::vector<double> checkpoint_ms;
};

void note_reply(const HttpReply& reply, double start, double end,
                ClientStats* st) {
  ++st->requests;
  st->busy_s += end - start;
  if (!reply.ok || reply.status != 200) ++st->bad_status;
  if (reply.status == 503) ++st->http_503;
  if (reply.status == 503 || reply.status == 429) ++st->refused;
}

/// A checkpoint, scrape or report request: counted apart from the feed.
void side(int port, const char* method, const std::string& path,
          ClientStats* st, std::vector<double>* ms = nullptr) {
  ++st->side_requests;
  const double start = now_s();
  const HttpReply reply = http(port, method, path);
  const double end = now_s();
  st->busy_s += end - start;
  if (ms != nullptr) ms->push_back(1e3 * (end - start));
  if (!reply.ok || reply.status != 200) ++st->side_failed;
}

struct WeekRun {
  bool ok = false;
  double t0 = 0.0;
  double period_s = 0.0;
  double busy_s = 0.0;
  double makespan_s = 0.0;  ///< first scheduled send to last verdict readable
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  double recover_s = 0.0;
  std::vector<ClientStats> clients;
  std::vector<Event> events;
  std::vector<std::string> journals;  ///< pre-kill bytes per tenant
};

/// One served week against `daemon`, then SIGKILL, restart and resume.
void drive_week(const Args& args, const std::string& dir,
                const std::string& data_root, std::vector<TenantPlan>* plans,
                Daemon* daemon, double feed_s, Spans* spans, WeekRun* run,
                Outcome* outcome) {
  const std::size_t n = plans->size();
  run->clients.assign(n, {});
  run->period_s = feed_s / static_cast<double>((*plans)[0].slots);
  std::vector<std::string> journal_paths;
  std::vector<std::string> tenants;
  for (const TenantPlan& p : *plans) {
    journal_paths.push_back(data_root + "/" + p.name + "/journal.jsonl");
    tenants.push_back(p.name);
  }
  JournalTail tail(journal_paths);
  std::vector<std::size_t> expected(n, 0);
  for (std::size_t t = 0; t < n; ++t) {
    expected[t] = (*plans)[t].changes.size() * kTreated * 3;
  }

  const int port = daemon->port();
  const double cpu0 = pid_cpu_s(daemon->pid());
  run->t0 = now_s() + 0.05;
  std::atomic<int> done{0};
  std::mutex spans_mutex;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      TenantPlan& plan = (*plans)[t];
      ClientStats& st = run->clients[t];
      const std::size_t ckpt_every = plan.slots / 4;
      const std::size_t scrape_every = plan.slots / 8;
      std::size_t next_change = 0;
      for (std::size_t i = 0; i < plan.requests.size(); ++i) {
        const Request& req = plan.requests[i];
        const double due =
            run->t0 + static_cast<double>(plan.slot[i]) * run->period_s;
        const double wait = due - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const double start = now_s();
        const HttpReply reply =
            http(port, "POST",
                 (req.change ? "/v1/changes/" : "/v1/ingest/") + plan.name,
                 req.body);
        const double end = now_s();
        if (spans != nullptr) {
          std::lock_guard<std::mutex> lock(spans_mutex);
          spans->add(req.change ? "e2e.register" : "e2e.ingest", Spans::kRoot,
                     start, end);
        }
        note_reply(reply, start, end, &st);
        st.late_ms.push_back(1e3 * (start - due));
        unsigned long long seq = 0;
        if (!json_uint(reply.body, "applied_seq", &seq) ||
            seq != plan.seq_after[i]) {
          ++st.seq_mismatch;
        }
        if (req.change) {
          unsigned long long id = 0;
          const std::size_t pos = reply.body.find("\"registered\":[");
          if (pos != std::string::npos && next_change < plan.changes.size()) {
            id = std::strtoull(reply.body.c_str() + pos + 14, nullptr, 10);
            plan.changes[next_change++].id = id;
          }
          continue;
        }
        st.ingest_ms.push_back(1e3 * (end - due));
        st.answer_ms.push_back(1e3 * (end - start));
        const std::size_t slot = plan.slot[i] + 1;
        // Tenants checkpoint and scrape one slot apart, not all at once.
        const std::size_t phase = slot + t;
        if (phase % ckpt_every == 0 && phase < plan.slots) {
          side(port, "POST", "/v1/checkpoint/" + plan.name, &st,
               &st.checkpoint_ms);
        }
        if (phase % scrape_every == 0) side(port, "GET", "/metrics", &st);
      }
      // Drain: the report read flushes the tenant's dispatcher, so every
      // finalized watch has reached its journal writer.
      side(port, "GET", "/v1/report/" + plan.name, &st);
      done.fetch_add(1);
    });
  }
  const auto all_seen = [&] {
    for (std::size_t t = 0; t < n; ++t) {
      if (tail.count(t) < expected[t]) return false;
    }
    return true;
  };
  const double give_up = run->t0 + feed_s + 60.0;
  while ((done.load() < static_cast<int>(n) || !all_seen()) &&
         now_s() < give_up) {
    tail.poll();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  for (std::thread& th : threads) th.join();
  tail.poll();
  for (const ClientStats& st : run->clients) run->busy_s += st.busy_s;
  for (const Event& e : tail.events()) {
    run->makespan_s = std::max(run->makespan_s, e.readable_s - run->t0);
  }
  run->cpu_s = pid_cpu_s(daemon->pid()) - cpu0;
  run->rss_mb = peak_rss_mb(daemon->pid());
  run->events = tail.events();
  for (std::size_t t = 0; t < n; ++t) {
    outcome->count(expected[t], expected[t] - std::min(expected[t], tail.count(t)),
                   (*plans)[t].name + " verdict events readable");
  }
  outcome->check(tail.bad_lines() == 0, "journal lines parse");

  // Crash and recover: journals must come back byte-identical.
  for (const std::string& p : journal_paths) run->journals.push_back(read_file(p));
  const double kill_at = now_s();
  daemon->kill_now();
  int code = -1;
  if (!daemon->spawn(args.serve_bin, daemon_args(data_root, tenants), dir, 60.0,
                     &code)) {
    outcome->check(false, "daemon restart after SIGKILL");
    return;
  }
  run->recover_s = now_s() - kill_at;
  for (std::size_t t = 0; t < n; ++t) {
    const TenantPlan& plan = (*plans)[t];
    const HttpReply seq = http(daemon->port(), "GET", "/v1/seq/" + plan.name);
    unsigned long long recovered = 0;
    const bool ok = seq.ok && seq.status == 200 &&
                    json_uint(seq.body, "recovered_seq", &recovered) &&
                    recovered <= plan.seq_after.back();
    outcome->check(ok, plan.name + " recovered_seq within what was sent");
    if (!ok) continue;
    // The resume protocol: re-send every action past the WAL's end.
    for (std::size_t i = 0; i < plan.requests.size(); ++i) {
      if (plan.seq_after[i] <= recovered) continue;
      const std::uint64_t before = i == 0 ? 0 : plan.seq_after[i - 1];
      std::string_view body = plan.requests[i].body;
      for (std::uint64_t skip = recovered > before ? recovered - before : 0;
           skip > 0; --skip) {
        body.remove_prefix(body.find('\n') + 1);
      }
      const HttpReply r = http(
          daemon->port(), "POST",
          (plan.requests[i].change ? "/v1/changes/" : "/v1/ingest/") + plan.name,
          std::string(body));
      outcome->check(r.ok && r.status == 200, plan.name + " resume request");
    }
    http(daemon->port(), "GET", "/v1/report/" + plan.name);
  }
  for (std::size_t t = 0; t < n; ++t) {
    bool same = false;
    for (const double until = now_s() + 30.0; now_s() < until;) {
      if (read_file(journal_paths[t]) == run->journals[t]) {
        same = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    outcome->check(same, (*plans)[t].name +
                             " journal byte-identical after SIGKILL restart");
  }
  daemon->kill_now();
  run->ok = true;
}

/// Median over segments of the per-segment quantile `q` of the clients'
/// ingest latencies `field`, where segment k is requests [k*size,
/// (k+1)*size) of every client: a disturbance confined to a few segments (a
/// scheduling hiccup on a shared machine) moves the tail of those segments
/// only.
double segment_quantile(const std::vector<ClientStats>& clients,
                        std::vector<double> ClientStats::*field,
                        std::size_t size, double q) {
  std::vector<double> per_segment;
  for (std::size_t begin = 0;; begin += size) {
    std::vector<double> seg;
    for (const ClientStats& st : clients) {
      const std::vector<double>& ms = st.*field;
      for (std::size_t i = begin; i < std::min(begin + size, ms.size()); ++i) {
        seg.push_back(ms[i]);
      }
    }
    if (seg.empty()) break;
    per_segment.push_back(quantile(seg, q));
  }
  return median(per_segment);
}

void tally_clients(const std::vector<ClientStats>& clients, Outcome* outcome,
                   std::vector<double>* ingest_ms, std::vector<double>* late,
                   BudgetInput* budget) {
  for (const ClientStats& st : clients) {
    outcome->count(st.requests, st.bad_status, "HTTP 200");
    outcome->count(st.requests, st.seq_mismatch, "applied_seq alignment");
    outcome->count(st.side_requests, st.side_failed, "checkpoint/scrape/report");
    ingest_ms->insert(ingest_ms->end(), st.ingest_ms.begin(), st.ingest_ms.end());
    late->insert(late->end(), st.late_ms.begin(), st.late_ms.end());
    if (budget != nullptr) {
      budget->http_requests += st.requests;
      budget->http_503 += st.http_503;
      budget->http_refused += st.refused;
    }
  }
}

/// In-process topology, change log and store holding tenant `plan`'s week,
/// for the batch-layer probes.
struct LocalTenant {
  funnel::topology::ServiceTopology topo;
  funnel::changes::ChangeLog log;
  funnel::tsdb::MetricStore store{funnel::tsdb::StoreOptions{}};
};

/// `service_of(s)` names server s's service; a change's service is its
/// first treated server's.
std::unique_ptr<LocalTenant> load_local(
    const std::function<std::string(int)>& service_of, int servers,
    const std::vector<Request>& stream,
    const std::vector<std::pair<MinuteTime, std::vector<int>>>& changes) {
  auto local = std::make_unique<LocalTenant>();
  for (int s = 0; s < servers; ++s) {
    local->topo.add_server(service_of(s), server_name(s));
  }
  for_each_sample(stream, [&](funnel::tsdb::MetricId id, MinuteTime t,
                              double v) { local->store.append(id, t, v); });
  for (const auto& [time, treated] : changes) {
    funnel::changes::SoftwareChange ch;
    ch.service = service_of(treated[0]);
    ch.time = time;
    ch.mode = funnel::changes::LaunchMode::kDark;
    for (const int s : treated) ch.servers.push_back(server_name(s));
    ch.description = "chg";
    local->log.record(ch, local->topo);
  }
  return local;
}

funnel::core::FunnelConfig serve_config() {
  funnel::core::FunnelConfig cfg;
  cfg.horizon = kHorizon;
  cfg.lookback = kLookback;
  cfg.min_did_window = 9;
  return cfg;
}

}  // namespace

Result run_serve_week(const Args& args) {
  Result r;
  const std::string dir = args.work_dir + "/serve";
  fs::create_directories(dir);
  std::vector<TenantPlan> plans;
  // One generator thread per tenant, as many as the load has connections.
  const auto generate = [&] {
    plans.assign(kTenants, {});
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] { plans[t] = build_serve_plan(t, args.seed); });
    }
    for (std::thread& th : threads) th.join();
  };
  std::vector<std::string> tenants;
  for (int t = 0; t < kTenants; ++t) tenants.push_back("t" + std::to_string(t));
  // The open-loop schedule fills 80% of the run; the rest is drain,
  // crash-restart and checks.
  const double feed_s = 0.8 * args.seconds;

  const auto one_week = [&](Spans* spans, WeekRun* run,
                            std::vector<double>* setup) {
    Daemon daemon;
    std::string data_root;
    std::vector<double> local_setup;
    if (!setup_daemon(args, dir, tenants, generate, &daemon, &data_root,
                      setup != nullptr ? setup : &local_setup, &r.outcome)) {
      return false;
    }
    drive_week(args, dir, data_root, &plans, &daemon, feed_s, spans, run,
               &r.outcome);
    fs::remove_all(data_root);
    return run->ok;
  };

  std::vector<double> setup;
  WeekRun run;
  if (!one_week(nullptr, &run, &setup)) return r;

  std::vector<double> ingest_ms, late_ms;
  BudgetInput budget;
  tally_clients(run.clients, &r.outcome, &ingest_ms, &late_ms, &budget);

  // Verdicts against the injected-step plan.
  std::map<std::pair<int, std::uint64_t>, const ChangeTruth*> by_id;
  for (int t = 0; t < kTenants; ++t) {
    for (const ChangeTruth& c : plans[t].changes) by_id[{t, c.id}] = &c;
  }
  std::uint64_t tp = 0, fp = 0, fn = 0, stray = 0;
  std::set<std::tuple<int, std::uint64_t, std::string>> seen;
  std::vector<double> verdict_ms, delay_min, write_ms;
  for (const Event& e : run.events) {
    const auto it = by_id.find({e.tenant, e.ev.change_id});
    if (it == by_id.end() || !seen.insert({e.tenant, e.ev.change_id,
                                           e.ev.metric}).second) {
      ++stray;
      continue;
    }
    const ChangeTruth& c = *it->second;
    int k = -1;
    for (int i = 0; i < 3; ++i) {
      if (e.ev.kpi == kKpis[i].name) k = i;
    }
    bool treated = false;
    for (const int s : c.servers) {
      if (e.ev.metric == "server:" + server_name(s) + "/" + e.ev.kpi) {
        treated = true;
      }
    }
    if (k < 0 || !treated) {
      ++stray;
      continue;
    }
    const bool truth = c.stepped.count(k) > 0;
    const bool predicted = e.ev.cause == "software-change";
    if (predicted && truth) ++tp;
    if (predicted && !truth) ++fp;
    if (!predicted && truth) ++fn;
    if (e.ev.time_to_verdict) {
      delay_min.push_back(static_cast<double>(*e.ev.time_to_verdict));
    }
    if (e.ev.determined_at) {
      const double due =
          run.t0 + static_cast<double>(*e.ev.determined_at / kBatchMinutes) *
                       run.period_s;
      verdict_ms.push_back(1e3 * (e.readable_s - due));
    }
    // Online events reach the journal when their watch finalizes, on the
    // first sample at its deadline: time the journal write from there.
    const double closed = run.t0 + static_cast<double>(
                                       (c.time + kHorizon) / kBatchMinutes) *
                                       run.period_s;
    write_ms.push_back(1e3 * (e.readable_s - closed));
  }
  r.outcome.count(run.events.size(), stray,
                  "journal events name a registered change and treated KPI");
  const double precision =
      tp + fp == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall =
      tp + fn == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  r.outcome.check(precision >= 0.9, "causes consistent with plan: precision >= 0.9");
  r.outcome.check(recall >= 0.9, "causes consistent with plan: recall >= 0.9");
  r.outcome.check(!verdict_ms.empty(), "determined verdicts observed");

  if (!args.trace) {
    const double setup_s = median(setup);
    r.gated["setup_s"] = {setup_s, "s"};
    r.gated["peak_rss_mb"] = {run.rss_mb, "MB"};
    r.gated["work_s"] = {run.busy_s, "s"};
    r.gated["work_cpu_s"] = {run.cpu_s, "s"};
    // The gated latencies are the daemon's answer times; the latencies from
    // the scheduled send below add the generator's backlog behind a slow
    // answer.
    std::vector<double> answer_ms;
    for (const ClientStats& st : run.clients) {
      answer_ms.insert(answer_ms.end(), st.answer_ms.begin(), st.answer_ms.end());
    }
    r.gated["latency_p50_ms"] = {median(answer_ms), "ms"};
    r.gated["latency_tail_ms"] = {
        segment_quantile(run.clients, &ClientStats::answer_ms, kSlotsPerDay, 0.99),
        "ms"};

    r.detail["setup_s"] = {setup_s, "s"};
    r.detail["precision"] = {precision, "ratio"};
    r.detail["recall"] = {recall, "ratio"};
    r.detail["verdict_delay_min_p50"] = {median(delay_min), "data-min"};
    r.detail["verdict_delay_min_p99"] = {quantile(delay_min, 0.99), "data-min"};
    r.detail["verdict_p50_ms"] = {median(verdict_ms), "ms"};
    r.detail["verdict_p99_ms"] = {quantile(verdict_ms, 0.99), "ms"};
    r.detail["ingest_p50_ms"] = {median(ingest_ms), "ms"};
    r.detail["ingest_p99_ms"] = {quantile(ingest_ms, 0.99), "ms"};
    r.detail["recover_s"] = {run.recover_s, "s"};
    r.detail["peak_rss_mb"] = {run.rss_mb, "MB"};
    r.detail["gen.late_ms_p99"] = {quantile(late_ms, 0.99), "ms"};
    std::vector<double> checkpoint_ms, first_day_ms;
    for (const ClientStats& st : run.clients) {
      checkpoint_ms.insert(checkpoint_ms.end(), st.checkpoint_ms.begin(),
                           st.checkpoint_ms.end());
      first_day_ms.insert(
          first_day_ms.end(), st.ingest_ms.begin(),
          st.ingest_ms.begin() +
              static_cast<std::ptrdiff_t>(std::min(kSlotsPerDay, st.ingest_ms.size())));
    }
    // The daemon's warm-up: its per-tenant threads start with the first
    // watch, and the first data day has carried a slow second.
    r.detail["first_day_ingest_p99_ms"] = {quantile(first_day_ms, 0.99), "ms"};
    r.detail["makespan_s"] = {run.makespan_s, "s"};
    r.detail["verdict_write_p50_ms"] = {median(write_ms), "ms"};
    r.detail["verdict_write_p99_ms"] = {quantile(write_ms, 0.99), "ms"};
    r.detail["checkpoint_request_ms_p50"] = {median(checkpoint_ms), "ms"};
    r.detail["verdicts"] = {static_cast<double>(verdict_ms.size()), "count"};
    r.detail["ingest_requests"] = {static_cast<double>(ingest_ms.size()), "count"};
    return r;
  }

  // Traced run: the same week again with client spans on.
  WeekRun traced;
  if (!one_week(&r.spans, &traced, nullptr)) return r;
  {
    std::vector<double> traced_ms, traced_late;
    tally_clients(traced.clients, &r.outcome, &traced_ms, &traced_late, nullptr);
    budget.op_ms = median(ingest_ms);
    budget.traced_op_ms = median(traced_ms);
  }
  budget.busy_s = run.cpu_s;
  budget.late_ms_p99 = quantile(late_ms, 0.99);

  ServiceScene scene;
  scene.config = serve_config();
  scene.checkpoint_every = plans[0].slots / 4;
  for (const TenantPlan& p : plans) scene.tenants.push_back(p.requests);
  std::vector<std::pair<MinuteTime, std::vector<int>>> changes;
  for (const ChangeTruth& c : plans[0].changes) changes.push_back({c.time, c.servers});
  const auto local = load_local(service_name, kServeServers,
                                plans[0].requests, changes);
  const BatchScene batch{&local->topo, &local->log, &local->store, serve_config()};
  pool_probe(batch, &budget.pool_efficiency, &budget.pool_queue_wait_us);
  run_probes(batch, scene, budget, args.work_dir, &r.spans, &r.layers, &r.outcome);
  return r;
}

// ---------------------------------------------------------------------------
// ingest-flood

namespace {

constexpr int kFloodServers = 50;
constexpr int kFloodClients = 2;
constexpr MinuteTime kRoundMinutes = 200;

/// Each flood tenant's feed for minutes [start, start + minutes): one
/// minute-batch per request, 50 servers x 3 KPIs.
std::vector<std::vector<Request>> flood_feed(std::uint64_t seed,
                                             MinuteTime start,
                                             MinuteTime minutes) {
  std::vector<std::string> servers;
  for (int s = 0; s < kFloodServers; ++s) servers.push_back(server_name(s));
  std::vector<std::vector<Request>> feed(kFloodClients);
  // One generator thread per client.
  std::vector<std::thread> threads;
  for (int t = 0; t < kFloodClients; ++t) {
    threads.emplace_back([&, t] {
      auto gens = make_generators(mix_seed(seed, 300 + t), kFloodServers);
      for (MinuteTime m = start; m < start + minutes; ++m) {
        Request req;
        req.body.reserve(kFloodServers * 3 * 48);
        for (int s = 0; s < kFloodServers; ++s) {
          for (int k = 0; k < 3; ++k) {
            append_sample(&req.body, "bulk", servers[s], kKpis[k].name, m,
                          gens[3 * s + k]->sample(m));
            ++req.lines;
          }
        }
        feed[t].push_back(std::move(req));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  return feed;
}

}  // namespace

Result run_ingest_flood(const Args& args) {
  Result r;
  const std::string dir = args.work_dir + "/flood";
  fs::create_directories(dir);
  std::vector<std::string> tenants;
  for (int t = 0; t < kFloodClients; ++t) tenants.push_back("f" + std::to_string(t));
  // Fixed work per run, so memory and WAL volume do not depend on speed.
  const int rounds = std::max(2, static_cast<int>(std::lround(4.0 * args.seconds)));
  const MinuteTime minutes = rounds * kRoundMinutes;

  std::vector<double> setup;
  Daemon daemon;
  std::vector<std::vector<Request>> feed;
  std::string data_root;
  if (!setup_daemon(args, dir, tenants,
                    [&] { feed = flood_feed(args.seed, 0, minutes); }, &daemon,
                    &data_root, &setup, &r.outcome)) {
    return r;
  }

  struct FloodRun {
    std::vector<double> round_s;
    std::vector<double> round_cpu_s;
    std::uint64_t samples = 0;
    std::vector<ClientStats> clients;
  };
  // Rounds of kRoundMinutes batches per tenant, closed loop; `seq_base`
  // samples per tenant were sent before.
  const auto flood = [&](const std::vector<std::vector<Request>>& batches,
                         Spans* spans, FloodRun* run, std::uint64_t seq_base) {
    run->clients.assign(kFloodClients, {});
    std::vector<std::uint64_t> seq(kFloodClients, seq_base);
    std::mutex spans_mutex;
    std::barrier sync(kFloodClients + 1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kFloodClients; ++t) {
      threads.emplace_back([&, t] {
        ClientStats& st = run->clients[t];
        for (int round = 0; round < rounds; ++round) {
          sync.arrive_and_wait();  // round start
          double ready = now_s();
          for (MinuteTime m = 0; m < kRoundMinutes; ++m) {
            const Request& req = batches[t][round * kRoundMinutes + m];
            const double start = now_s();
            const HttpReply reply =
                http(daemon.port(), "POST", "/v1/ingest/" + tenants[t], req.body);
            const double end = now_s();
            if (spans != nullptr) {
              std::lock_guard<std::mutex> lock(spans_mutex);
              spans->add("e2e.ingest", Spans::kRoot, start, end);
            }
            note_reply(reply, start, end, &st);
            st.late_ms.push_back(1e3 * (start - ready));
            st.ingest_ms.push_back(1e3 * (end - start));
            seq[t] += req.lines;
            unsigned long long applied = 0;
            if (!json_uint(reply.body, "applied_seq", &applied) ||
                applied != seq[t]) {
              ++st.seq_mismatch;
            }
            ready = end;
          }
          sync.arrive_and_wait();  // round end
        }
      });
    }
    for (int round = 0; round < rounds; ++round) {
      const double cpu0 = pid_cpu_s(daemon.pid());
      const double round_start = now_s();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      run->round_s.push_back(now_s() - round_start);
      run->round_cpu_s.push_back(pid_cpu_s(daemon.pid()) - cpu0);
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kFloodClients; ++t) run->samples += seq[t] - seq_base;
  };

  FloodRun run;
  flood(feed, nullptr, &run, 0);
  std::vector<double> ingest_ms, late_ms;
  BudgetInput budget;
  tally_clients(run.clients, &r.outcome, &ingest_ms, &late_ms, &budget);
  const double rss = peak_rss_mb(daemon.pid());
  // Every sample sent was accepted and is in the WAL sequence.
  for (int t = 0; t < kFloodClients; ++t) {
    std::uint64_t sent = 0;
    for (const Request& req : feed[t]) sent += req.lines;
    const HttpReply st = http(daemon.port(), "GET", "/v1/status/" + tenants[t]);
    unsigned long long accepted = 0, applied = 0;
    r.outcome.check(st.ok && st.status == 200 &&
                        json_uint(st.body, "accepted_samples", &accepted) &&
                        json_uint(st.body, "applied_seq", &applied) &&
                        accepted == sent && applied == sent,
                    tenants[t] + " status accepted_samples == applied_seq == sent");
  }
  const double per_round_samples =
      static_cast<double>(run.samples) / static_cast<double>(rounds);

  if (!args.trace) {
    daemon.kill_now();
    fs::remove_all(data_root);
    const double setup_s = median(setup);
    r.gated["setup_s"] = {setup_s, "s"};
    r.gated["peak_rss_mb"] = {rss, "MB"};
    r.gated["work_s"] = {median(run.round_s), "s"};
    r.gated["work_cpu_s"] = {median(run.round_cpu_s), "s"};
    r.gated["latency_p50_ms"] = {median(ingest_ms), "ms"};
    r.gated["latency_tail_ms"] = {
        segment_quantile(run.clients, &ClientStats::ingest_ms, kRoundMinutes, 0.90),
        "ms"};

    r.detail["setup_s"] = {setup_s, "s"};
    r.detail["ingest_p50_ms"] = {median(ingest_ms), "ms"};
    r.detail["ingest_p99_ms"] = {quantile(ingest_ms, 0.99), "ms"};
    r.detail["ingest_samples_per_s"] = {
        per_round_samples / median(run.round_s), "1/s"};
    r.detail["peak_rss_mb"] = {rss, "MB"};
    r.detail["gen.late_ms_p99"] = {quantile(late_ms, 0.99), "ms"};
    r.detail["ingest_requests"] = {static_cast<double>(ingest_ms.size()), "count"};
    return r;
  }

  // Traced run: one more pass of the same rounds with client spans on, on
  // top of the data already ingested (the sequence continues).
  FloodRun traced;
  flood(flood_feed(args.seed, minutes, minutes), &r.spans, &traced,
        run.samples / kFloodClients);
  daemon.kill_now();
  fs::remove_all(data_root);
  {
    std::vector<double> traced_ms, traced_late;
    tally_clients(traced.clients, &r.outcome, &traced_ms, &traced_late, nullptr);
    budget.op_ms = median(ingest_ms);
    budget.traced_op_ms = median(traced_ms);
  }
  budget.busy_s = std::accumulate(run.round_cpu_s.begin(), run.round_cpu_s.end(), 0.0);
  budget.late_ms_p99 = quantile(late_ms, 0.99);

  ServiceScene scene;
  scene.config = serve_config();
  scene.checkpoint_every = 0;
  // The flood registers no change; the registration, journal and batch
  // probes get four dark launches near the end of tenant f0's feed, so a
  // watch primes over one lookback of history as it would live.
  std::vector<std::pair<MinuteTime, std::vector<int>>> changes;
  for (int i = 0; i < 4; ++i) {
    const MinuteTime tc = minutes - 30 - 5 * i;
    changes.push_back({tc, {2 * i, 2 * i + 1}});
    scene.probe_changes += std::to_string(tc) + ",bulk,dark," +
                           server_name(2 * i) + ';' + server_name(2 * i + 1) +
                           ",probe-" + std::to_string(i) + '\n';
  }
  const auto local = load_local([](int) { return std::string("bulk"); },
                                kFloodServers, feed[0], changes);
  scene.tenants = std::move(feed);
  const BatchScene batch{&local->topo, &local->log, &local->store, serve_config()};
  pool_probe(batch, &budget.pool_efficiency, &budget.pool_queue_wait_us);
  run_probes(batch, scene, budget, args.work_dir, &r.spans, &r.layers, &r.outcome);
  return r;
}

}  // namespace perfbench
