// Per-layer probes: each layer's public functions called from outside,
// over the workload's own inputs, with a span around every call. A layer's
// self time is its span time minus the time of its child calls, which are
// timed by calling the child layer's functions on the same inputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>

#include "common/thread_pool.h"
#include "detect/ika_sst.h"
#include "detect/sliding.h"
#include "did/groups.h"
#include "funnel/assessor.h"
#include "funnel/impact_set.h"
#include "http.h"
#include "obs/journal.h"
#include "obs/registry.h"
#include "service/service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = funnel::core;
using funnel::MinuteTime;

double us(double s) { return 1e6 * s; }

double per(double total, double n) { return n > 0.0 ? total / n : 0.0; }

funnel::MinuteTime window_end(const funnel::changes::ChangeLog& log) {
  MinuteTime t_end = 0;
  for (const auto& ch : log.all()) t_end = std::max(t_end, ch.time + 1);
  return t_end;
}

struct BatchTotals {
  double impact_s = 0.0;
  double read_s = 0.0;
  double detect_s = 0.0;
  double did_s = 0.0;
  double assess_self_s = 0.0;
  std::vector<double> assess_us;
  std::uint64_t changes = 0;
  std::uint64_t kpis = 0;
  std::uint64_t windows = 0;
  std::uint64_t alarms = 0;
  std::uint64_t did_spans = 0;
  std::uint64_t fits = 0;      ///< verdicts whose determination ran DiD
  std::uint64_t confirmed = 0;  ///< ... and attributed to the change
};

/// The Fig. 3 flow per change and KPI: identify_impact_set, then
/// Funnel::assess_metric per KPI, with its children — the store read, a
/// fresh IkaSst + OnlineDetector over the same window and the DiD fit —
/// called again on their own and recorded as the KPI span's children.
BatchTotals batch_probes(const BatchScene& scene, Spans* spans) {
  BatchTotals t;
  core::FunnelConfig cfg = scene.config;
  cfg.num_threads = 1;  // one caller: spans time exactly one call each
  const core::Funnel funnel(cfg, *scene.topo, *scene.log, *scene.store);
  for (const funnel::changes::ChangeId id :
       scene.log->in_window(0, window_end(*scene.log))) {
    const funnel::changes::SoftwareChange& change = scene.log->get(id);
    const double i0 = now_s();
    const core::ImpactSet set = core::identify_impact_set(change, *scene.topo);
    const std::vector<funnel::tsdb::MetricId> metrics =
        core::impact_metrics(set, *scene.store);
    const double i1 = now_s();
    spans->add("funnel.impact_set", Spans::kRoot, i0, i1);
    t.impact_s += i1 - i0;
    ++t.changes;
    for (const funnel::tsdb::MetricId& metric : metrics) {
      const double a0 = now_s();
      const core::ItemVerdict verdict =
          funnel.assess_metric(change, set, metric);
      const double a1 = now_s();
      const Spans::Id parent = spans->add("funnel.assess", Spans::kRoot, a0, a1);
      t.assess_us.push_back(us(a1 - a0));
      ++t.kpis;
      double children = 0.0;

      const double r0 = now_s();
      MinuteTime w0 = 0;
      std::vector<double> slice;
      scene.store->read(metric, [&](const funnel::tsdb::TimeSeries& s) {
        w0 = std::max(s.start_time(), change.time - cfg.lookback);
        const MinuteTime w1 = std::min(s.end_time(), change.time + cfg.horizon);
        if (w1 > w0) slice = s.slice(w0, w1);
      });
      const double r1 = now_s();
      spans->add("tsdb.read", parent, r0, r1);
      t.read_s += r1 - r0;
      children += r1 - r0;

      const double d0 = now_s();
      funnel::detect::IkaSst scorer(cfg.geometry, core::sst_params(cfg));
      funnel::detect::OnlineDetector detector(scorer, cfg.alarm, w0);
      // Like the assessor, only the first alarm at/after the change counts.
      bool alarmed = false;
      for (const double v : slice) {
        if (const auto alarm = detector.push(v)) {
          alarmed = alarmed || alarm->minute >= change.time;
          detector.rearm();
        }
      }
      if (alarmed) ++t.alarms;
      const double d1 = now_s();
      spans->add("detect", parent, d0, d1);
      t.detect_s += d1 - d0;
      children += d1 - d0;
      if (slice.size() >= scorer.window_size()) {
        t.windows += slice.size() - scorer.window_size() + 1;
      }

      // The DiD fit, timed on every KPI so its cost is measured on every
      // workload; only the fits the verdict itself ran are children.
      const double f0 = now_s();
      const std::size_t omega = static_cast<std::size_t>(cfg.did_window);
      bool historical = core::is_affected_service_metric(set, metric) ||
                        !set.dark_launched;
      funnel::did::DiDOutcome outcome;
      if (!historical) {
        outcome = funnel::did::did_dark_launch(
            *scene.store, core::treated_group_for(set, metric),
            core::control_group_for(set, metric), change.time, omega);
        historical =
            outcome.status == funnel::did::DiDStatus::kEmptyControlGroup;
      }
      if (historical) {
        outcome = scene.store->read(metric, [&](const funnel::tsdb::TimeSeries& s) {
          return funnel::did::did_historical(s, change.time, omega,
                                             cfg.baseline_days,
                                             cfg.quality.historical_quorum);
        });
      }
      const double f1 = now_s();
      const bool ran = verdict.did_fit.has_value();
      spans->add("did", ran ? parent : Spans::kRoot, f0, f1);
      t.did_s += f1 - f0;
      ++t.did_spans;
      if (ran) {
        children += f1 - f0;
        ++t.fits;
        if (verdict.caused_by_software_change()) ++t.confirmed;
      }
      t.assess_self_s += (a1 - a0) - children;
    }
  }
  return t;
}

struct ServiceTotals {
  double admit_s = 0.0;
  double ingest_s = 0.0;
  double drain_s = 0.0;
  double register_s = 0.0;
  double report_s = 0.0;
  double checkpoint_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t samples = 0;
  std::uint64_t drains = 0;
  std::uint64_t change_lines = 0;
  std::uint64_t reports = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t queue_depth_max = 0;
  std::uint64_t watches_peak = 0;
  std::uint64_t journal_events = 0;
  std::uint64_t journal_bytes = 0;
  /// Work the workload itself does not do: the probe-change registration
  /// and the final checkpoint.
  double probe_only_s = 0.0;
  double budget_s = 0.0;  ///< span time of the replay proper
  std::vector<double> tenant0_request_s;  ///< admit+ingest / register
};

funnel::service::TenantOptions tenant_options(const ServiceScene& scene,
                                              const std::string& name,
                                              const std::string& data_dir) {
  // funnel_serve's defaults: 2 shards, a 256-deep ingest queue.
  funnel::service::TenantOptions o;
  o.name = name;
  o.num_shards = 2;
  o.ingest_queue_capacity = 256;
  o.data_dir = data_dir;
  o.funnel = scene.config;
  return o;
}

/// Every tenant's request stream through an in-process Tenant configured
/// like the daemon's, with a drain barrier after each ingest batch.
ServiceTotals service_probes(const ServiceScene& scene, const std::string& dir,
                             Spans* spans, Outcome* outcome) {
  ServiceTotals t;
  const funnel::obs::Registry stats;
  for (std::size_t i = 0; i < scene.tenants.size(); ++i) {
    const std::string tdir = dir + "/tenant" + std::to_string(i);
    fs::remove_all(tdir);
    std::string name = "p";
    name += std::to_string(i);
    funnel::service::Tenant tenant(tenant_options(scene, name, tdir), &stats);
    std::lock_guard<std::mutex> lock(tenant.mutex());
    std::size_t ingests = 0;
    const double clock0 = now_s();
    for (const Request& req : scene.tenants[i]) {
      ++t.requests;
      if (req.change) {
        const double r0 = now_s();
        std::size_t malformed = 0;
        tenant.register_changes(req.body, &malformed);
        const double r1 = now_s();
        spans->add("service.register", Spans::kRoot, r0, r1);
        t.register_s += r1 - r0;
        t.change_lines += req.lines;
        outcome->check(malformed == 0, "probe change registration");
        if (i == 0) t.tenant0_request_s.push_back(r1 - r0);
        t.watches_peak = std::max<std::uint64_t>(t.watches_peak,
                                                 tenant.active_watches());
        continue;
      }
      double retry = 0.0;
      const double a0 = now_s();
      const bool admitted = tenant.admit(req.lines, a0 - clock0, &retry);
      const double a1 = now_s();
      const funnel::service::IngestResult res = tenant.ingest(req.body);
      const double i1 = now_s();
      t.queue_depth_max = std::max<std::uint64_t>(
          t.queue_depth_max, tenant.store().queue_depth());
      tenant.store().flush();
      const double f1 = now_s();
      const Spans::Id sid = spans->add("service", Spans::kRoot, a0, i1);
      spans->add("service.admit", sid, a0, a1);
      spans->add("tsdb.dispatch", Spans::kRoot, i1, f1);
      outcome->check(admitted && res.accepted == req.lines,
                     "probe ingest accepted");
      t.admit_s += a1 - a0;
      t.ingest_s += i1 - a1;
      t.drain_s += f1 - i1;
      t.samples += res.accepted;
      ++t.drains;
      if (i == 0) t.tenant0_request_s.push_back(i1 - a0);
      if (scene.checkpoint_every > 0 && ++ingests % scene.checkpoint_every == 0) {
        const double c0 = now_s();
        tenant.checkpoint();
        const double c1 = now_s();
        spans->add("persist.checkpoint", Spans::kRoot, c0, c1);
        t.checkpoint_s += c1 - c0;
        ++t.checkpoints;
      }
    }
    const double p0 = now_s();
    tenant.report_json();
    const double p1 = now_s();
    spans->add("service.report", Spans::kRoot, p0, p1);
    t.report_s += p1 - p0;
    ++t.reports;
    if (!scene.probe_changes.empty() && i == 0) {
      const double r0 = now_s();
      tenant.register_changes(scene.probe_changes);
      const double r1 = now_s();
      spans->add("service.register", Spans::kRoot, r0, r1);
      t.register_s += r1 - r0;
      t.probe_only_s += r1 - r0;
      t.change_lines += static_cast<std::uint64_t>(
          std::count(scene.probe_changes.begin(), scene.probe_changes.end(), '\n'));
      t.watches_peak = std::max<std::uint64_t>(t.watches_peak,
                                               tenant.active_watches());
    }
    // A final checkpoint flushes the journal and gives every workload at
    // least one checkpoint timing.
    const double c0 = now_s();
    tenant.checkpoint();
    const double c1 = now_s();
    spans->add("persist.checkpoint", Spans::kRoot, c0, c1);
    t.checkpoint_s += c1 - c0;
    t.probe_only_s += c1 - c0;
    ++t.checkpoints;
    std::size_t bad = 0;
    t.journal_events += funnel::obs::read_journal(tenant.journal_path(), &bad).size();
    outcome->check(bad == 0, "probe journal parses");
    std::error_code ec;
    const auto size = fs::file_size(tenant.journal_path(), ec);
    t.journal_bytes += ec ? 0 : size;
  }
  t.budget_s = t.admit_s + t.ingest_s + t.drain_s + t.register_s +
               t.report_s + t.checkpoint_s - t.probe_only_s;
  return t;
}

struct RecoveryTotals {
  double store_open_s = 0.0;
  double tenant_open_s = 0.0;
  double repair_s = 0.0;
};

/// Re-open tenant 0's checkpointed directory three ways: the bare store,
/// the journal repair, and the whole Tenant (store + meta replay + journal
/// repair + FunnelOnline::restore_state + tail replay).
RecoveryTotals recovery_probes(const ServiceScene& scene, const std::string& dir,
                               Spans* spans) {
  RecoveryTotals t;
  const std::string src = dir + "/tenant0";
  const std::string a = dir + "/recover-store";
  const std::string b = dir + "/recover-tenant";
  const std::string j = dir + "/recover-journal.jsonl";
  for (const std::string& p : {a, b}) {
    fs::remove_all(p);
    fs::copy(src, p, fs::copy_options::recursive);
  }
  fs::copy_file(src + "/journal.jsonl", j, fs::copy_options::overwrite_existing);
  const std::uint64_t events = funnel::obs::read_journal(j).size();
  {
    funnel::tsdb::StoreOptions o;
    o.num_shards = 2;
    o.data_dir = a;
    o.hand_off_tail = true;
    const double s0 = now_s();
    const funnel::tsdb::MetricStore store(o);
    const double s1 = now_s();
    spans->add("persist.open", Spans::kRoot, s0, s1);
    t.store_open_s = s1 - s0;
  }
  {
    const double r0 = now_s();
    funnel::obs::repair_journal(j, events);
    const double r1 = now_s();
    spans->add("obs.journal.repair", Spans::kRoot, r0, r1);
    t.repair_s = r1 - r0;
  }
  {
    const double o0 = now_s();
    const funnel::service::Tenant tenant(tenant_options(scene, "p0", b));
    const double o1 = now_s();
    spans->add("service.recover", Spans::kRoot, o0, o1);
    t.tenant_open_s = o1 - o0;
  }
  fs::remove_all(a);
  fs::remove_all(b);
  fs::remove(j);
  return t;
}

struct StoreTotals {
  double append_us = 0.0;       ///< per sample, no data_dir
  double wal_us = 0.0;          ///< per sample, with minus without
  double wal_bytes = 0.0;       ///< per sample
  double wal_flush_us = 0.0;    ///< per wal_flush()
  double recover_ms = 0.0;
  std::uint64_t replayed = 0;
};

/// Standalone MetricStore appends of tenant 0's samples, without and with
/// a data_dir, then a simulated kill and a recovery over the crashed dir.
StoreTotals store_probes(const ServiceScene& scene, const std::string& dir,
                         Spans* spans) {
  struct Sample {
    funnel::tsdb::MetricId id;
    MinuteTime t;
    double v;
  };
  std::vector<Sample> samples;
  for_each_sample(scene.tenants[0],
                  [&](funnel::tsdb::MetricId id, MinuteTime t, double v) {
                    samples.push_back({std::move(id), t, v});
                  });
  StoreTotals t;
  const double n = static_cast<double>(std::max<std::size_t>(1, samples.size()));
  funnel::tsdb::StoreOptions o;
  o.num_shards = 2;
  double plain_s = 0.0;
  {
    funnel::tsdb::MetricStore store(o);
    const double a0 = now_s();
    for (const Sample& s : samples) store.append(s.id, s.t, s.v);
    const double a1 = now_s();
    spans->add("tsdb.append", Spans::kRoot, a0, a1);
    plain_s = a1 - a0;
  }
  const std::string wal_dir = dir + "/wal";
  fs::remove_all(wal_dir);
  o.data_dir = wal_dir;
  constexpr std::size_t kFlushEvery = 4096;
  {
    funnel::tsdb::MetricStore store(o);
    double flush_s = 0.0;
    std::uint64_t flushes = 0;
    const double a0 = now_s();
    for (std::size_t i = 0; i < samples.size(); ++i) {
      store.append(samples[i].id, samples[i].t, samples[i].v);
      if ((i + 1) % kFlushEvery == 0 || i + 1 == samples.size()) {
        const double w0 = now_s();
        store.wal_flush();
        const double w1 = now_s();
        spans->add("persist.wal_flush", Spans::kRoot, w0, w1);
        flush_s += w1 - w0;
        ++flushes;
      }
    }
    const double a1 = now_s();
    spans->add("persist.append", Spans::kRoot, a0, a1);
    t.wal_us = us(((a1 - a0) - plain_s) / n);
    t.wal_flush_us = us(per(flush_s, static_cast<double>(flushes)));
    t.wal_bytes = per(static_cast<double>(store.wal_bytes_written()),
                      static_cast<double>(store.wal_records_written()));
    store.crash_for_testing();
  }
  t.append_us = us(plain_s / n);
  {
    const double r0 = now_s();
    const funnel::tsdb::MetricStore store(o);
    const double r1 = now_s();
    spans->add("persist.recover", Spans::kRoot, r0, r1);
    t.recover_ms = 1e3 * (r1 - r0);
    t.replayed = store.recovered_seq();
  }
  fs::remove_all(wal_dir);
  return t;
}

struct HttpTotals {
  double rtt_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t shed_503 = 0;
  std::uint64_t refused = 0;
};

/// Tenant 0's request stream over loopback HTTP into an in-process
/// FunnelService configured like funnel_serve.
HttpTotals http_probe(const ServiceScene& scene, const std::string& dir,
                      Spans* spans, Outcome* outcome) {
  HttpTotals t;
  const std::string root = dir + "/http";
  fs::remove_all(root);
  fs::create_directories(root);
  const funnel::obs::Registry stats;
  funnel::service::ServiceOptions so;
  so.data_root = root;
  so.stats = &stats;
  so.tenant_defaults = tenant_options(scene, "", "");
  funnel::service::FunnelService service(std::move(so));
  service.add_tenant("h");
  std::string error;
  if (!service.start(&error)) {
    outcome->check(false, "in-process HTTP service start: " + error);
    return t;
  }
  for (const Request& req : scene.tenants[0]) {
    const double h0 = now_s();
    const HttpReply reply =
        http(service.port(), "POST",
             std::string(req.change ? "/v1/changes/" : "/v1/ingest/") + "h",
             req.body);
    const double h1 = now_s();
    spans->add("obs.http", Spans::kRoot, h0, h1);
    t.rtt_s += h1 - h0;
    ++t.requests;
    if (reply.status == 503) ++t.shed_503;
    if (reply.status == 503 || reply.status == 429) ++t.refused;
    outcome->check(reply.ok && reply.status == 200, "probe HTTP request");
  }
  service.stop();
  fs::remove_all(root);
  return t;
}

}  // namespace

void for_each_sample(
    const std::vector<Request>& stream,
    const std::function<void(funnel::tsdb::MetricId, MinuteTime, double)>& fn) {
  for (const Request& req : stream) {
    if (req.change) continue;
    std::size_t start = 0;
    while (start < req.body.size()) {
      const std::size_t nl = req.body.find('\n', start);
      const std::string line = req.body.substr(start, nl - start);
      start = nl + 1;
      const std::size_t c1 = line.find(',');
      const std::size_t c2 = line.find(',', c1 + 1);
      const std::size_t c3 = line.find(',', c2 + 1);
      const std::size_t c4 = line.find(',', c3 + 1);
      fn(funnel::tsdb::server_metric(line.substr(c1 + 1, c2 - c1 - 1),
                                     line.substr(c2 + 1, c3 - c2 - 1)),
         std::atoll(line.c_str() + c3 + 1), std::atof(line.c_str() + c4 + 1));
    }
  }
}

void pool_probe(const BatchScene& batch, double* efficiency,
                double* queue_wait_us) {
  const funnel::obs::Registry stats;
  core::FunnelConfig cfg = batch.config;
  cfg.stats = &stats;
  const core::Funnel funnel(cfg, *batch.topo, *batch.log, *batch.store);
  const double c0 = self_cpu_s();
  const double w0 = now_s();
  funnel.assess_window(0, window_end(*batch.log));
  const double wall = now_s() - w0;
  const double cpu = self_cpu_s() - c0;
  const double workers =
      static_cast<double>(funnel::ThreadPool::resolve_threads(cfg.num_threads));
  *efficiency = per(cpu, wall * workers);
  const funnel::obs::Snapshot snap = stats.snapshot();
  const auto it = snap.histograms.find("pool.queue_wait_us");
  *queue_wait_us = it == snap.histograms.end() ? 0.0 : it->second.mean();
}

void run_probes(const BatchScene& batch, const ServiceScene& service,
                const BudgetInput& budget, const std::string& work_dir,
                Spans* spans, Metrics* out, Outcome* outcome) {
  const std::string dir = work_dir + "/probe";
  fs::create_directories(dir);
  const BatchTotals b = batch_probes(batch, spans);
  const ServiceTotals s = service_probes(service, dir, spans, outcome);
  const RecoveryTotals rec = recovery_probes(service, dir, spans);
  const StoreTotals st = store_probes(service, dir, spans);
  const HttpTotals h = http_probe(service, dir, spans, outcome);
  fs::remove_all(dir);

  Metrics& m = *out;
  // HTTP round trip minus in-process Tenant time for the same bodies.
  const double http_overhead_s =
      per(h.rtt_s, static_cast<double>(h.requests)) - mean(s.tenant0_request_s);
  m["obs.http.us_per_request"] = {us(http_overhead_s), "us"};
  m["obs.http.shed_503"] = {static_cast<double>(h.shed_503 + budget.http_503),
                            "count"};
  m["service.admit_us"] = {us(per(s.admit_s, static_cast<double>(s.drains))),
                           "us"};
  m["service.ingest_us_per_sample"] = {
      us(per(s.ingest_s, static_cast<double>(s.samples))), "us"};
  m["service.register_us_per_change"] = {
      us(per(s.register_s, static_cast<double>(s.change_lines))), "us"};
  m["service.report_us"] = {us(per(s.report_s, static_cast<double>(s.reports))),
                            "us"};
  m["service.refused_frac"] = {
      per(static_cast<double>(h.refused + budget.http_refused),
          static_cast<double>(h.requests + budget.http_requests)),
      "ratio"};
  m["tsdb.append_us_per_sample"] = {st.append_us, "us"};
  m["tsdb.flush_us"] = {us(per(s.drain_s, static_cast<double>(s.drains))), "us"};
  m["tsdb.queue_depth_max"] = {static_cast<double>(s.queue_depth_max), "count"};
  m["tsdb.read_us_per_kpi"] = {us(per(b.read_s, static_cast<double>(b.kpis))),
                               "us"};
  m["persist.wal_us_per_sample"] = {st.wal_us, "us"};
  m["persist.wal_bytes_per_sample"] = {st.wal_bytes, "bytes"};
  m["persist.wal_flush_us"] = {st.wal_flush_us, "us"};
  m["persist.checkpoint_ms"] = {
      1e3 * per(s.checkpoint_s, static_cast<double>(s.checkpoints)), "ms"};
  m["persist.recover_ms"] = {st.recover_ms, "ms"};
  m["persist.wal_records_replayed"] = {static_cast<double>(st.replayed), "count"};
  m["funnel.impact_set.us_per_change"] = {
      us(per(b.impact_s, static_cast<double>(b.changes))), "us"};
  m["funnel.assess.us_per_kpi_p50"] = {median(b.assess_us), "us"};
  m["funnel.assess.us_per_kpi_p99"] = {quantile(b.assess_us, 0.99), "us"};
  m["funnel.assess.self_us_per_kpi"] = {
      us(per(b.assess_self_s, static_cast<double>(b.kpis))), "us"};
  m["funnel.online.us_per_sample"] = {
      us(per(s.drain_s, static_cast<double>(s.samples))), "us"};
  m["funnel.online.watches_peak"] = {static_cast<double>(s.watches_peak), "count"};
  m["funnel.online.restore_ms"] = {
      1e3 * (rec.tenant_open_s - rec.store_open_s - rec.repair_s), "ms"};
  m["detect.us_per_window"] = {
      us(per(b.detect_s, static_cast<double>(b.windows))), "us"};
  m["detect.windows"] = {static_cast<double>(b.windows), "count"};
  m["detect.alarms"] = {static_cast<double>(b.alarms), "count"};
  m["did.us_per_fit"] = {us(per(b.did_s, static_cast<double>(b.did_spans))), "us"};
  m["did.fits"] = {static_cast<double>(b.fits), "count"};
  m["did.confirm_frac"] = {
      per(static_cast<double>(b.confirmed), static_cast<double>(b.fits)), "ratio"};
  m["obs.journal.events"] = {static_cast<double>(s.journal_events), "count"};
  m["obs.journal.bytes_per_event"] = {
      per(static_cast<double>(s.journal_bytes),
          static_cast<double>(s.journal_events)),
      "bytes"};
  m["obs.journal.repair_ms"] = {1e3 * rec.repair_s, "ms"};
  m["common.pool.efficiency"] = {budget.pool_efficiency, "ratio"};
  m["common.pool.queue_wait_us"] = {budget.pool_queue_wait_us, "us"};

  // The budget: busy time of the process under test in the untraced unit
  // against the summed layer time of the same work replayed from outside.
  const double layers_s =
      budget.batch_unit
          ? b.impact_s + std::accumulate(b.assess_us.begin(), b.assess_us.end(),
                                         0.0) * 1e-6
          : s.budget_s + http_overhead_s *
                             static_cast<double>(budget.http_requests);
  m["layers.unaccounted_frac"] = {
      per(budget.busy_s - layers_s, budget.busy_s), "ratio"};
  m["trace.overhead_frac"] = {
      per(budget.traced_op_ms - budget.op_ms, budget.op_ms), "ratio"};
  m["gen.late_ms_p99"] = {budget.late_ms_p99, "ms"};
}

}  // namespace perfbench
