// assess-week: the Table 3 deployment period reviewed in process.
//
// evalkit::build_dataset with the Table 3 parameters (19 services, 140
// changes, 627 KPIs, 31 days of history) and the shipped FunnelConfig with
// the production DiD threshold 1.0. The measured unit is one
// Funnel::assess_window pass over every change on the default thread
// count; a per-change Funnel::assess pass gives the report latency a user
// waits for when reviewing one change. No HTTP, WAL or journal is involved.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/thread_pool.h"
#include "evalkit/dataset.h"
#include "funnel/assessor.h"
#include "workloads.h"

namespace perfbench {
namespace {

using funnel::MinuteTime;
namespace core = funnel::core;
namespace evalkit = funnel::evalkit;

evalkit::DatasetParams table3_params(std::uint64_t seed) {
  evalkit::DatasetParams p;
  p.seed = mix_seed(seed, 3);
  p.services = 19;
  p.servers_per_service = 6;
  p.treated_servers = 2;
  p.positive_changes = 16;
  p.negative_changes = 124;
  p.history_days = 31;
  p.confounder_probability = 0.3;
  return p;
}

/// The verdict causes of a report, in item order — what two assessments
/// of the same change must agree on.
std::vector<int> causes_of(const core::AssessmentReport& r) {
  std::vector<int> out;
  out.reserve(r.items.size());
  for (const core::ItemVerdict& v : r.items) {
    out.push_back(static_cast<int>(v.cause));
  }
  return out;
}

/// The dataset's server KPIs on the change day (plus one lookback of
/// history) as the request stream a tenant would receive, with every
/// change registered just before the batch carrying its minute.
ServiceScene service_scene(const evalkit::EvalDataset& ds,
                           const core::FunnelConfig& cfg) {
  constexpr MinuteTime kBatchMinutes = 5;
  ServiceScene scene;
  scene.config = cfg;
  scene.checkpoint_every = 64;
  std::vector<funnel::tsdb::MetricId> servers;
  for (const funnel::tsdb::MetricId& id : ds.store.metrics()) {
    if (id.kind == funnel::tsdb::EntityKind::kServer) servers.push_back(id);
  }
  MinuteTime end = 0;
  for (const auto& id : servers) {
    end = std::max(end, ds.store.series(id).end_time());
  }
  const MinuteTime begin = ds.change_day_start - cfg.lookback;
  std::map<MinuteTime, std::vector<const funnel::changes::SoftwareChange*>>
      by_batch;
  for (const funnel::changes::SoftwareChange& ch : ds.log.all()) {
    by_batch[begin + (ch.time - begin) / kBatchMinutes * kBatchMinutes]
        .push_back(&ch);
  }
  std::vector<Request> stream;
  char line[256];
  for (MinuteTime t0 = begin; t0 < end; t0 += kBatchMinutes) {
    if (const auto it = by_batch.find(t0); it != by_batch.end()) {
      Request req;
      req.change = true;
      for (const funnel::changes::SoftwareChange* ch : it->second) {
        std::string joined;
        for (const std::string& s : ch->servers) {
          joined += (joined.empty() ? "" : ";") + s;
        }
        req.body += std::to_string(ch->time) + ',' + ch->service + ',' +
                    (ch->dark_launched() ? "dark" : "full") + ',' + joined +
                    ",chg-" + std::to_string(ch->id) + '\n';
        ++req.lines;
      }
      stream.push_back(std::move(req));
    }
    Request req;
    for (MinuteTime t = t0; t < std::min(end, t0 + kBatchMinutes); ++t) {
      for (const funnel::tsdb::MetricId& id : servers) {
        const funnel::tsdb::TimeSeries& s = ds.store.series(id);
        if (!s.contains(t)) continue;
        std::snprintf(line, sizeof(line), "%s,%s,%s,%lld,%.6f\n",
                      ds.topo.service_of_server(id.entity).c_str(),
                      id.entity.c_str(), id.kpi.c_str(),
                      static_cast<long long>(t), s.at(t));
        req.body += line;
        ++req.lines;
      }
    }
    stream.push_back(std::move(req));
  }
  scene.tenants.push_back(std::move(stream));
  return scene;
}

}  // namespace

Result run_assess_week(const Args& args) {
  Result r;
  const evalkit::DatasetParams params = table3_params(args.seed);

  // Set-up: generate the period five times and report the median.
  std::vector<double> setup;
  std::unique_ptr<evalkit::EvalDataset> ds;
  for (int i = 0; i < 5; ++i) {
    ds.reset();
    const double t0 = now_s();
    ds = evalkit::build_dataset(params);
    setup.push_back(now_s() - t0);
  }

  core::FunnelConfig cfg;  // shipped defaults
  cfg.did.alpha_threshold = 1.0;  // Table 3 deployment threshold
  const core::Funnel funnel(cfg, ds->topo, ds->log, ds->store);
  const std::size_t workers =
      funnel::ThreadPool::resolve_threads(cfg.num_threads);
  MinuteTime t_end = 0;
  for (const auto& ch : ds->log.all()) t_end = std::max(t_end, ch.time + 1);
  const std::vector<funnel::changes::ChangeId> ids =
      ds->log.in_window(0, t_end);

  // Warm-up pass; its reports are the reference every later pass must
  // reproduce exactly.
  const std::vector<core::AssessmentReport> reference =
      funnel.assess_window(0, t_end);
  r.outcome.check(reference.size() == ds->log.size(),
                  "assess_window returned a report per change");
  std::map<funnel::changes::ChangeId, std::vector<int>> ref_causes;
  for (const core::AssessmentReport& rep : reference) {
    ref_causes[rep.change_id] = causes_of(rep);
  }

  // Precision/recall recomputed from the evalkit ground truth.
  std::map<std::pair<funnel::changes::ChangeId, std::string>, bool> truth;
  for (const evalkit::ItemTruth& item : ds->items) {
    truth[{item.change_id, item.metric.to_string()}] = item.change_induced;
  }
  std::uint64_t tp = 0, fp = 0, fn = 0, unknown = 0, items = 0;
  for (const core::AssessmentReport& rep : reference) {
    for (const core::ItemVerdict& v : rep.items) {
      ++items;
      const auto it = truth.find({rep.change_id, v.metric.to_string()});
      if (it == truth.end()) {
        ++unknown;
        continue;
      }
      const bool predicted = v.caused_by_software_change();
      if (predicted && it->second) ++tp;
      if (predicted && !it->second) ++fp;
      if (!predicted && it->second) ++fn;
    }
  }
  r.outcome.count(items, unknown, "verdict for an item with ground truth");
  const double precision =
      tp + fp == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall =
      tp + fn == 0 ? 1.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  // The paper's deployment precision is 98.21% (Table 3); a pipeline that
  // attributes far worse than that is broken, not slow.
  r.outcome.check(precision >= 0.8, "precision >= 0.8");
  r.outcome.check(recall >= 0.8, "recall >= 0.8");

  // One unit = one assess_window pass, then assess(id) per change.
  const auto pass = [&](Spans* spans, double* wall, double* cpu) {
    const double c0 = self_cpu_s();
    const double w0 = now_s();
    const std::vector<core::AssessmentReport> reports =
        funnel.assess_window(0, t_end);
    const double w1 = now_s();
    if (spans != nullptr) spans->add("e2e.assess_window", Spans::kRoot, w0, w1);
    *wall = w1 - w0;
    *cpu = self_cpu_s() - c0;
    std::uint64_t bad = 0;
    for (const core::AssessmentReport& rep : reports) {
      if (causes_of(rep) != ref_causes[rep.change_id]) ++bad;
    }
    r.outcome.count(reports.size(), bad, "assess_window reproduces reports");
  };
  // Closed loop: the next change is reviewed as soon as the previous report
  // is back; `late_ms` records how long the generator took to send it.
  std::vector<double> late_ms;
  const auto per_change = [&](Spans* spans, std::vector<double>* lat_ms) {
    std::uint64_t bad = 0;
    double prev_end = now_s();
    for (const funnel::changes::ChangeId id : ids) {
      const double t0 = now_s();
      late_ms.push_back(1e3 * (t0 - prev_end));
      const core::AssessmentReport rep = funnel.assess(id);
      prev_end = now_s();
      if (spans != nullptr) spans->add("e2e.assess", Spans::kRoot, t0, prev_end);
      lat_ms->push_back(1e3 * (prev_end - t0));
      if (causes_of(rep) != ref_causes[id]) ++bad;
    }
    r.outcome.count(ids.size(), bad, "assess(id) matches assess_window");
  };

  if (!args.trace) {
    const double start = now_s();
    std::vector<double> walls, cpus, lat_ms;
    while (walls.size() < 2 ||
           (now_s() - start < 0.6 * args.seconds && walls.size() < 64)) {
      double wall = 0.0, cpu = 0.0;
      pass(nullptr, &wall, &cpu);
      walls.push_back(wall);
      cpus.push_back(cpu);
    }
    do {
      per_change(nullptr, &lat_ms);
    } while (now_s() - start < args.seconds);

    const double setup_s = median(setup);
    const double rss = peak_rss_mb();
    const double assess_s = median(walls);
    const double assess_cpu = median(cpus);
    // 140 changes per pass: p90 is the highest percentile with at least
    // ten latencies beyond it.
    r.gated["setup_s"] = {setup_s, "s"};
    r.gated["peak_rss_mb"] = {rss, "MB"};
    r.gated["work_s"] = {assess_s, "s"};
    r.gated["work_cpu_s"] = {assess_cpu, "s"};
    r.gated["latency_p50_ms"] = {median(lat_ms), "ms"};
    r.gated["latency_tail_ms"] = {quantile(lat_ms, 0.9), "ms"};

    r.detail["setup_s"] = {setup_s, "s"};
    r.detail["assess_s"] = {assess_s, "s"};
    r.detail["assess_cpu_s"] = {assess_cpu, "s"};
    r.detail["precision"] = {precision, "ratio"};
    r.detail["recall"] = {recall, "ratio"};
    r.detail["peak_rss_mb"] = {rss, "MB"};
    r.detail["assess_passes"] = {static_cast<double>(walls.size()), "count"};
    r.detail["kpi_verdicts"] = {static_cast<double>(items), "count"};
    r.detail["report_latency_samples"] = {static_cast<double>(lat_ms.size()),
                                          "count"};
    return r;
  }

  // Traced run: the unit untraced, then traced, then the layer probes.
  BudgetInput budget;
  budget.batch_unit = true;
  {
    double wall = 0.0, cpu = 0.0, traced_wall = 0.0, traced_cpu = 0.0;
    std::vector<double> lat, traced_lat;
    pass(nullptr, &wall, &cpu);
    per_change(nullptr, &lat);
    pass(&r.spans, &traced_wall, &traced_cpu);
    per_change(&r.spans, &traced_lat);
    budget.busy_s = cpu;
    budget.late_ms_p99 = quantile(late_ms, 0.99);
    budget.op_ms = median(lat);
    budget.traced_op_ms = median(traced_lat);
    budget.pool_efficiency =
        cpu / (wall * static_cast<double>(std::max<std::size_t>(1, workers)));
  }
  double efficiency_unused = 0.0;
  BatchScene batch{&ds->topo, &ds->log, &ds->store, cfg};
  pool_probe(batch, &efficiency_unused, &budget.pool_queue_wait_us);
  run_probes(batch, service_scene(*ds, cfg), budget, args.work_dir, &r.spans,
             &r.layers, &r.outcome);
  return r;
}

}  // namespace perfbench
