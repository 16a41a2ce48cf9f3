// The three workloads and the per-layer probes they share.
//
// Every workload reduces its inputs to two scenes the probes understand:
//   * a BatchScene — topology, change log and metric store, the inputs of
//     the batch assessment layers (impact set, assess, tsdb reads, detect,
//     DiD, thread pool);
//   * a ServiceScene — the ordered request stream each tenant receives, the
//     input of the service, tsdb append/dispatch, persist, online and
//     journal layers.
// The traced run replays both scenes through each layer's public functions
// from the benchmark's own code, so every per-layer metric is defined on
// every workload.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "changes/change_log.h"
#include "funnel/config.h"
#include "topology/topology.h"
#include "tsdb/store.h"
#include "util.h"

namespace perfbench {

Result run_assess_week(const Args& args);
Result run_serve_week(const Args& args);
Result run_ingest_flood(const Args& args);

struct BatchScene {
  const funnel::topology::ServiceTopology* topo = nullptr;
  const funnel::changes::ChangeLog* log = nullptr;
  const funnel::tsdb::MetricStore* store = nullptr;
  funnel::core::FunnelConfig config;
};

/// One request of a tenant's stream: an ingest batch or a change batch.
struct Request {
  bool change = false;
  std::string body;
  std::size_t lines = 0;
};

struct ServiceScene {
  funnel::core::FunnelConfig config;  ///< the tenant assessor config
  std::vector<std::vector<Request>> tenants;
  /// Checkpoint after every `checkpoint_every` ingest requests (0 = never),
  /// the cadence the workload itself uses.
  std::size_t checkpoint_every = 0;
  /// Change lines registered after the replay when the stream has none, so
  /// the registration probe still measures something.
  std::string probe_changes;
};

/// What the untraced end-to-end unit contributes to the layer budget.
struct BudgetInput {
  double busy_s = 0.0;  ///< CPU of the process under test in the unit
  /// Median per-operation latency of the unit with client spans off and
  /// on (per-change report, or ingest request).
  double op_ms = 0.0;
  double traced_op_ms = 0.0;
  double late_ms_p99 = 0.0;    ///< generator lateness
  std::uint64_t http_requests = 0;  ///< requests the unit sent over HTTP
  std::uint64_t http_503 = 0;
  std::uint64_t http_refused = 0;  ///< 429 + 503
  /// assess-week only: the unit is the in-process batch pass itself.
  bool batch_unit = false;
  double pool_efficiency = 0.0;
  double pool_queue_wait_us = 0.0;
};

/// Call `fn` for every sample line ("service,server,kpi,minute,value") of
/// the stream's ingest requests, in order.
void for_each_sample(
    const std::vector<Request>& stream,
    const std::function<void(funnel::tsdb::MetricId, funnel::MinuteTime,
                             double)>& fn);

/// Run every layer probe over the scenes and fill `out` with the
/// BENCHMARK.json per_layer metrics. Spans land in `spans`.
void run_probes(const BatchScene& batch, const ServiceScene& service,
                const BudgetInput& budget, const std::string& work_dir,
                Spans* spans, Metrics* out, Outcome* outcome);

/// Pool efficiency (CPU over wall x workers) and mean task queue wait of
/// one assess_window pass over the scene, with telemetry on.
void pool_probe(const BatchScene& batch, double* efficiency,
                double* queue_wait_us);

}  // namespace perfbench
