#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Per-layer attribution for the traced run. Each layer (one mlake
// module) is measured from the benchmark's own files by timing calls
// into that module's public functions, or by peeling: the same request
// sent routed, straight to the owning backend, and in-process, where
// each difference is the self time of the layer in between.

#include <string>
#include <vector>

#include "common/json.h"
#include "population.h"
#include "topology.h"
#include "workload.h"

namespace perfbench {

/// Metric name -> {"value", "unit"} accumulator.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const mlake::Json& json() const { return json_; }
  bool AllNamesValid() const;

 private:
  mlake::Json json_ = mlake::Json::MakeObject();
  std::vector<std::string> names_;
};

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const Population* pop = nullptr;
  const RequestFactory* factory = nullptr;
  Topology* topo = nullptr;
  uint64_t seed = 0;
  std::string scratch_dir;
  /// The open-loop requests (all readers) this run sent.
  std::vector<Request> requests;
  const OpenLoopResult* traced = nullptr;
  Tracer* tracer = nullptr;
};

/// Measures every per-layer metric that applies to all workloads into
/// `*out`, and the ones that apply only to some (queueing of reads and
/// writes) into `*extras`; spans recorded along the way are appended to
/// `*spans`. Returns false (with `*error`) when a probe saw a wrong
/// answer or a layer call failed.
bool MeasureLayers(const LayerInputs& in, MetricSet* out, MetricSet* extras,
                   std::vector<Span>* spans, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
