// Top-level synthetic-OSP generation: produce the three raw data
// sources (inventory, snapshot archive, ticket log) for a whole
// organization, plus the generator-side ground truth used only by
// validation tests and calibration benches.
#pragma once

#include <vector>

#include "model/inventory.hpp"
#include "simulation/health_model.hpp"
#include "simulation/network_design.hpp"
#include "telemetry/snapshots.hpp"
#include "telemetry/tickets.hpp"

namespace mpa {

struct OspOptions {
  int num_networks = 300;   ///< Paper: 850+. Benches default lower for speed.
  int num_months = 17;      ///< Aug 2013 - Dec 2014.
  std::uint64_t seed = 42;
  DesignOptions design = {};

  /// True-randomized-experiment mode (§5.2: "Ideally, we would ...
  /// conduct a true randomized experiment"): each network is assigned
  /// to treatment with probability `treated_fraction`, and treated
  /// networks get their change-event rate multiplied by
  /// `treatment_rate_multiplier`. Assignment is independent of every
  /// other design decision, so the treated-vs-control ticket contrast
  /// is an unconfounded causal estimate to validate the QED against.
  double treated_fraction = 0.0;
  double treatment_rate_multiplier = 1.0;
};

/// Everything the generator emits. The analytics pipeline may only
/// look at inventory / snapshots / tickets; `designs` and `true_ops`
/// exist to validate that the pipeline re-infers them correctly.
struct OspDataset {
  Inventory inventory;
  SnapshotStore snapshots;
  TicketLog tickets;
  int num_months = 0;

  // --- ground truth (generator side only) ---
  std::vector<NetworkDesign> designs;
  /// Randomized-experiment assignment (empty unless treated_fraction>0).
  std::vector<bool> experiment_treated;
  /// true_ops[n][m]: what the change process actually did to network n
  /// in month m.
  std::vector<std::vector<MonthlyOps>> true_ops;
};

/// Generate a full synthetic OSP. Deterministic given opts.seed.
OspDataset generate_osp(const OspOptions& opts = {});

/// Receiver for the streaming generator. Implementations must not
/// assume global ordering beyond the generator's contract: networks
/// arrive in index order, each network's devices right after it, and
/// each device's snapshots in non-decreasing time order. The callback
/// arguments are only valid for the duration of the call.
///
/// This is an interface (not an io dependency) so simulation stays
/// below io in the layer DAG — the mpac ColumnarWriter adapter lives
/// with the CLI.
class OspSink {
 public:
  virtual ~OspSink() = default;
  virtual void on_network(const NetworkRecord& net) = 0;
  virtual void on_device(const DeviceRecord& dev) = 0;
  virtual void on_snapshot(const ConfigSnapshot& snap) = 0;
  virtual void on_ticket(const Ticket& t) = 0;
};

struct OspStreamTotals {
  std::uint64_t networks = 0;
  std::uint64_t devices = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t tickets = 0;
};

/// Streaming variant of generate_osp: identical RNG stream and record
/// content (same seed => the records a sink receives reassemble into
/// exactly the dataset generate_osp returns), but only one network is
/// resident at a time, so 100k-network multi-year histories generate
/// under a fixed memory ceiling. Ground truth (designs, true_ops) is
/// not collected.
OspStreamTotals generate_osp_stream(const OspOptions& opts, OspSink& sink);

}  // namespace mpa
