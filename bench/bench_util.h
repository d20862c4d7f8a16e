// Shared configuration for the figure-reproduction benches.
//
// The "paper testbed" factory below encodes the calibration, whose values
// are the defaults of NodeConfig, LanConfig and core::CostModelParams
// (src/core/cost_model.h): 16 Sun 300 MHz workstations (sustained
// ~20 Mflop/s on these kernels), 100BaseT with 1999-era effective
// bandwidth and software overheads, and the spectral statistics of a
// HYDICE foliage collect (unique sets saturating in the low thousands).
#pragma once

#include <string>

#include "core/distributed/fusion_job.h"
#include "support/table.h"

namespace rif::bench {

/// The virtual testbed of the paper's §4 evaluation.
inline core::FusionJobConfig paper_testbed(int workers) {
  core::FusionJobConfig config;
  config.mode = core::ExecutionMode::kCostOnly;
  config.shape = {320, 320, 105};  // the Fig. 4/5 problem size
  config.workers = workers;
  config.tiles_per_worker = 2;

  // The defaults of NodeConfig / LanConfig / CostModelParams ARE the paper
  // calibration (300 MHz workstations at ~20 Mflop/s sustained, 100BaseT at
  // ~3 MB/s effective through the messaging stack, unique sets in the low
  // thousands); restated here so the bench is explicit about what it runs.
  config.node.flops_per_second = 20e6;
  config.lan.bandwidth_bytes_per_sec = 3.0e6;
  config.lan.per_message_overhead = from_millis(1);
  config.lan.latency = from_micros(100);

  config.deadline = from_seconds(500000);
  return config;
}

inline std::string fmt_seconds(double s) { return rif::strf("%.1f", s); }

}  // namespace rif::bench
