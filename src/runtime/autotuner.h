// ChunkAutotuner — the feedback controller of the adaptive runtime.
//
// The streaming engine's per-stage stall counters already answer "is this
// run I/O-bound or compute-bound?" (reader stall = backpressure =
// compute-bound; compute stall = starvation = I/O-bound); this controller
// closes the loop by retuning the chunk geometry BETWEEN chunks of a live
// run instead of leaving the answer in a report:
//
//   * reader-stalled  -> compute is the bottleneck and per-chunk overheads
//                        (fold of the unique sets, queue handoffs, task
//                        dispatch) are pure tax on it: GROW chunk_lines so
//                        fewer, larger chunks amortize the fixed costs and
//                        give each screening fan-out more parallel width.
//   * compute-stalled -> the disk is the bottleneck: SHRINK chunk_lines so
//                        compute starts sooner after each read and the
//                        pipeline interleaves at a finer grain, and prefer
//                        a deeper queue (more read-ahead) over wider
//                        chunks.
//
// Control discipline — the part that makes this usable on a live job:
//
//   * Decisions fire once per EPOCH (epoch_chunks observations), never per
//     chunk: single-chunk timings are noise (page cache hits, a tile
//     landing on a busy pool).
//   * Hysteresis, twice. A dead band on the stall-fraction gap means a
//     roughly balanced pipeline holds its geometry instead of hunting; and
//     a direction REVERSAL must be confirmed by two consecutive epochs
//     before it is acted on, so an oscillating signal (alternating
//     reader/compute-bound epochs) parks the tuner instead of thrashing
//     the chunk size — asserted on synthetic traces in tests.
//   * Throughput veto. Stall signs propose, measured throughput disposes:
//     after every move the next epoch's lines-per-second is compared with
//     the rate before it, and a move that made the pipeline slower is
//     UNDONE and its direction parked for a few epochs. This catches the
//     signature the stall signs alone misread — at very small chunks the
//     consumer starves on the reader's per-chunk overhead, which looks
//     like "I/O-bound, shrink more" and would feed back into ever-smaller
//     chunks; the rate veto turns the controller into a stall-informed
//     hill climb on actual throughput.
//   * Memory clamp: chunk_lines never grows past what memory_budget
//     affords at the current queue_depth (queue_depth x chunk_bytes <=
//     budget), and both knobs respect the shared chunk-geometry bounds.
//     A file source given no budget passes its fixed-geometry working set
//     here, the number the service admits a job against, so a tuned job
//     cannot outgrow what the Scheduler let it in with.
//
// The controller is driven purely by per-chunk observations (deltas of
// the registry-backed stall/latency series), so it unit-tests on
// synthetic traces with no engine, no disk and no clock.
#pragma once

#include <cstdint>
#include <vector>

namespace rif::runtime {

struct AutotuneConfig {
  /// Starting chunk_lines when > 0; 0 = start from the caller's configured
  /// chunk_lines. The default starts NARROW on purpose: an undersized
  /// start is corrected in a few cheap epochs (many small chunks = many
  /// observations), while an oversized start wastes most of a pass before
  /// the first decision can even land — the reader is queue_depth chunks
  /// ahead of the controller.
  int initial_chunk_lines = 8;

  /// Clamp on tuned chunk_lines (further clamped to the shared
  /// chunk-geometry bounds and to the image height by the engine).
  int min_chunk_lines = 4;
  int max_chunk_lines = 2048;

  /// Clamp on tuned queue_depth.
  int min_queue_depth = 3;
  int max_queue_depth = 16;

  /// Multiplicative step per decision (> 1).
  double grow_factor = 2.0;

  /// Observations per decision epoch (>= 1).
  int epoch_chunks = 3;

  /// Dead band on |reader_stall_frac - compute_stall_frac|: inside it the
  /// pipeline counts as balanced and geometry holds.
  double dead_band = 0.10;

  /// Throughput veto: a move whose follow-up epoch rate (lines per second
  /// of consumer wall) drops by more than this fraction is undone and the
  /// direction parked for veto_hold_epochs. While one direction is parked
  /// a stall signal pointing at it PROBES the opposite side instead (the
  /// only unexplored one); with both sides parked the geometry holds — a
  /// discovered local optimum. Observations with no line counts (rate 0)
  /// never trigger the veto.
  double veto_threshold = 0.10;
  int veto_hold_epochs = 6;

  /// Annealing: every veto doubles the effective epoch length (capped at
  /// 8x) — a veto means the rate landscape contradicted the stall
  /// signature, i.e. the tuner is inside the noise floor around an
  /// optimum, so it should look longer before moving again — and after
  /// this many vetoes the geometry FREEZES for the rest of the run:
  /// further exploration can only cost throughput it already measured.
  int freeze_after_vetoes = 3;

  /// Peak-memory clamp (bytes) on queue_depth x chunk buffer; 0 = none.
  std::uint64_t memory_budget = 0;
};

/// Per-chunk timing deltas the engine feeds the controller.
struct TuneObservation {
  double read_seconds = 0.0;           ///< reader inside read_lines
  double reader_stall_seconds = 0.0;   ///< reader blocked (backpressure)
  double compute_stall_seconds = 0.0;  ///< compute blocked (starved)
  double compute_seconds = 0.0;        ///< screening + fold for the chunk
  int lines = 0;                       ///< image lines in the chunk (rate)
};

/// One decision point of a run (one epoch), recorded for benches/tests:
/// the tuned trajectory in BENCH_stream.json is a dump of these.
struct TuneDecision {
  int chunk_index = 0;   ///< observations consumed when the epoch closed
  int direction = 0;     ///< +1 grew, -1 shrank, 0 held
  bool vetoed = false;   ///< this decision undid the previous move
  int chunk_lines = 0;   ///< value after the decision
  int queue_depth = 0;   ///< value after the decision
  double reader_stall_frac = 0.0;
  double compute_stall_frac = 0.0;
  double lines_per_second = 0.0;  ///< epoch throughput (0 = no line data)
};

/// Everything a run's tuning did, attached to StreamingResult.
struct AutotuneReport {
  bool enabled = false;
  int initial_chunk_lines = 0;
  int final_chunk_lines = 0;
  int initial_queue_depth = 0;
  int final_queue_depth = 0;
  std::vector<TuneDecision> trajectory;
};

class ChunkAutotuner {
 public:
  /// `bytes_per_line` sizes the memory clamp (samples x bands x 4 for the
  /// streaming engine). Initial values are clamped into the configured and
  /// shared-geometry bounds immediately.
  ChunkAutotuner(const AutotuneConfig& config, int chunk_lines,
                 int queue_depth, std::uint64_t bytes_per_line);

  /// Feed one chunk's timing deltas; closes an epoch (and possibly moves
  /// the knobs) every config.epoch_chunks calls.
  void observe(const TuneObservation& obs);

  /// Current recommendations. chunk_lines may change after any observe();
  /// queue_depth recommendations are meant to be applied at a pass
  /// boundary (buffers are allocated per pass).
  [[nodiscard]] int chunk_lines() const { return chunk_lines_; }
  [[nodiscard]] int queue_depth() const { return queue_depth_; }
  /// Hard ceiling queue_depth() can ever reach — the configured maximum
  /// after the constructor clamped it into the shared geometry bounds.
  /// Size buffer pools from THIS, not from the raw caller config.
  [[nodiscard]] int max_queue_depth() const { return config_.max_queue_depth; }

  /// Tell the controller the workload changed phase (e.g. the streaming
  /// engine's screening pass gave way to the transform pass): the open
  /// epoch and the move-under-judgment are discarded so the first
  /// decision of the new phase cannot compare throughput across two
  /// different kernels and fire a spurious veto. Parks, annealing and a
  /// freeze persist — they describe the machine, not the phase.
  void phase_boundary();

  [[nodiscard]] const std::vector<TuneDecision>& trajectory() const {
    return trajectory_;
  }

  [[nodiscard]] AutotuneReport report() const;

 private:
  void decide();
  [[nodiscard]] int clamp_chunk_lines(int lines) const;

  AutotuneConfig config_;
  std::uint64_t bytes_per_line_;
  int initial_chunk_lines_;
  int initial_queue_depth_;
  int chunk_lines_;
  int queue_depth_;

  int chunks_seen_ = 0;
  int since_decision_ = 0;  ///< observations in the open epoch
  int effective_epoch_;     ///< annealed epoch length (doubles per veto)
  int vetoes_ = 0;
  bool frozen_ = false;
  int epoch_count_ = 0;
  TuneObservation epoch_;  ///< sums over the open epoch
  std::int64_t epoch_lines_ = 0;

  int last_direction_ = 0;     ///< last acted-on move
  int pending_reversal_ = 0;   ///< consecutive epochs asking to reverse
  int last_applied_ = 0;       ///< move applied by the PREVIOUS decision
  double rate_before_move_ = 0.0;  ///< epoch rate when that move fired
  bool parked_[2] = {false, false};  ///< rate-vetoed: [0]=shrink, [1]=grow
  int park_age_[2] = {0, 0};         ///< epochs since each veto fired
  std::vector<TuneDecision> trajectory_;
};

}  // namespace rif::runtime
