#include "obs/span_tracer.h"

#include <chrono>

#include "support/log.h"

namespace rif::obs {

namespace {

thread_local std::int64_t t_current_job = kNoJob;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::int64_t resolve(std::int64_t job) {
  return job == kCurrentJob ? t_current_job : job;
}

}  // namespace

std::int64_t current_job() { return t_current_job; }

JobScope::JobScope(std::int64_t job) : prev_(t_current_job) {
  t_current_job = job;
  log_set_job_context(job);
}

JobScope::~JobScope() {
  t_current_job = prev_;
  log_set_job_context(prev_);
}

SpanTracer::SpanTracer() : epoch_ns_(steady_ns()) {}

SpanTracer& SpanTracer::instance() {
  // Heap-allocated and never freed: pool worker threads may still emit
  // (cheaply, disabled) while statics are being torn down.
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

std::uint64_t SpanTracer::now_ns() const { return steady_ns() - epoch_ns_; }

SpanTracer::ThreadBuffer& SpanTracer::local_buffer() {
  // The raw pointer stays valid for the process lifetime: buffers_ owns the
  // ThreadBuffer and the tracer is never destroyed.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->tid = static_cast<std::int32_t>(buffers_.size()) + 1;
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void SpanTracer::emit(SpanEvent e) {
  // End events pass even while disabled: every closer (ScopedSpan, the
  // service's virtual-span flags) only ends spans it actually began, so
  // letting the E through keeps the trace balanced when tracing is flipped
  // off mid-span. Begins/instants/counters stop at the flip.
  if (e.phase != Phase::kEnd && !enabled()) return;
  ThreadBuffer& buf = local_buffer();
  if (e.timeline == Timeline::kWall) e.tid = buf.tid;
  EventBlock* blk = buf.current;
  std::size_t n = blk == nullptr ? kBlockEvents
                                 : blk->count.load(std::memory_order_relaxed);
  if (n == kBlockEvents) {
    const std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.blocks.size() >= kMaxBlocksPerThread) {
      buf.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    buf.blocks.push_back(std::make_unique<EventBlock>());
    buf.current = buf.blocks.back().get();
    blk = buf.current;
    n = 0;
  }
  blk->events[n] = e;
  blk->count.store(n + 1, std::memory_order_release);
}

void SpanTracer::begin(const char* name, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = now_ns();
  e.job = resolve(job);
  e.phase = Phase::kBegin;
  emit(e);
}

void SpanTracer::end(const char* name, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = now_ns();
  e.job = resolve(job);
  e.phase = Phase::kEnd;
  emit(e);
}

void SpanTracer::instant(const char* name, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = now_ns();
  e.job = resolve(job);
  e.phase = Phase::kInstant;
  emit(e);
}

void SpanTracer::counter(const char* name, double value, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = now_ns();
  e.job = resolve(job);
  e.value = value;
  e.phase = Phase::kCounter;
  emit(e);
}

void SpanTracer::virtual_begin(const char* name, std::int32_t track,
                               std::uint64_t vt_ns, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = vt_ns;
  e.job = job;
  e.tid = track;
  e.timeline = Timeline::kVirtual;
  e.phase = Phase::kBegin;
  emit(e);
}

void SpanTracer::virtual_end(const char* name, std::int32_t track,
                             std::uint64_t vt_ns, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = vt_ns;
  e.job = job;
  e.tid = track;
  e.timeline = Timeline::kVirtual;
  e.phase = Phase::kEnd;
  emit(e);
}

void SpanTracer::virtual_instant(const char* name, std::int32_t track,
                                 std::uint64_t vt_ns, std::int64_t job) {
  SpanEvent e;
  e.name = name;
  e.ts_ns = vt_ns;
  e.job = job;
  e.tid = track;
  e.timeline = Timeline::kVirtual;
  e.phase = Phase::kInstant;
  emit(e);
}

void SpanTracer::set_job_tenant(std::int64_t job, const std::string& tenant) {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  job_tenants_[job] = tenant;
}

void SpanTracer::set_thread_name(const std::string& name) {
  const std::int32_t tid = local_buffer().tid;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  thread_names_[tid] = name;
}

std::vector<SpanEvent> SpanTracer::collect() const {
  // Pin the buffer list, then each buffer's block list; the per-block
  // count (published with release) bounds how far we read.
  std::vector<const ThreadBuffer*> buffers;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers.reserve(buffers_.size());
    for (const auto& b : buffers_) buffers.push_back(b.get());
  }
  std::vector<SpanEvent> out;
  for (const ThreadBuffer* buf : buffers) {
    const std::lock_guard<std::mutex> lock(buf->mutex);
    for (const auto& blk : buf->blocks) {
      const std::size_t n = blk->count.load(std::memory_order_acquire);
      out.insert(out.end(), blk->events.begin(), blk->events.begin() + n);
    }
  }
  return out;
}

std::map<std::int64_t, std::string> SpanTracer::job_tenants() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return job_tenants_;
}

std::map<std::int32_t, std::string> SpanTracer::thread_names() const {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  return thread_names_;
}

std::uint64_t SpanTracer::dropped_events() const {
  std::uint64_t total = 0;
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& b : buffers_) {
    total += b->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void SpanTracer::clear() {
  const std::lock_guard<std::mutex> lock(registry_mutex_);
  for (const auto& b : buffers_) {
    const std::lock_guard<std::mutex> buf_lock(b->mutex);
    b->blocks.clear();
    b->current = nullptr;
    b->dropped.store(0, std::memory_order_relaxed);
  }
  job_tenants_.clear();
}

}  // namespace rif::obs
