#include "obs/ops_server.h"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "net/frame.h"
#include "obs/chrome_trace.h"

namespace rif::obs {

namespace {

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

std::string fmt_seconds(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", t);
  return buf;
}

/// Command text is a short ASCII word (plus an optional count) — anything
/// with control bytes or stray binary is not a client mistake, it is a
/// different protocol (or an attack) and the session is closed. Plain
/// whitespace is tolerated so a human driving the socket by hand (trailing
/// newline from a line-buffered client) is not treated as hostile.
bool printable_ascii(std::span<const std::uint8_t> bytes) {
  for (std::uint8_t b : bytes) {
    if ((b < 0x20 || b > 0x7e) && std::isspace(b) == 0) return false;
  }
  return true;
}

std::string trimmed(std::span<const std::uint8_t> bytes) {
  std::size_t begin = 0;
  std::size_t end = bytes.size();
  while (begin < end && std::isspace(bytes[begin]) != 0) ++begin;
  while (end > begin && std::isspace(bytes[end - 1]) != 0) --end;
  return std::string(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                     bytes.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace

std::optional<OpsRequest> parse_ops_request(
    std::span<const std::uint8_t> frame, const OpsServerConfig& config) {
  if (frame.size() > config.max_request_bytes || !printable_ascii(frame)) {
    return std::nullopt;
  }
  using Command = OpsRequest::Command;
  const std::string text = trimmed(frame);
  if (text == "status") return OpsRequest{Command::kStatus};
  if (text == "metrics") return OpsRequest{Command::kMetrics};
  if (text == "subscribe-metrics") {
    return OpsRequest{Command::kSubscribeMetrics};
  }
  if (text == "flamegraph") return OpsRequest{Command::kFlamegraph};
  if (text == "logs") {
    return OpsRequest{Command::kLogs, config.default_log_tail};
  }
  if (text.rfind("logs ", 0) != 0) return std::nullopt;
  // from_chars takes digits only — no sign, no blank, no wrap-around.
  std::size_t count = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + 5, end, count);
  if (ec != std::errc() || ptr != end || count == 0) return std::nullopt;
  return OpsRequest{Command::kLogs, count};
}

std::string log_record_json(const LogRecord& record) {
  std::string out = "{\"t\":";
  out += fmt_seconds(record.t_seconds);
  out += ",\"level\":\"";
  out += level_name(record.level);
  out += "\",\"component\":\"";
  out += json_escape(record.component);
  out += "\",\"node\":";
  out += std::to_string(record.node);
  out += ",\"job\":";
  out += std::to_string(record.job);
  out += ",\"msg\":\"";
  out += json_escape(record.message);
  out += "\"}";
  return out;
}

OpsServer::OpsServer(OpsServerConfig config, Providers providers)
    : config_(std::move(config)), providers_(std::move(providers)) {}

OpsServer::~OpsServer() { stop(); }

bool OpsServer::start() {
  if (started_) return true;
  const bool bound = config_.unix_path.empty()
                         ? server_.listen_tcp(config_.port)
                         : server_.listen_unix(config_.unix_path);
  if (!bound) return false;
  server_.start(
      [this](net::SessionId session, FrameBytes frame) {
        on_frame(session, frame);
      },
      [this](net::SessionId session) { on_closed(session); });
  started_ = true;
  return true;
}

void OpsServer::stop() {
  if (!started_) return;
  server_.stop();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    subscribers_.clear();
  }
  started_ = false;
}

void OpsServer::publish_metrics_sample(const std::string& line) {
  std::vector<net::SessionId> targets;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    targets.assign(subscribers_.begin(), subscribers_.end());
  }
  if (targets.empty()) return;
  const FrameBytes payload(line.begin(), line.end());
  for (const net::SessionId session : targets) {
    if (!server_.send_limited(session, payload,
                              config_.max_subscriber_backlog_bytes)) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::size_t OpsServer::subscribers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return subscribers_.size();
}

void OpsServer::reply(net::SessionId session, const std::string& text) {
  server_.send(session, FrameBytes(text.begin(), text.end()));
}

void OpsServer::reject(net::SessionId session) {
  bad_requests_.fetch_add(1, std::memory_order_relaxed);
  server_.abort_session(session);
}

void OpsServer::on_frame(net::SessionId session, const FrameBytes& frame) {
  const std::optional<OpsRequest> request = parse_ops_request(frame, config_);
  if (!request) {
    reject(session);
    return;
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto answer = [&](const std::function<std::string()>& provider,
                          const std::string& what) {
    reply(session, provider ? provider()
                            : "{\"error\":\"" + what + " unavailable\"}");
  };
  switch (request->command) {
    case OpsRequest::Command::kStatus:
      return answer(providers_.status_json, "status");
    case OpsRequest::Command::kMetrics:
      return answer(providers_.metrics_json, "metrics");
    case OpsRequest::Command::kFlamegraph:
      return answer(providers_.flamegraph_json, "flamegraph");
    case OpsRequest::Command::kSubscribeMetrics:
      {
        const std::lock_guard<std::mutex> lock(mu_);
        subscribers_.insert(session);
      }
      return reply(session, "{\"subscribed\":true}");
    case OpsRequest::Command::kLogs: {
      if (providers_.log_ring == nullptr) return answer(nullptr, "logs");
      std::string body;
      for (const LogRecord& record :
           providers_.log_ring->tail(request->count)) {
        body += log_record_json(record);
        body += '\n';
      }
      return reply(session, body);
    }
  }
}

void OpsServer::on_closed(net::SessionId session) {
  const std::lock_guard<std::mutex> lock(mu_);
  subscribers_.erase(session);
}

}  // namespace rif::obs
