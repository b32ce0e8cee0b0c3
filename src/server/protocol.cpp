#include "server/protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include "support/envelope.hpp"
#include "support/error.hpp"

namespace herc::server {

using support::NetError;

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;  // EPIPE, not SIGPIPE
#else
constexpr int kSendFlags = 0;
#endif

constexpr std::size_t kHeaderBytes = 5;  // u32 length + u8 type

bool known_type(unsigned char t) {
  return t == static_cast<unsigned char>(FrameType::kHello) ||
         t == static_cast<unsigned char>(FrameType::kCommand) ||
         t == static_cast<unsigned char>(FrameType::kTokenCommand) ||
         t == static_cast<unsigned char>(FrameType::kOutput) ||
         t == static_cast<unsigned char>(FrameType::kResult) ||
         t == static_cast<unsigned char>(FrameType::kSubscribe) ||
         t == static_cast<unsigned char>(FrameType::kSnapshot) ||
         t == static_cast<unsigned char>(FrameType::kJournal) ||
         t == static_cast<unsigned char>(FrameType::kCheckpoint) ||
         t == static_cast<unsigned char>(FrameType::kAck);
}

void send_all(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, kSendFlags);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("send failed: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Remaining whole milliseconds until `deadline` (>= 0).
int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

/// Appends one frame's header and payload to `out`.
void append_frame(std::string& out, const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw NetError("frame payload of " +
                   std::to_string(frame.payload.size()) +
                   " bytes exceeds the " +
                   std::to_string(kMaxFramePayload) + "-byte limit");
  }
  support::put_le32(out, static_cast<std::uint32_t>(frame.payload.size()));
  out.push_back(static_cast<char>(frame.type));
  out += frame.payload;
}

}  // namespace

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kHeaderBytes + frame.payload.size());
  append_frame(out, frame);
  return out;
}

void write_frames(int fd, std::span<const Frame> frames) {
  std::size_t size = 0;
  for (const Frame& frame : frames) {
    size += kHeaderBytes + frame.payload.size();
  }
  std::string wire;
  wire.reserve(size);
  for (const Frame& frame : frames) append_frame(wire, frame);
  send_all(fd, wire.data(), wire.size());
}

void write_frame(int fd, const Frame& frame) { write_frames(fd, {&frame, 1}); }

bool read_frame(int fd, Frame& frame) {
  return read_frame(fd, frame, ReadDeadline{}) == ReadOutcome::kFrame;
}

ReadOutcome read_frame(int fd, Frame& frame, const ReadDeadline& deadline) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point idle_by =
      Clock::now() + std::chrono::milliseconds(deadline.idle_ms);
  Clock::time_point frame_by{};  // set once the frame's first byte lands
  bool started = false;

  // Fills `size` bytes under the active deadline.  Returns kIdle only
  // before the frame's first byte; kEof only at a frame boundary.
  const auto pull = [&](char* data, std::size_t size) -> ReadOutcome {
    std::size_t got = 0;
    while (got < size) {
      int timeout = -1;
      if (!started && deadline.idle_ms > 0) {
        timeout = remaining_ms(idle_by);
      } else if (started && deadline.frame_ms > 0) {
        timeout = remaining_ms(frame_by);
      }
      if (timeout != -1) {
        pollfd pfd{fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, timeout);
        if (rc < 0) {
          if (errno == EINTR) continue;
          throw NetError(std::string("poll failed: ") + std::strerror(errno));
        }
        if (rc == 0) {
          if (!started) return ReadOutcome::kIdle;
          throw FrameStallError("peer stalled mid-frame past the " +
                         std::to_string(deadline.frame_ms) + "ms deadline (" +
                         std::to_string(got) + " of " + std::to_string(size) +
                         " bytes of this read)");
        }
      }
      const ssize_t n = ::recv(fd, data + got, size - got, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw NetError(std::string("recv failed: ") + std::strerror(errno));
      }
      if (n == 0) {
        if (!started && got == 0) return ReadOutcome::kEof;
        throw NetError("peer closed the connection mid-frame (" +
                       std::to_string(got) + " of " + std::to_string(size) +
                       " bytes)");
      }
      if (!started) {
        started = true;
        frame_by = Clock::now() + std::chrono::milliseconds(deadline.frame_ms);
      }
      got += static_cast<std::size_t>(n);
    }
    return ReadOutcome::kFrame;
  };

  char header[kHeaderBytes];
  const ReadOutcome head = pull(header, kHeaderBytes);
  if (head != ReadOutcome::kFrame) return head;
  const std::uint32_t length =
      support::get_le32(std::string_view(header, kHeaderBytes), 0);
  if (length > kMaxFramePayload) {
    throw NetError("frame header announces " + std::to_string(length) +
                   " bytes (limit " + std::to_string(kMaxFramePayload) +
                   "); the stream is desynchronized");
  }
  const auto type = static_cast<unsigned char>(header[4]);
  if (!known_type(type)) {
    throw NetError("unknown frame type byte " +
                   std::to_string(static_cast<int>(type)));
  }
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(length);
  // The frame has started, so `pull` reads the payload or throws.
  if (length > 0) (void)pull(frame.payload.data(), length);
  return ReadOutcome::kFrame;
}

CommandPayload split_command(std::string_view payload) {
  CommandPayload out;
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    out.line.assign(payload);
  } else {
    out.line.assign(payload.substr(0, nl));
    out.body.assign(payload.substr(nl + 1));
  }
  return out;
}

ConnectionCommand connection_command(const std::vector<std::string>& args) {
  if (args.size() == 3 && args[0] == "session" && args[1] == "user") {
    return ConnectionCommand::kUser;
  }
  if (args.size() == 1 || (args.size() == 2 && args[1] == "--json")) {
    if (args[0] == "stats") return ConnectionCommand::kStats;
    if (args[0] == "replicas") return ConnectionCommand::kReplicas;
  }
  return ConnectionCommand::kNone;
}

std::string encode_token(std::string_view client_id, std::uint64_t seq,
                         std::string_view command_payload) {
  if (client_id.empty() ||
      client_id.find_first_of(" \t\n") != std::string_view::npos) {
    throw NetError("token client id must be non-empty and whitespace-free");
  }
  std::string out;
  out.reserve(client_id.size() + 24 + command_payload.size());
  out.append(client_id);
  out.push_back(' ');
  out += std::to_string(seq);
  out.push_back('\n');
  out.append(command_payload);
  return out;
}

TokenInfo split_token(std::string_view payload) {
  const std::size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    throw NetError("malformed token frame: missing token line");
  }
  const std::string_view line = payload.substr(0, nl);
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos || sp == 0 || sp + 1 >= line.size()) {
    throw NetError("malformed token frame: expected '<client-id> <seq>'");
  }
  TokenInfo info;
  info.client_id.assign(line.substr(0, sp));
  for (const char c : line.substr(sp + 1)) {
    if (c < '0' || c > '9') {
      throw NetError("malformed token frame: non-numeric sequence");
    }
    info.seq = info.seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  info.command.assign(payload.substr(nl + 1));
  return info;
}

std::string encode_hello(std::string_view role, std::uint64_t boot_id,
                         std::string_view banner) {
  std::string out(kMagic);
  out += " role=";
  out += role;
  out += " boot=";
  out += std::to_string(boot_id);
  out.push_back(' ');
  out += banner;
  return out;
}

HelloInfo decode_hello(std::string_view payload) {
  if (payload.rfind(kMagic, 0) != 0) {
    throw NetError("hello payload does not start with the protocol magic");
  }
  HelloInfo info;
  std::string_view rest = payload.substr(kMagic.size());
  while (!rest.empty()) {
    const std::size_t start = rest.find_first_not_of(' ');
    if (start == std::string_view::npos) break;
    rest.remove_prefix(start);
    const std::size_t end = rest.find(' ');
    const std::string_view word =
        end == std::string_view::npos ? rest : rest.substr(0, end);
    const std::size_t eq = word.find('=');
    if (eq == std::string_view::npos) break;  // banner starts here
    const std::string_view key = word.substr(0, eq);
    const std::string_view value = word.substr(eq + 1);
    if (key == "role") {
      info.role.assign(value);
    } else if (key == "boot") {
      info.boot_id = 0;
      for (const char c : value) {
        if (c < '0' || c > '9') {
          info.boot_id = 0;
          break;
        }
        info.boot_id = info.boot_id * 10 + static_cast<std::uint64_t>(c - '0');
      }
    }  // unknown keys: forward compatibility, skip
    rest.remove_prefix(word.size());
  }
  const std::size_t start = rest.find_first_not_of(' ');
  if (start != std::string_view::npos) {
    info.banner.assign(rest.substr(start));
  }
  return info;
}

std::string encode_result(support::Severity severity,
                          std::string_view error) {
  std::string out;
  out.push_back(static_cast<char>('0' + support::exit_code(severity)));
  out += error;
  return out;
}

ResultInfo decode_result(std::string_view payload) {
  if (payload.empty() || payload[0] < '0' || payload[0] > '2') {
    throw NetError("malformed result frame: missing severity byte");
  }
  ResultInfo info;
  info.severity = support::severity_from_exit(payload[0] - '0');
  info.error.assign(payload.substr(1));
  return info;
}

}  // namespace herc::server
