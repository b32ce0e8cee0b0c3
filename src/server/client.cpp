#include "server/client.hpp"

#include "support/error.hpp"

namespace herc::server {

using support::NetError;

Client Client::connect(const Endpoint& endpoint, int connect_timeout_ms) {
  Client client;
  client.sock_ = connect_to(endpoint, connect_timeout_ms);
  Frame hello;
  const ReadDeadline deadline{connect_timeout_ms, connect_timeout_ms};
  if (read_frame(client.sock_.fd(), hello, deadline) != ReadOutcome::kFrame ||
      hello.type != FrameType::kHello) {
    throw NetError("'" + endpoint.describe() +
                   "' did not answer with a herc server hello");
  }
  HelloInfo info;
  try {
    info = decode_hello(hello.payload);
  } catch (const NetError&) {
    throw NetError("'" + endpoint.describe() +
                   "' did not answer with a herc server hello");
  }
  client.banner_ = info.banner;
  client.role_ = info.role;
  client.boot_id_ = info.boot_id;
  return client;
}

std::string Client::command_payload(std::string_view command,
                                    std::string_view body) {
  std::string payload(command);
  if (!body.empty()) {
    payload.push_back('\n');
    payload += body;
  }
  return payload;
}

void Client::send(std::string_view command, std::string_view body) {
  if (!sock_.valid()) throw NetError("send: not connected");
  Frame frame;
  frame.type = FrameType::kCommand;
  frame.payload = command_payload(command, body);
  write_frame(sock_.fd(), frame);
}

void Client::send_token(std::string_view client_id, std::uint64_t seq,
                        std::string_view command, std::string_view body) {
  if (!sock_.valid()) throw NetError("send: not connected");
  Frame frame;
  frame.type = FrameType::kTokenCommand;
  frame.payload = encode_token(client_id, seq, command_payload(command, body));
  write_frame(sock_.fd(), frame);
}

CallResult Client::receive() {
  if (!sock_.valid()) throw NetError("receive: not connected");
  CallResult result;
  Frame frame;
  const ReadDeadline deadline{read_timeout_ms_, read_timeout_ms_};
  while (true) {
    const ReadOutcome outcome = read_frame(sock_.fd(), frame, deadline);
    if (outcome == ReadOutcome::kIdle) {
      throw NetError("no reply within " + std::to_string(read_timeout_ms_) +
                     "ms");
    }
    if (outcome == ReadOutcome::kEof) {
      throw NetError("server closed the connection before the result");
    }
    if (frame.type == FrameType::kOutput) {
      result.output += frame.payload;
      continue;
    }
    if (frame.type == FrameType::kResult) {
      const ResultInfo info = decode_result(frame.payload);
      result.severity = info.severity;
      result.error = info.error;
      return result;
    }
    throw NetError("unexpected frame type in a reply");
  }
}

CallResult Client::call(std::string_view command, std::string_view body) {
  send(command, body);
  return receive();
}

}  // namespace herc::server
