// EndpointClient: one scheduler-side session to a runner_serve daemon.
//
// Owns the socket, the frame reassembly buffer, and the handshake state for
// a single endpoint. The connect path is synchronous (the scheduler brings
// fleets up before searching); everything after the HelloAck is
// non-blocking -- submit() queues trial frames onto the wire, drain()
// collects whatever results have arrived, and the scheduler multiplexes
// many clients through one poll(2) set via fd().
//
// Any transport damage (EOF, socket error, corrupt frame, protocol
// violation) kills the session permanently: drain() returns false, the
// scheduler reroutes in-flight trials to other shards, and reconnection is
// the scheduler's job (with jittered backoff). There is no in-place
// recovery, exactly like a dead worker pipe in the local pool. A failed
// send kills the session too, but leaves the socket open until the next
// drain(), so verdicts the endpoint delivered before it died still count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace fpmix::net {

class EndpointClient {
 public:
  /// Connects, sends the hello, and waits (bounded) for the ack. Returns
  /// nullptr with *error on refusal, timeout, rejection, or any protocol
  /// damage during the handshake.
  static std::unique_ptr<EndpointClient> connect(const Endpoint& ep,
                                                 const HelloMsg& hello,
                                                 int connect_timeout_ms,
                                                 int hello_timeout_ms,
                                                 std::string* error);

  /// Queues one trial on the session. False when the session is dead or
  /// the send fails (the caller drains, then reroutes the trial).
  bool submit(const TrialMsg& m);

  /// Ships a shard-cache fill. Failures are non-fatal to the caller
  /// (cache fills are advisory) but kill this session like any send error.
  bool insert(const CacheInsertMsg& m);

  /// Streams one CRC-sealed journal line for replication. Like insert(),
  /// advisory to the caller but fatal to the session on send failure.
  bool journal_append(const JournalAppendMsg& m);

  /// Sends a heartbeat probe; the pong comes back through drain().
  bool ping(const PingMsg& m);

  /// Requests a shard digest (anti-entropy gossip); the ack comes back
  /// through drain() and take_digests().
  bool request_digest();

  /// Synchronously fetches the endpoint's retained journal shard for this
  /// session's search fingerprint (scheduler failover). Appends the lines
  /// in sequence order to *lines. False (with *error) on timeout or
  /// session death; only usable while no trials are in flight -- any
  /// non-tail frame during the fetch is a protocol violation.
  bool fetch_journal(std::vector<std::string>* lines, int timeout_ms,
                     std::string* error);

  /// Drains the socket and appends every complete ResultMsg to *out.
  /// Returns false when the session died (EOF, error, corrupt frame,
  /// protocol violation, an earlier failed send); results decoded before
  /// the damage are still appended, so an endpoint that answered and then
  /// died delivers its final verdicts. Closes the socket of a dead session.
  /// Pongs are collected aside; take_pongs() hands them over.
  bool drain(std::vector<ResultMsg>* out);

  /// Heartbeat echoes collected by drain() since the last call.
  std::vector<PongMsg> take_pongs() {
    std::vector<PongMsg> out;
    out.swap(pongs_);
    return out;
  }

  /// Shard digests collected by drain() since the last call.
  std::vector<ShardDigestMsg> take_digests() {
    std::vector<ShardDigestMsg> out;
    out.swap(digests_);
    return out;
  }

  bool alive() const { return !dead_; }
  int fd() const { return sock_.fd(); }
  const Endpoint& endpoint() const { return ep_; }
  /// The accepted handshake answer: pool width, verifier fingerprint and
  /// engine the scheduler cross-checks, retained shard size, durability
  /// health (see HelloAckMsg).
  const HelloAckMsg& ack() const { return ack_; }
  /// Most recent session error text (handshake rejection, transport
  /// damage), for diagnostics.
  const std::string& last_error() const { return last_error_; }

  void close() {
    dead_ = true;
    sock_.close();
  }

 private:
  EndpointClient(Socket sock, const Endpoint& ep)
      : sock_(std::move(sock)), ep_(ep) {}

  /// Marks the session dead after a failed send; the socket stays open for
  /// the final drain(). Returns false.
  bool send_failed(const char* what);

  Socket sock_;
  Endpoint ep_;
  FrameBuffer fb_;
  HelloAckMsg ack_;
  std::string last_error_;
  std::vector<PongMsg> pongs_;
  std::vector<ShardDigestMsg> digests_;
  bool dead_ = false;
};

}  // namespace fpmix::net
