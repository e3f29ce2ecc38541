//===- transducers/Admin.h - Session-owned admin server ---------*- C++ -*-===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The embeddable face of the live introspection plane: one object that a
/// host (fastc, a test, a long-running service) attaches to a Session to
/// get the full admin endpoint set on a local port.  It owns the HTTP
/// transport (obs::AdminServer) and the endpoint registrar
/// (engine::SessionAdmin), and wires the /readyz probe to the session's
/// two-tier lifecycle: ready means "the shared tier is frozen and the host
/// reports quiescence", i.e. the session has reached the state from which
/// concurrent readers can safely operate and no program (including a
/// parallel run's assertion fan-out, which starts after the freeze) is
/// still running.  Readiness and the /debug/trace gate therefore agree.
///
///   fast::Session S;
///   fast::SessionAdminServer Admin(S);
///   Admin.setQuiescent([&] { return !Running.load(); });
///   Admin.start(0);                     // ephemeral port
///   ... run programs; Admin.publish() at snapshot points ...
///   Admin.stop();                       // also runs at destruction
///
//===----------------------------------------------------------------------===//

#ifndef FAST_TRANSDUCERS_ADMIN_H
#define FAST_TRANSDUCERS_ADMIN_H

#include "engine/AdminEndpoints.h"
#include "obs/AdminServer.h"

#include <functional>
#include <memory>
#include <string>

namespace fast {

struct Session;

/// Owns an AdminServer bound to one Session.  Construct, optionally adjust
/// the callbacks, then start(); the endpoint set is fixed (see
/// engine/AdminEndpoints.h for the per-endpoint threading contract).
class SessionAdminServer {
public:
  /// \p Title is the /statusz page title.
  explicit SessionAdminServer(Session &S,
                              std::string Title = "fast session");
  ~SessionAdminServer();

  /// Overrides the quiescence gate that /debug/trace and /readyz both
  /// consult (default: always quiescent).  Call before start().
  void setQuiescent(std::function<bool()> Quiescent);
  /// Adds a /statusz decorator (assertions, witnesses).  Call before
  /// start().
  void setDecorator(std::function<void(obs::ReportBuilder &)> Decorate);

  /// Binds 127.0.0.1:\p Port (0 = ephemeral) and serves.  False with
  /// \p Error set when the bind fails.
  bool start(uint16_t Port, std::string *Error = nullptr);
  void stop();

  bool running() const { return Server.running(); }
  uint16_t port() const { return Server.port(); }
  uint64_t requestsServed() const { return Server.requestsServed(); }

  /// Session-thread snapshot point (rebuilds /statusz and
  /// /debug/slowqueries).  See engine::SessionAdmin::publish().
  void publish();

private:
  Session &S;
  std::string Title;
  std::function<bool()> Quiescent;
  std::function<void(obs::ReportBuilder &)> Decorate;
  std::unique_ptr<engine::SessionAdmin> Admin;
  obs::AdminServer Server;
};

} // namespace fast

#endif // FAST_TRANSDUCERS_ADMIN_H
