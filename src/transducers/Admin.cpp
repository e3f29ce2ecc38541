//===- transducers/Admin.cpp - Session-owned admin server -----------------===//
//
// Part of the fast-transducers project (see support/Hashing.h).
//
//===----------------------------------------------------------------------===//

#include "transducers/Admin.h"

#include "transducers/Session.h"

#include <utility>

namespace fast {

SessionAdminServer::SessionAdminServer(Session &S, std::string Title)
    : S(S), Title(std::move(Title)) {}

SessionAdminServer::~SessionAdminServer() { stop(); }

void SessionAdminServer::setQuiescent(std::function<bool()> Q) {
  Quiescent = std::move(Q);
}

void SessionAdminServer::setDecorator(
    std::function<void(obs::ReportBuilder &)> D) {
  Decorate = std::move(D);
}

bool SessionAdminServer::start(uint16_t Port, std::string *Error) {
  if (Server.running())
    return true;
  engine::AdminOptions Opts;
  Opts.Title = Title;
  // Readiness is the two-tier lifecycle plus the quiescence gate: the
  // shared tier being frozen is the point from which concurrent readers
  // are safe, but a parallel run freezes before its assertion fan-out
  // ends, so ready also waits for the host to report quiescence — the
  // same condition /debug/trace gates on.
  Opts.Ready = [this] { return S.frozen() && (!Quiescent || Quiescent()); };
  Opts.Quiescent = Quiescent;
  Opts.Decorate = Decorate;
  Admin = std::make_unique<engine::SessionAdmin>(S.engine(), std::move(Opts));
  Admin->registerOn(Server);
  if (!Server.start(Port, /*Workers=*/2, Error)) {
    Admin.reset();
    return false;
  }
  return true;
}

void SessionAdminServer::stop() { Server.stop(); }

void SessionAdminServer::publish() {
  if (Admin)
    Admin->publish();
}

} // namespace fast
