// Blocking protocol client: one connection, one request/response pair
// per call. Used by sunfloor_cli's submit/status/result subcommands and
// the service tests.
#pragma once

#include <string>

#include "sunfloor/util/json.h"

namespace sunfloor::service {

class Client {
  public:
    Client() = default;
    ~Client();

    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    /// Connect to a server address (unix path or host:port). False with
    /// a named error on failure.
    bool connect(const std::string& address, std::string& error);

    /// Send one request frame (without the trailing '\n') and block for
    /// the one-line response, parsed into `response`. False — with the
    /// connection dropped — on transport or response-parse failure; a
    /// server-side {"ok":false} is a *successful* call.
    bool call(const std::string& frame, JsonValue& response,
              std::string& error);

    void close();

  private:
    int fd_ = -1;
    std::string buf_;  ///< read-ahead between calls
};

}  // namespace sunfloor::service
