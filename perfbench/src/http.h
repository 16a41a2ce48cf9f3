// Loopback HTTP/1.1 client and funnel_serve process control.
//
// The daemon answers every request with "Connection: close", so each
// request is one TCP connection; the generator never holds more open at
// once than it has client threads.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

struct HttpReply {
  bool ok = false;  ///< a response was read and parsed
  int status = 0;
  std::string body;
};

HttpReply http(int port, const std::string& method, const std::string& path,
               const std::string& body = {});

/// Extract an unsigned integer field `"key":123` from a flat JSON body.
bool json_uint(const std::string& body, const std::string& key,
               unsigned long long* out);

/// One funnel_serve child process.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill_now(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawn `bin` with `args` (the port file is added here) and wait until
  /// /readyz answers 200. Every tenant is created — and crash-recovered —
  /// before the daemon binds, so ready means fully recovered. Returns false
  /// when the daemon exits or does not become ready within `timeout_s`;
  /// *exit_code carries the exit status when it exited.
  bool spawn(const std::string& bin, const std::vector<std::string>& args,
             const std::string& dir, double timeout_s, int* exit_code);
  /// SIGKILL and reap. No-op when not running.
  void kill_now();

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench
