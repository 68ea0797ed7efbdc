// The bagcd child process: spawned from the built binary, found through
// its --port-file, killed with SIGKILL and reaped by its owner.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/client.h"

namespace perfbench {

class Daemon {
 public:
  /// Spawns `binary` with `flags` plus --port 0 and a fresh --port-file
  /// under `work_dir`, and returns once the port file exists (bagcd
  /// writes it after --preload-seg and WAL replay). Throws BenchError if
  /// the daemon exits or stays silent for `timeout_s`.
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       const std::vector<std::string>& flags,
                                       const std::string& work_dir,
                                       double timeout_s = 60);

  /// SIGKILLs and reaps the daemon if it is still running.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return port_; }
  const std::string& log_path() const { return log_path_; }

  /// A fresh connection; throws BenchError on failure.
  bagc::BagcdClient Connect() const;

  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;

  /// SIGKILL + waitpid; idempotent.
  void Kill();

 private:
  Daemon() = default;

  pid_t pid_ = -1;
  uint16_t port_ = 0;
  std::string log_path_;
};

}  // namespace perfbench
