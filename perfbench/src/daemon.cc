#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

extern char** environ;

namespace perfbench {
namespace {

std::string ReadTail(const std::string& path, size_t max_bytes = 2000) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  return text.size() > max_bytes ? text.substr(text.size() - max_bytes) : text;
}

}  // namespace

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary,
                                      const std::vector<std::string>& flags,
                                      const std::string& work_dir,
                                      double timeout_s) {
  static int spawn_count = 0;
  const std::string tag = work_dir + "/bagcd-" + std::to_string(++spawn_count);
  const std::string port_file = tag + ".port";
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->log_path_ = tag + ".log";
  ::unlink(port_file.c_str());

  std::vector<std::string> args = {binary, "--port", "0", "--port-file", port_file};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   daemon->log_path_.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  int rc = posix_spawn(&daemon->pid_, binary.c_str(), &actions, nullptr,
                       argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    daemon->pid_ = -1;
    Fail("cannot spawn " + binary + ": " + std::strerror(rc));
  }

  Clock::time_point t0 = Clock::now();
  while (true) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      daemon->port_ = static_cast<uint16_t>(port);
      return daemon;
    }
    int status = 0;
    if (::waitpid(daemon->pid_, &status, WNOHANG) == daemon->pid_) {
      daemon->pid_ = -1;
      Fail("bagcd exited during startup:\n" + ReadTail(daemon->log_path_));
    }
    if (SecondsSince(t0) > timeout_s) {
      Fail("bagcd did not write its port file within " +
           std::to_string(timeout_s) + " s:\n" + ReadTail(daemon->log_path_));
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bagc::BagcdClient Daemon::Connect() const {
  bagc::Result<bagc::BagcdClient> client =
      bagc::BagcdClient::Connect("127.0.0.1", port_);
  if (!client.ok()) Fail("connect to bagcd: " + client.status().ToString());
  return std::move(client).value();
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace perfbench
