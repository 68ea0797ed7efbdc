#include "util/sync_dir.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bagc {

Status SyncParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = (slash == std::string::npos) ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Internal("open(" + dir + "): " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    Status err = Status::Internal("fsync(" + dir + "): " + std::strerror(errno));
    ::close(fd);
    return err;
  }
  ::close(fd);
  return Status::OK();
}

}  // namespace bagc
