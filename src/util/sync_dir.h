// Directory durability for the on-disk formats: a file written and
// synced is only reachable after a power loss once the directory entry
// naming it is synced too. BAGCSEG's temp-then-rename write and the WAL's
// create and unlink all end here.
#pragma once

#include <string>

#include "util/status.h"

namespace bagc {

/// fsyncs the directory containing `path`, making a just-created,
/// just-renamed or just-unlinked directory entry durable. Without it, a
/// power loss can drop the file itself — a WAL and every fdatasync'd
/// commit in it, or a segment a WAL replays onto — even though the
/// file's own bytes were synced.
Status SyncParentDir(const std::string& path);

}  // namespace bagc
