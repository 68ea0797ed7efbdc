// bagctl: command-line client for a running bagcd server, plus local
// segment tooling.
//
// Usage:
//   bagctl --port N [--host ADDR] --replay FILE
//   bagctl --port N [--host ADDR] [--attach NAME] [--script FILE]
//   bagctl --export-seg OUT --collection FILE [--names a,b,...]
//
//   --replay FILE  replay a C:/S: transcript (a raw transcript, or a
//                  markdown file with ```transcript fences such as
//                  docs/PROTOCOL.md) and fail on the first divergence —
//                  the CI conformance check for the live server. A
//                  mismatch prints a line-numbered diff and exits 1.
//   --script FILE  send the file's protocol lines (stdin when omitted or
//                  "-") and print every response line; body lines of
//                  DICT/LOAD/LOADU32 are forwarded transparently. A
//                  trailing QUIT is appended when the script has none.
//   --attach NAME  bind the session to the named server collection
//                  before the first script line (sends "ATTACH NAME";
//                  see docs/PROTOCOL.md) — so existing scripts run
//                  against any tenant unchanged
//   --export-seg OUT --collection FILE
//                  local (no server): parse the bag IO collection in
//                  FILE, intern every value, and write it as an
//                  mmap-able sealed-bag segment (docs/SEGMENT.md) to
//                  OUT, ready for LOADSEG. Bags are named bag0, bag1,
//                  ... in file order unless --names overrides them.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bag/bag_io.h"
#include "server/client.h"
#include "server/protocol.h"
#include "tuple/segment.h"

namespace {

int Fail(const bagc::Status& status) {
  std::fprintf(stderr, "bagctl: %s\n", status.ToString().c_str());
  return 1;
}

int RunScript(const std::string& host, uint16_t port,
              const std::string& attach, std::istream& in) {
  auto client = bagc::BagcdClient::Connect(host, port);
  if (!client.ok()) return Fail(client.status());
  std::printf("%s\n", client->banner().c_str());
  if (!attach.empty()) {
    if (!client->SendLine("ATTACH " + attach).ok()) return 1;
    auto bound = client->ReadLine();
    if (!bound.ok()) return Fail(bound.status());
    std::printf("%s\n", bound->c_str());
    if (bound->rfind("OK ", 0) != 0) return 1;
  }
  bool quit_sent = false;
  bool in_body = false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (in_body) {
      // Body lines flow through without a response; END closes the body
      // and the next server line is its response.
      if (!client->SendLine(line).ok()) return 1;
      if (bagc::StripCommentView(line) != bagc::kWireEnd) continue;
      in_body = false;
    } else {
      std::vector<std::string> tokens = bagc::WireTokens(line);
      if (tokens.empty()) continue;
      if (!client->SendLine(line).ok()) return 1;
      if (bagc::WireCommandHasBody(tokens[0])) {
        in_body = true;
        continue;
      }
      quit_sent = tokens[0] == "QUIT" || tokens[0] == "SHUTDOWN";
    }
    // Read the complete response for the command just finished.
    auto first = client->ReadLine();
    if (!first.ok()) return Fail(first.status());
    std::printf("%s\n", first->c_str());
    if (bagc::WireResponseHasBody(*first)) {
      while (true) {
        auto next = client->ReadLine();
        if (!next.ok()) return Fail(next.status());
        std::printf("%s\n", next->c_str());
        if (*next == bagc::kWireEnd) break;
      }
    }
    if (quit_sent) return 0;
  }
  if (in_body) {
    // A QUIT here would be swallowed as a body line and both sides would
    // wait on each other forever.
    std::fprintf(stderr,
                 "bagctl: script ended inside a DICT/LOAD/LOADU32 body "
                 "(missing END)\n");
    return 1;
  }
  if (!quit_sent) {
    if (!client->SendLine("QUIT").ok()) return 1;
    auto bye = client->ReadLine();
    if (!bye.ok()) return Fail(bye.status());
    std::printf("%s\n", bye->c_str());
  }
  return 0;
}

int ExportSegment(const std::string& out_path, const std::string& collection_path,
                  const std::string& names_csv) {
  std::ifstream in(collection_path);
  if (!in) {
    std::fprintf(stderr, "bagctl: cannot read %s\n", collection_path.c_str());
    return 1;
  }
  std::stringstream text;
  text << in.rdbuf();
  bagc::AttributeCatalog catalog;
  bagc::DictionarySet dicts;
  auto bags = bagc::ParseCollection(text.str(), &catalog, &dicts);
  if (!bags.ok()) return Fail(bags.status());
  std::vector<std::string> names;
  if (!names_csv.empty()) {
    std::string current;
    for (char c : names_csv + ",") {
      if (c == ',') {
        if (!current.empty()) names.push_back(current);
        current.clear();
      } else {
        current += c;
      }
    }
    if (names.size() != bags->size()) {
      std::fprintf(stderr, "bagctl: --names lists %zu names for %zu bags\n",
                   names.size(), bags->size());
      return 1;
    }
  } else {
    for (size_t i = 0; i < bags->size(); ++i) {
      names.push_back("bag" + std::to_string(i));
    }
  }
  bagc::Status written =
      bagc::WriteSegmentFile(out_path, names, *bags, catalog, dicts);
  if (!written.ok()) return Fail(written);
  size_t rows = 0;
  for (const bagc::Bag& bag : *bags) rows += bag.SupportSize();
  std::printf("bagctl: wrote %zu bag(s), %zu support row(s) to %s\n",
              bags->size(), rows, out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string replay_path;
  std::string script_path;
  std::string export_path;
  std::string collection_path;
  std::string names_csv;
  std::string attach_name;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bagctl: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      host = next("--host");
    } else if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atoi(next("--port"));
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_path = next("--replay");
    } else if (std::strcmp(argv[i], "--script") == 0) {
      script_path = next("--script");
    } else if (std::strcmp(argv[i], "--export-seg") == 0) {
      export_path = next("--export-seg");
    } else if (std::strcmp(argv[i], "--collection") == 0) {
      collection_path = next("--collection");
    } else if (std::strcmp(argv[i], "--names") == 0) {
      names_csv = next("--names");
    } else if (std::strcmp(argv[i], "--attach") == 0) {
      attach_name = next("--attach");
    } else {
      std::fprintf(stderr,
                   "usage: bagctl --port N [--host ADDR] [--attach NAME] "
                   "(--replay FILE | --script FILE | -)\n"
                   "       bagctl --export-seg OUT --collection FILE "
                   "[--names a,b,...]\n");
      return 2;
    }
  }

  if (!export_path.empty()) {
    if (collection_path.empty()) {
      std::fprintf(stderr, "bagctl: --export-seg needs --collection FILE\n");
      return 2;
    }
    return ExportSegment(export_path, collection_path, names_csv);
  }

  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "bagctl: --port is required (1..65535)\n");
    return 2;
  }

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "bagctl: cannot read %s\n", replay_path.c_str());
      return 1;
    }
    std::stringstream text;
    text << in.rdbuf();
    auto replayed = bagc::ReplayTranscript(host, static_cast<uint16_t>(port),
                                           text.str());
    if (!replayed.ok()) return Fail(replayed.status());
    std::printf("bagctl: replayed %zu transcript block(s) verbatim\n", *replayed);
    return 0;
  }

  if (script_path.empty() || script_path == "-") {
    return RunScript(host, static_cast<uint16_t>(port), attach_name, std::cin);
  }
  std::ifstream in(script_path);
  if (!in) {
    std::fprintf(stderr, "bagctl: cannot read %s\n", script_path.c_str());
    return 1;
  }
  return RunScript(host, static_cast<uint16_t>(port), attach_name, in);
}
