// The host and build a benchmark report came from: CPUs, compiler, build
// type and git revision. Targets that include this header get
// ABRR_BUILD_TYPE and ABRR_SOURCE_DIR from bench/CMakeLists.txt.
#pragma once

#include <array>
#include <cstdio>
#include <string>
#include <thread>

namespace abrr::bench {

/// `git describe --always --dirty` of the source tree, or "unknown".
/// Read it before writing a report into the checkout: the report itself
/// would make the tree dirty.
inline std::string git_revision() {
  FILE* p = popen("git -C '" ABRR_SOURCE_DIR
                  "' describe --always --dirty --abbrev=40 2>/dev/null",
                  "r");
  if (p == nullptr) return "unknown";
  std::array<char, 128> buf{};
  std::string out;
  while (std::fgets(buf.data(), buf.size(), p) != nullptr) out += buf.data();
  const bool ok = pclose(p) == 0;
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return ok && !out.empty() ? out : "unknown";
}

/// The compiler's name and version.
inline std::string compiler() {
#if defined(__clang__)
  return __VERSION__;  // "Clang 15.0.7 ..." names itself
#elif defined(__GNUC__)
  return std::string{"g++ "} + __VERSION__;
#else
  return "unknown";
#endif
}

/// Writes the stamp as JSON members, each line indented by two spaces
/// and followed by a comma.
inline void write_build_stamp(std::FILE* f, const std::string& revision) {
  std::fprintf(f, "  \"host_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"compiler\": \"%s\",\n", compiler().c_str());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", ABRR_BUILD_TYPE);
  std::fprintf(f, "  \"git\": \"%s\",\n", revision.c_str());
}

}  // namespace abrr::bench
