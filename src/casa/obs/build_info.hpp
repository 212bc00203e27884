// Build provenance embedded in every run artifact.
//
// Values are injected by src/casa/obs/CMakeLists.txt: git describe at
// configure time, the active build type and flags, and a hash of the
// library sources regenerated at build time (source_hash.cmake); a build
// outside git falls back to "unknown" for the describe string. Artifacts
// carry these so a metrics JSON can always be traced back to the exact
// code and compiler configuration that produced it.
#pragma once

#include <string>

namespace casa::obs {

struct BuildInfo {
  std::string git_describe;  ///< `git describe --always --dirty`
  std::string build_type;    ///< CMAKE_BUILD_TYPE
  std::string cxx_flags;     ///< CMAKE_CXX_FLAGS (may be empty)
  std::string compiler;      ///< compiler id + version
  /// 16 hex digits of SHA-256 over the library sources this binary was
  /// compiled from. Unlike git_describe it changes on every rebuild that
  /// follows an edit, committed or not.
  std::string source_hash;
};

const BuildInfo& build_info();

}  // namespace casa::obs
