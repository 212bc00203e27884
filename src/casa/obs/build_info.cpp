#include "casa/obs/build_info.hpp"

#ifndef CASA_GIT_DESCRIBE
#define CASA_GIT_DESCRIBE "unknown"
#endif
#ifndef CASA_BUILD_TYPE
#define CASA_BUILD_TYPE "unknown"
#endif
#ifndef CASA_CXX_FLAGS
#define CASA_CXX_FLAGS ""
#endif
#ifndef CASA_COMPILER
#define CASA_COMPILER "unknown"
#endif

namespace casa::obs {

// Defined in the generated source_hash.cpp (see source_hash.cmake).
extern const char kSourceHash[];

const BuildInfo& build_info() {
  static const BuildInfo info{CASA_GIT_DESCRIBE, CASA_BUILD_TYPE,
                              CASA_CXX_FLAGS, CASA_COMPILER, kSourceHash};
  return info;
}

}  // namespace casa::obs
