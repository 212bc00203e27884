# Checks src/casa/obs/source_hash.cmake, the build-time hash behind the
# result-cache key's build field:
#   * an edited source changes the hash, and so does a new source;
#   * an unchanged tree leaves the generated file untouched (same bytes,
#     same timestamp), so a no-op build recompiles and relinks nothing.
#
#   cmake -DSCRIPT=<source_hash.cmake> -DWORK_DIR=<work dir> \
#         -P source_hash_check.cmake
if(NOT SCRIPT OR NOT WORK_DIR)
  message(FATAL_ERROR "source_hash_check: set SCRIPT and WORK_DIR")
endif()

set(tree "${WORK_DIR}/tree")
set(out "${WORK_DIR}/source_hash.cpp")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${tree}/sub")
file(WRITE "${tree}/sub/a.cpp" "int a() { return 1; }\n")
file(WRITE "${tree}/b.hpp" "int a();\n")

function(hash_tree result)
  execute_process(COMMAND "${CMAKE_COMMAND}" -DSOURCE_DIR=${tree}
                          -DOUTPUT=${out} -P "${SCRIPT}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "source_hash_check: the hash script failed (${rc})")
  endif()
  file(READ "${out}" text)
  if(NOT text MATCHES "kSourceHash\\[\\] = \"([0-9a-f]+)\"")
    message(FATAL_ERROR "source_hash_check: no hash in ${out}:\n${text}")
  endif()
  string(LENGTH "${CMAKE_MATCH_1}" n)
  if(NOT n EQUAL 16)
    message(FATAL_ERROR "source_hash_check: hash '${CMAKE_MATCH_1}' is not "
                        "16 hex digits")
  endif()
  set(${result} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

hash_tree(first)
file(TIMESTAMP "${out}" stamp_first "%s")

# Unchanged tree: same hash, and the file is not rewritten. The pause makes
# a rewrite visible in the one-second timestamp.
execute_process(COMMAND "${CMAKE_COMMAND}" -E sleep 1.1)
hash_tree(again)
file(TIMESTAMP "${out}" stamp_again "%s")
if(NOT again STREQUAL first)
  message(FATAL_ERROR "source_hash_check: unchanged tree hashed differently "
                      "(${first} then ${again})")
endif()
if(NOT stamp_again STREQUAL stamp_first)
  message(FATAL_ERROR "source_hash_check: unchanged tree rewrote ${out}")
endif()

# An edited source moves the hash.
file(WRITE "${tree}/sub/a.cpp" "int a() { return 2; }\n")
hash_tree(edited)
if(edited STREQUAL first)
  message(FATAL_ERROR "source_hash_check: editing sub/a.cpp kept hash ${first}")
endif()

# So does a new source.
file(WRITE "${tree}/sub/c.cpp" "int c() { return 3; }\n")
hash_tree(added)
if(added STREQUAL edited)
  message(FATAL_ERROR "source_hash_check: adding sub/c.cpp kept hash ${edited}")
endif()

message(STATUS "source_hash_check: OK (${first} -> ${edited} -> ${added})")
