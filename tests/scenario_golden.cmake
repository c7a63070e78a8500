# Byte-identity oracle: three scenario_runner runs whose transcripts and
# metrics sidecars are pinned in tests/golden/. A change that claims
# "byte-identical" outputs must leave all six files unchanged:
#   demo     the built-in Figure 3 demo (AODV, call + text)
#   chaos    --chaos seed=5 duration=60 (fault plan + invariant monitor)
#   sharded  tests/scripts/sharded_demo.scn on 4 region lanes, 2 threads
# Each case runs in its own directory with relative paths only (the
# transcript prints the script and sidecar paths), so the transcripts do
# not depend on where the tree is checked out or built.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DGOLDEN=<tests/golden>
#         -DSCRIPT=<tests/scripts/sharded_demo.scn>
#         -DWORKDIR=<scratch dir> -P scenario_golden.cmake
#
# A change that alters these outputs on purpose re-records the goldens
# from the new build: run the case's command line in an empty directory
# and copy out.txt to <case>.txt and m.json to <case>.sidecar.json.

function(check_case name)
  set(dir "${WORKDIR}/${name}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  if(name STREQUAL "sharded")
    file(COPY "${SCRIPT}" DESTINATION "${dir}")
  endif()
  execute_process(
    COMMAND "${RUNNER}" ${ARGN} --metrics m.json
    WORKING_DIRECTORY "${dir}"
    OUTPUT_FILE "${dir}/out.txt"
    ERROR_FILE "${dir}/err.txt"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    file(READ "${dir}/out.txt" out)
    message(FATAL_ERROR "scenario_runner ${ARGN} exited ${status}:\n${out}")
  endif()
  foreach(pair "out.txt=${name}.txt" "m.json=${name}.sidecar.json")
    string(REPLACE "=" ";" pair "${pair}")
    list(GET pair 0 actual)
    list(GET pair 1 golden)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${dir}/${actual}" "${GOLDEN}/${golden}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
              "${name}: ${dir}/${actual} differs from ${GOLDEN}/${golden}")
    endif()
  endforeach()
endfunction()

check_case(demo)
check_case(chaos --chaos seed=5 duration=60)
check_case(sharded sharded_demo.scn --sim-threads 2)
