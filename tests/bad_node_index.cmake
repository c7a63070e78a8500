# A node index past the MANET is a script error, not a crash: scenario_runner
# runs tests/scripts/bad_node_index.scn, whose gateway, phone and slp lines
# each name a node the 3-node chain does not have, and must report each one
# and exit 1.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DSCRIPT=<bad_node_index.scn>
#         -P bad_node_index.cmake

execute_process(
  COMMAND "${RUNNER}" "${SCRIPT}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
message(STATUS "scenario_runner exited ${status}:\n${out}${err}")
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1 for bad node indices, got ${status}")
endif()
foreach(expected
    "> gateway 3\n  !! bad node 3\n"
    "> phone 9 alice voicehoc.ch\n  !! bad node 9\n"
    "> slp 3\n  !! bad node 3\n")
  string(FIND "${out}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing from the transcript: ${expected}")
  endif()
endforeach()
