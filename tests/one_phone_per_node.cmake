# One phone per node, end to end: scenario_runner runs
# tests/scripts/two_phones_one_node.scn and must refuse the second phone on
# node 0 with a diagnostic and a non-zero exit, while the first phone keeps
# the node's SIP port: alice registers, and bob's call rings alice, not
# carol.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DSCRIPT=<two_phones_one_node.scn>
#         -P one_phone_per_node.cmake

execute_process(
  COMMAND "${RUNNER}" "${SCRIPT}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE status)
message(STATUS "scenario_runner exited ${status}:\n${out}")
if(status EQUAL 0)
  message(FATAL_ERROR "a second phone on node 0 was accepted (exit 0)")
endif()
foreach(expected
    "!! phone carol refused: node 0 already has a phone"
    "[alice] REGISTER -> 200 OK"
    "[alice] ringing: call from bob@voicehoc.ch"
    "[bob] call to alice@voicehoc.ch established")
  string(FIND "${out}" "${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "missing from the transcript: ${expected}")
  endif()
endforeach()
foreach(forbidden "REGISTER -> FAILED" "[carol]")
  string(FIND "${out}" "${forbidden}" at)
  if(NOT at EQUAL -1)
    message(FATAL_ERROR "unexpected in the transcript: ${forbidden}")
  endif()
endforeach()
