# Virtual-output oracle for the repository benchmark: the perfbench driver
# (perfbench/driver.cpp, built from this tree's sources) must reproduce the
# seed-7 digests of its simulation workloads. A digest covers sim.events
# and the whole merged metrics registry, so any change to what a run does
# -- an event, a frame, a counter -- moves it. The sharded workload is
# checked at 1 and 2 worker threads: its digest must not depend on them.
#
# Usage:
#   cmake -DDRIVER=<perfbench_driver> -DWORKDIR=<scratch dir>
#         -P perfbench_digests.cmake
#
# A change that alters a workload's outputs on purpose re-records the
# digest below from the new build and says why.

set(cases
  "olsr-city-200|0|a60c26d0c2ecb5c1"
  "olsr-city-200-sharded|1|149107c90a4c7f28"
  "olsr-city-200-sharded|2|149107c90a4c7f28"
  "voice-aodv-100|0|ae0c6043785237c1")

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 workload)
  list(GET fields 1 threads)
  list(GET fields 2 expected)
  set(args --workload ${workload} --seed 7)
  if(NOT threads EQUAL 0)
    list(APPEND args --sim-threads ${threads})
  endif()
  execute_process(
    COMMAND "${DRIVER}" ${args}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    RESULT_VARIABLE status)
  string(REGEX MATCH "\"digest\":\"([0-9a-f]*)\"" match "${out}")
  set(digest "${CMAKE_MATCH_1}")
  message(STATUS "${workload} threads=${threads}: ${digest} (exit ${status})")
  if(NOT status EQUAL 0 OR NOT digest STREQUAL expected)
    string(APPEND failures
      "  ${workload} threads=${threads}: digest '${digest}', exit ${status};"
      " expected ${expected}\n")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "perfbench digests moved:\n${failures}")
endif()
