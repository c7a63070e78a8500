# State-table oracle for bench_footprint: the rows from "runtime state per
# node" through the "mean state per sampled node" line must reproduce
# tests/golden/bench_footprint_state.txt byte for byte. The code-footprint
# lines above them measure the binary and differ between builds, so they
# are not compared.
#
# Usage:
#   cmake -DBENCH=<bench_footprint> -DGOLDEN=<tests/golden/...txt>
#         -DWORKDIR=<scratch dir> -P bench_footprint_state.cmake
#
# A change that alters the table on purpose re-records the golden: copy
# those lines of the new build's output into the golden file.

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  RESULT_VARIABLE status)
file(WRITE "${WORKDIR}/out.txt" "${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "bench_footprint exited ${status}:\n${out}")
endif()

string(FIND "${out}" "runtime state per node" begin)
string(FIND "${out}" "mean state per sampled node" mean)
if(begin EQUAL -1 OR mean EQUAL -1 OR mean LESS begin)
  message(FATAL_ERROR "no state table in ${WORKDIR}/out.txt")
endif()
string(SUBSTRING "${out}" ${mean} -1 rest)
string(FIND "${rest}" "\n" eol)
math(EXPR length "${mean} + ${eol} + 1 - ${begin}")
string(SUBSTRING "${out}" ${begin} ${length} table)
file(WRITE "${WORKDIR}/state.txt" "${table}")

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${WORKDIR}/state.txt" "${GOLDEN}"
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "${WORKDIR}/state.txt differs from ${GOLDEN}:\n${table}")
endif()
