# Behaviour oracle for the virtual-time benches: BENCH_baseline.json holds
# the rows of bench_scalability, bench_call_setup and bench_routing at full
# size. Rerun every bench the file names with --json and demand that its
# rows equal the committed ones, value for value. The rows are pure virtual
# time for a fixed seed, so any difference is a behaviour change: either a
# bug, or a change that must regenerate the file and say why.
#
# Usage:
#   cmake -DBENCH_DIR=<dir holding the bench binaries>
#         -DBASELINE=<BENCH_baseline.json> -DWORKDIR=<scratch dir>
#         -P bench_baseline_identity.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(READ "${BASELINE}" baseline)
file(MAKE_DIRECTORY "${WORKDIR}")
string(JSON bench_count LENGTH "${baseline}" benches)
math(EXPR last_bench "${bench_count} - 1")

foreach(b RANGE ${last_bench})
  string(JSON bench GET "${baseline}" benches ${b} bench)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" --json "${WORKDIR}/${bench}.json"
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_FILE "${WORKDIR}/${bench}.out"
    ERROR_FILE "${WORKDIR}/${bench}.err"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} --json exited ${status}")
  endif()

  file(READ "${WORKDIR}/${bench}.json" fresh)
  string(JSON want GET "${baseline}" benches ${b} rows)
  string(JSON got GET "${fresh}" rows)
  string(JSON same EQUAL "${want}" "${got}")
  if(same)
    continue()
  endif()

  # Name the first differing row so the failure explains itself.
  string(JSON want_count LENGTH "${want}")
  string(JSON got_count LENGTH "${got}")
  if(NOT want_count EQUAL got_count)
    message(FATAL_ERROR "${bench}: ${got_count} rows, BENCH_baseline.json "
                        "has ${want_count}")
  endif()
  math(EXPR last_row "${want_count} - 1")
  foreach(r RANGE ${last_row})
    string(JSON want_row GET "${want}" ${r})
    string(JSON got_row GET "${got}" ${r})
    string(JSON same EQUAL "${want_row}" "${got_row}")
    if(NOT same)
      message(FATAL_ERROR "${bench} row ${r} differs from BENCH_baseline.json"
                          "\n  committed: ${want_row}\n  now:       ${got_row}")
    endif()
  endforeach()
endforeach()
