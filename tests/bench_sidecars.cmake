# Sidecar check for the single-run benches that export one registry for
# their whole table (bench_slp_overhead, bench_gateway): run each in a work
# dir, then validate its <name>.metrics.json against the catalog with
# `metrics_check sidecar` (schema keys present, every name documented).
#
# Usage:
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DCHECK=<metrics_check>
#         -DCATALOG=<docs/METRICS.md> -DWORKDIR=<scratch dir>
#         -P bench_sidecars.cmake

file(MAKE_DIRECTORY "${WORKDIR}")
foreach(bench bench_slp_overhead bench_gateway)
  file(REMOVE "${WORKDIR}/${bench}.metrics.json")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}"
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_FILE "${WORKDIR}/${bench}.txt"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${bench} exited ${status}")
  endif()
  execute_process(
    COMMAND "${CHECK}" sidecar "${WORKDIR}/${bench}.metrics.json" "${CATALOG}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "metrics_check sidecar ${bench}.metrics.json exited ${status}:\n"
            "${out}")
  endif()
endforeach()
