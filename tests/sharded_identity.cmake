# Tool-level byte-identity check for region sharding (docs/ARCHITECTURE.md):
# run the same sharded scenario script at --sim-threads 1, 2 and 4 and
# demand identical narration and identical metrics sidecars. `--sim-threads` is
# execution policy, never content; any divergence is a determinism bug.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DSCRIPT=<script.scn>
#         -DWORKDIR=<scratch dir> -P sharded_identity.cmake

foreach(threads 1 2 4)
  set(dir "${WORKDIR}/t${threads}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${RUNNER}" "${SCRIPT}" --sim-threads ${threads} --metrics m.json
    WORKING_DIRECTORY "${dir}"
    OUTPUT_FILE "${dir}/out.txt"
    ERROR_FILE "${dir}/err.txt"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    file(READ "${dir}/out.txt" out)
    message(FATAL_ERROR
            "scenario_runner --sim-threads ${threads} exited ${status}:\n${out}")
  endif()
endforeach()

foreach(threads 2 4)
  foreach(artifact out.txt m.json)
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              "${WORKDIR}/t1/${artifact}" "${WORKDIR}/t${threads}/${artifact}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
              "${artifact} differs between --sim-threads 1 and ${threads}: "
              "sharded runs must be byte-identical for any thread count")
    endif()
  endforeach()
endforeach()
