# Tool-level byte-identity check for the P2P chaos soak: run
# `--chaos ... p2p=N` (region-sharded by construction) at --sim-threads 1
# and 2 and demand identical narration and identical metrics sidecars that
# include the MANET nodes' series.
# The soak itself must also pass (exit 0): zero invariant violations and
# 100% lookup success after stabilization.
#
# Usage:
#   cmake -DRUNNER=<scenario_runner> -DWORKDIR=<scratch dir>
#         -P chaos_p2p_identity.cmake

foreach(threads 1 2)
  set(dir "${WORKDIR}/t${threads}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${RUNNER}" --chaos seed=5 duration=40 p2p=3
            --sim-threads ${threads} --metrics m.json
    WORKING_DIRECTORY "${dir}"
    OUTPUT_FILE "${dir}/out.txt"
    ERROR_FILE "${dir}/err.txt"
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    file(READ "${dir}/out.txt" out)
    message(FATAL_ERROR
            "scenario_runner --chaos p2p=3 --sim-threads ${threads} exited "
            "${status}:\n${out}")
  endif()
endforeach()

# The sidecar must cover the MANET nodes, whose series live in the region
# lanes' registries until they are folded into the exported one.
file(READ "${WORKDIR}/t1/m.json" sidecar)
foreach(series routing.control_packets_total medium.frames_corrupted_total)
  string(FIND "${sidecar}" "\"${series}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "t1/m.json has no ${series} series: the region lanes' metrics "
            "were not folded into the sidecar")
  endif()
endforeach()

foreach(artifact out.txt m.json)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORKDIR}/t1/${artifact}" "${WORKDIR}/t2/${artifact}"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR
            "${artifact} differs between --sim-threads 1 and 2: the chaos "
            "p2p soak must be byte-identical for any thread count")
  endif()
endforeach()
