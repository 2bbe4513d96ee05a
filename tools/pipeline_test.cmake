# End-to-end smoke test of the CLI workflow:
#   laar_generate -> laar_solve -> laar_simulate (normal + worst case)
#   -> laar_trace (summarize, validate, filter).
# Seed 6 with 12 PEs on 6 hosts is a known FT-Search-solvable instance at
# IC 0.6 (generation is deterministic, so this is stable).

set(APP ${WORKDIR}/pipeline_app.json)
set(STRATEGY ${WORKDIR}/pipeline_strategy.json)

execute_process(
  COMMAND ${GEN} --out=${APP} --pes=12 --hosts=6 --seed=6
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_generate failed with ${rc}")
endif()

execute_process(
  COMMAND ${SOLVE} --app=${APP} --out=${STRATEGY} --ic=0.6 --hosts=6 --time-limit=10
          --progress
  ERROR_VARIABLE solve_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_solve failed with ${rc}")
endif()
if(NOT solve_err MATCHES "progress: t=.*nodes=")
  message(FATAL_ERROR "laar_solve --progress emitted no snapshots:\n${solve_err}")
endif()

execute_process(
  COMMAND ${SIM} --app=${APP} --strategy=${STRATEGY} --hosts=6 --trace-seconds=60
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_simulate failed with ${rc}")
endif()
if(NOT out MATCHES "tuples processed")
  message(FATAL_ERROR "laar_simulate output missing metrics:\n${out}")
endif()
if(out MATCHES "dropped \\(overflow\\)[ ]+0[^0-9]")
  message(STATUS "no drops in the best case, as expected")
endif()

execute_process(
  COMMAND ${SIM} --app=${APP} --strategy=${STRATEGY} --hosts=6 --trace-seconds=60
          --worst-case
  OUTPUT_VARIABLE worst_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_simulate --worst-case failed with ${rc}")
endif()

# Extract the processed counts and check worst <= best.
string(REGEX MATCH "tuples processed[ ]+([0-9]+)" _ ${out})
set(best ${CMAKE_MATCH_1})
string(REGEX MATCH "tuples processed[ ]+([0-9]+)" _ ${worst_out})
set(worst ${CMAKE_MATCH_1})
if(worst GREATER best)
  message(FATAL_ERROR "worst-case processed ${worst} > best-case ${best}")
endif()
message(STATUS "pipeline OK: best=${best} worst=${worst}")

# A strategy solved for another app is rejected before it is read, the
# worst-case survivor choice included, with both shapes in the message.
set(OTHER_APP ${WORKDIR}/pipeline_other_app.json)
execute_process(
  COMMAND ${GEN} --out=${OTHER_APP} --pes=10 --hosts=6 --seed=6
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_generate --pes=10 failed with ${rc}")
endif()
execute_process(
  COMMAND ${SIM} --app=${OTHER_APP} --strategy=${STRATEGY} --hosts=6 --trace-seconds=60
          --worst-case
  ERROR_VARIABLE mismatch_err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 1 OR NOT mismatch_err MATCHES
   "declares num_components=14 .* but the app and deployment have num_components=12 ")
  message(FATAL_ERROR "laar_simulate took another app's strategy: exit ${rc}\n${mismatch_err}")
endif()

# --- tracing leg: record a worst-case run, then summarize/validate/filter ---
set(TRACE_JSON ${WORKDIR}/pipeline_trace.json)
set(TRACE_FILTERED ${WORKDIR}/pipeline_trace_filtered.json)

execute_process(
  COMMAND ${SIM} --app=${APP} --strategy=${STRATEGY} --hosts=6 --trace-seconds=60
          --worst-case --trace-out=${TRACE_JSON}
  OUTPUT_VARIABLE trace_run_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_simulate --trace-out failed with ${rc}")
endif()
if(NOT trace_run_out MATCHES "summary: drops=")
  message(FATAL_ERROR "laar_simulate run summary missing:\n${trace_run_out}")
endif()
if(NOT EXISTS ${TRACE_JSON})
  message(FATAL_ERROR "laar_simulate did not write ${TRACE_JSON}")
endif()

execute_process(
  COMMAND ${TRACE} validate --in=${TRACE_JSON}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_trace validate rejected the trace with ${rc}")
endif()

execute_process(
  COMMAND ${TRACE} --in=${TRACE_JSON}
  OUTPUT_VARIABLE summary_out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_trace summarize failed with ${rc}")
endif()
if(NOT summary_out MATCHES "events")
  message(FATAL_ERROR "laar_trace summary looks empty:\n${summary_out}")
endif()

execute_process(
  COMMAND ${TRACE} filter --in=${TRACE_JSON} --filter=failures,activation
          --out=${TRACE_FILTERED}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "laar_trace filter failed with ${rc}")
endif()
execute_process(
  COMMAND ${TRACE} validate --in=${TRACE_FILTERED}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "filtered trace is not valid Chrome trace JSON (${rc})")
endif()
message(STATUS "trace pipeline OK")
