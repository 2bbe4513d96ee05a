# Runs BIN with the argument list ARGS and requires it to succeed: exit
# status 0 and a stdout that matches every regex in the list MATCH. With
# SAME_ARGS, BIN must also succeed with that list and print the same stdout.
#
#   cmake -DBIN=... "-DARGS=--a=1;--b" "-DMATCH=first;second" \
#     ["-DSAME_ARGS=--a=1;--b;--c"] -P expect_output.cmake
execute_process(
  COMMAND ${BIN} ${ARGS}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want 0\n${out}")
endif()
foreach(match IN LISTS MATCH)
  if(NOT out MATCHES "${match}")
    message(FATAL_ERROR "${BIN} ${ARGS}: stdout does not match '${match}':\n${out}")
  endif()
endforeach()
if(DEFINED SAME_ARGS)
  execute_process(
    COMMAND ${BIN} ${SAME_ARGS}
    OUTPUT_VARIABLE same_out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0 OR NOT same_out STREQUAL out)
    message(FATAL_ERROR "${BIN} ${SAME_ARGS}: exit ${rc}, want 0 and the stdout of "
                        "${ARGS}:\n${out}\ngot:\n${same_out}")
  endif()
endif()
