# Runs BIN with the argument list ARGS and requires it to reject them: exit
# status 2 and a stderr that matches the regex MATCH.
#
#   cmake -DBIN=... "-DARGS=--a=1;--b" -DMATCH=--b -P expect_rejected.cmake
execute_process(
  COMMAND ${BIN} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit ${rc}, want 2\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "${BIN} ${ARGS}: stderr does not match '${MATCH}':\n${err}")
endif()
