# Runs BIN with the argument list ARGS and requires it to succeed: exit
# status 0 and a stdout that matches every regex in the list MATCH.
#
#   cmake -DBIN=... "-DARGS=--a=1;--b" "-DMATCH=first;second" -P expect_output.cmake
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
