# Runs a command-line tool that must reject its arguments: passes only when
# the tool exits with exactly 2 and prints its usage line.
#
#   cmake -DCOMMAND="<tool>;<arg>;..." -P expect_usage_error.cmake

execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE exit_code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT exit_code STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got '${exit_code}'\n${out}${err}")
endif()
if(NOT out MATCHES "usage: ")
  message(FATAL_ERROR "no usage line in the output\n${out}${err}")
endif()
message(STATUS "exit 2 with usage: ${err}")
