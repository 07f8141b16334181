# Runs the command after `--` and fails unless it exits with status EXPECT.
# ctest's WILL_FAIL also passes a crash (SIGABRT); this tells a clean usage
# error apart from one.
#
#   cmake -DEXPECT=2 -P expect_exit_status.cmake -- PROGRAM [ARGS...]
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit status ${EXPECT}, got '${status}'")
endif()
