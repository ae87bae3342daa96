# Run a command and require an exact exit code and, with -DMATCH, a
# stderr that matches the regex MATCH.
#
#   cmake -DEXPECTED=<code> [-DMATCH=<regex>] -P cli_exit_code.cmake --
#         <command> [args...]
#
# A plain ctest entry (even with WILL_FAIL) only tells zero from
# nonzero, so it cannot tell a diagnostic exit (1) from a usage error
# (2) or an abort.

set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(after_separator)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
        set(after_separator TRUE)
    endif()
endforeach()
if(NOT command OR NOT DEFINED EXPECTED)
    message(FATAL_ERROR "usage: cmake -DEXPECTED=<code> -P "
                        "cli_exit_code.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${status}" STREQUAL "${EXPECTED}")
    message(FATAL_ERROR "exit status '${status}', expected ${EXPECTED}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()
if(DEFINED MATCH AND NOT "${err}" MATCHES "${MATCH}")
    message(FATAL_ERROR "stderr does not match '${MATCH}'\n"
                        "stderr:\n${err}")
endif()
