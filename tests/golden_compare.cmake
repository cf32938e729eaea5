# Golden-output check: run one command and compare its standard output,
# byte for byte, with a committed golden file. Registered by
# tests/CMakeLists.txt; run by hand as
#
#   cmake -DGOLDEN=<golden> -DOUTPUT=<actual> -P golden_compare.cmake -- <cmd> [args...]
#
# A golden holds a paper result: on a mismatch fix the code, or regenerate
# the golden deliberately (CONTRIBUTING.md) -- never loosen the compare.
if(NOT DEFINED GOLDEN OR NOT DEFINED OUTPUT)
  message(FATAL_ERROR "golden_compare: GOLDEN and OUTPUT must be set")
endif()

set(cmd)
set(take FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(take)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(take TRUE)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "golden_compare: no command after --")
endif()
list(JOIN cmd " " cmd_text)

execute_process(COMMAND ${cmd} OUTPUT_FILE "${OUTPUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_compare: '${cmd_text}' exited with ${rc}")
endif()

file(READ "${GOLDEN}" expected)
file(READ "${OUTPUT}" actual)
if(NOT expected STREQUAL actual)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${OUTPUT}")
  endif()
  message(FATAL_ERROR "golden_compare: output of '${cmd_text}' differs from "
                      "${GOLDEN} (actual output: ${OUTPUT})")
endif()
