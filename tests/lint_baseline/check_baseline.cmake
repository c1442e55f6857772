# Runs coral_lint --json on the abstract-interpretation fixture and diffs
# the output against the checked-in baseline (the same check as the CI
# analysis-lint job). Warnings without errors must exit 1.
#
#   cmake -DLINT=<coral_lint> -DOUT=<scratch.json> -P check_baseline.cmake
#
# Run from the source root: the diagnostics carry the fixture path as
# given on the command line.
set(FIXTURE tests/lint_baseline/absint_fixture.crl)
set(BASELINE tests/lint_baseline/absint_fixture.baseline.json)

execute_process(COMMAND ${LINT} --json ${FIXTURE}
                OUTPUT_FILE ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "coral_lint exited ${rc}, expected 1")
endif()

execute_process(COMMAND diff -u ${BASELINE} ${OUT} RESULT_VARIABLE drc)
if(NOT drc EQUAL 0)
  message(FATAL_ERROR "coral_lint output differs from ${BASELINE}")
endif()
