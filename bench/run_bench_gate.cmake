# Helper for the bench_check, service_bench_check and covering_bench_check
# tests and their *_run targets (see CMakeLists.txt here): runs one bench
# binary, which enforces its own floors, then compare_bench.py against the
# committed baseline. Expects BENCH, BENCH_ARGS (the binary's arguments as
# one string, split like a shell command line), PYTHON, COMPARE, BASELINE
# and OUT_JSON.
separate_arguments(bench_args UNIX_COMMAND "${BENCH_ARGS}")
get_filename_component(bench_name "${BENCH}" NAME)
execute_process(
  COMMAND ${BENCH} ${bench_args} --out ${OUT_JSON}
  RESULT_VARIABLE bench_rc)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR "${bench_name} exited with ${bench_rc}")
endif()
execute_process(
  COMMAND ${PYTHON} ${COMPARE} ${BASELINE} ${OUT_JSON}
  RESULT_VARIABLE compare_rc)
if(NOT compare_rc EQUAL 0)
  message(FATAL_ERROR "compare_bench.py reported a regression (rc=${compare_rc})")
endif()
