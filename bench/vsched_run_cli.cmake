# ctest script: malformed worker counts are rejected, not guessed. Run with:
#   cmake -DVSCHED_RUN=<binary> -P vsched_run_cli.cmake
#
# --shards takes an integer >= 1 and --jobs an integer >= 0. Anything else
# (non-numbers, trailing junk, out-of-range values) must exit 2 with a
# message before any run starts — never be read as 0 and run anyway.

function(expect_rejected)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny --list ${ARGN}
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "vsched_run ${ARGN} exited ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "needs an integer")
    message(FATAL_ERROR "vsched_run ${ARGN}: no diagnostic on stderr: ${err}")
  endif()
endfunction()

expect_rejected(--shards 0)
expect_rejected(--shards -2)
expect_rejected(--shards abc)
expect_rejected(--shards 3x)
expect_rejected(--jobs -1)
expect_rejected(--jobs abc)
