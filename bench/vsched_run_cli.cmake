# ctest script: malformed numeric flags are rejected, not guessed. Run with:
#   cmake -DVSCHED_RUN=<binary> -P vsched_run_cli.cmake
#
# --shards takes an integer >= 1; --jobs, --warmup-ms, --measure-ms,
# --event-budget and --seed take integers >= 0 (--seed also in 0x hex).
# Anything else (non-numbers, signs, trailing junk, out-of-range values) must
# exit 2 with a message before any run starts — never be read as 0, truncated
# or ignored and run anyway.

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

function(expect_accepted)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny --list ${ARGN}
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsched_run ${ARGN} exited ${rc}, expected 0: ${err}")
  endif()
endfunction()

expect_rejected(--shards 0)
expect_rejected(--shards -2)
expect_rejected(--shards abc)
expect_rejected(--shards 3x)
expect_rejected(--jobs -1)
expect_rejected(--jobs abc)
expect_rejected(--measure-ms abc)
expect_rejected(--measure-ms 10x)
expect_rejected(--measure-ms 99999999999999999999)
expect_rejected(--warmup-ms -5)
expect_rejected(--warmup-ms=)
expect_rejected(--seed abc)
expect_rejected(--seed -1)
expect_rejected(--seed 0x)
expect_rejected(--event-budget abc)
expect_rejected(--event-budget 5e6)

expect_accepted(--seed 0x2a --warmup-ms 0 --measure-ms 200 --event-budget 1000000 --jobs 2)
