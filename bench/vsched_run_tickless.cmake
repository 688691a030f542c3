# ctest script: the default tickless run must not differ by a single output
# byte from --no-tickless, the ticking oracle that fires every periodic timer
# and every vtop probe sample. Tick elision, dormant bandwidth refills and
# elided probe samples only skip firings that are provable no-ops, so the
# JSONL rows of each slice byte-compare across the two modes. Run with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> -P vsched_run_tickless.cmake
#
# Slices:
#  - fig02: flat VM, host-granularity shaping — guest NOHZ on mostly-idle
#    vCPUs;
#  - fig18_rcvm canneal: bandwidth-capped vCPU classes — dormant host refill
#    timers — and vSched's vtop pair probes;
#  - tiny fleet, seed 2, sharded: a NOHZ tick resumed in a barrier phase
#    (placement, departure, migration commit) at an instant whose timers
#    RunUntil already fired; without the band-close rule in
#    Simulation::RunUntil the resumed tick fires twice there;
#  - fig18_rcvm canneal under the `everything` fault plan: steal bursts,
#    storms, droops, bandwidth jitter and probe-sample chaos;
#  - one --adversary row (cycle stealer, robust layer on).

function(run_pair tag)
  set(common_args ${ARGN})

  execute_process(
      COMMAND ${VSCHED_RUN} ${common_args} --out ${WORK_DIR}/${tag}_tickless.jsonl
      RESULT_VARIABLE tickless_rc
      OUTPUT_QUIET ERROR_QUIET)
  if(NOT tickless_rc EQUAL 0)
    message(FATAL_ERROR "${tag}: default (tickless) vsched_run failed (rc=${tickless_rc})")
  endif()

  execute_process(
      COMMAND ${VSCHED_RUN} ${common_args} --no-tickless
              --out ${WORK_DIR}/${tag}_ticking.jsonl
      RESULT_VARIABLE ticking_rc
      OUTPUT_QUIET ERROR_QUIET)
  if(NOT ticking_rc EQUAL 0)
    message(FATAL_ERROR "${tag}: --no-tickless vsched_run failed (rc=${ticking_rc})")
  endif()

  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
              ${WORK_DIR}/${tag}_tickless.jsonl ${WORK_DIR}/${tag}_ticking.jsonl
      RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${tag}: JSONL differs between the default run and --no-tickless")
  endif()
endfunction()

set(short --warmup-ms 50 --measure-ms 200)
run_pair(tl_fig02 --experiment fig02 --filter img-dnn ${short})
run_pair(tl_fig18 --experiment fig18_rcvm --filter canneal ${short})
run_pair(tl_fleet --fleet tiny --seed 2 --shards 2 --warmup-ms 0 --measure-ms 200)
run_pair(tl_chaos --experiment fig18_rcvm --filter canneal --fault-plan everything ${short})
run_pair(tl_adversary --adversary --filter adversary/steal/vsched/robust=on)
