# ctest script: fleet sweeps are deterministic in every execution knob. Run
# with:
#   cmake -DVSCHED_RUN=<binary> -DWORK_DIR=<dir> [-DPART=jobs|shards] \
#         -P vsched_run_fleet_sharded.cmake
#
# PART=jobs runs asserts 1-2, PART=shards runs asserts 3-4, and no PART runs
# all four. Each part writes its own files, so both may run at once.
#
# Asserts:
#   1. A tiny-fleet sweep (4 hosts / 10 VMs of control-plane + guest-stack
#      interleaving) emits byte-identical JSONL at --jobs 1 and --jobs 4.
#   2. A chaos fleet sweep (machine-level fault injectors armed on every
#      fourth host) replays byte-identically run over run — fault draws come
#      from the same forked RNG streams as everything else.
#   3. The JSONL is byte-identical at --shards 1, 2, and 4, and equal to the
#      default (no --shards or --jobs). The host partition into cells is fixed by the
#      FleetSpec (tiny: two 2-host cells), shard-crossing interactions travel
#      as (due, origin, seq)-ordered mailbox messages applied at lookahead
#      barriers, and per-cell RNG streams derive from the root seed in cell
#      order — so the thread count is unobservable, the same guarantee class
#      as the runner's --jobs (see docs/PERF.md, "Sharded fleet execution").
#   4. The same holds with a chaos plan armed: fault injectors live inside
#      cells and replay byte-identically at any shard count.

function(run_fleet out)
  execute_process(
      COMMAND ${VSCHED_RUN} --fleet tiny ${ARGN} --out ${out}
      RESULT_VARIABLE rc
      OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "vsched_run --fleet tiny ${ARGN} failed (rc=${rc})")
  endif()
endfunction()

function(expect_identical a b what)
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
      RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} and ${b} differ")
  endif()
endfunction()

if(NOT DEFINED PART OR PART STREQUAL "jobs")
  # --- 1. byte-identical across job counts ----------------------------------
  run_fleet(${WORK_DIR}/fleet_j1.jsonl --jobs 1)
  run_fleet(${WORK_DIR}/fleet_j4.jsonl --jobs 4)
  expect_identical(${WORK_DIR}/fleet_j1.jsonl ${WORK_DIR}/fleet_j4.jsonl
                   "fleet JSONL differs between --jobs=1 and --jobs=4")

  # --- 2. chaos fleet replay -------------------------------------------------
  run_fleet(${WORK_DIR}/fleet_chaos_a.jsonl --jobs 2 --fault-plan everything)
  run_fleet(${WORK_DIR}/fleet_chaos_b.jsonl --jobs 2 --fault-plan everything)
  expect_identical(${WORK_DIR}/fleet_chaos_a.jsonl ${WORK_DIR}/fleet_chaos_b.jsonl
                   "chaos fleet sweep does not replay byte-identically")
endif()

if(NOT DEFINED PART OR PART STREQUAL "shards")
  # --- 3. byte-identical across shard counts ---------------------------------
  run_fleet(${WORK_DIR}/fleet_default.jsonl)
  run_fleet(${WORK_DIR}/fleet_s1.jsonl --shards 1)
  run_fleet(${WORK_DIR}/fleet_s2.jsonl --shards 2)
  run_fleet(${WORK_DIR}/fleet_s4.jsonl --shards 4)
  expect_identical(${WORK_DIR}/fleet_s1.jsonl ${WORK_DIR}/fleet_default.jsonl
                   "fleet JSONL differs between --shards=1 and the default")
  expect_identical(${WORK_DIR}/fleet_s1.jsonl ${WORK_DIR}/fleet_s2.jsonl
                   "fleet JSONL differs between --shards=1 and --shards=2")
  expect_identical(${WORK_DIR}/fleet_s1.jsonl ${WORK_DIR}/fleet_s4.jsonl
                   "fleet JSONL differs between --shards=1 and --shards=4")

  # --- 4. chaos-plan replay across shard counts ------------------------------
  run_fleet(${WORK_DIR}/fleet_chaos_s1.jsonl --shards 1 --fault-plan everything)
  run_fleet(${WORK_DIR}/fleet_chaos_s4.jsonl --shards 4 --fault-plan everything)
  expect_identical(${WORK_DIR}/fleet_chaos_s1.jsonl ${WORK_DIR}/fleet_chaos_s4.jsonl
                   "chaos fleet differs between --shards=1 and --shards=4")
endif()
