# End-to-end check of the pull-based dispatcher, run as a ctest (and as a CI step):
#   1. sweep_shard writes its example spec; the monolithic path (K=1) produces mono.csv;
#   2. sweep_dispatch must reproduce mono.csv byte-for-byte over every transport
#      (subprocess, in-process, command, localhost socket) and for K in {2,4,8};
#   3. ditto under failure injection: a worker killed mid-lease (--inject-fail), a
#      silent worker tripping the straggler deadline (--inject-hang), and a slow
#      worker whose lease gets stolen (--inject-delay with a small lease target);
#   4. ditto with --pipeline-leases (grant N+1 while N drains);
#   5. kill-the-dispatcher-then-resume: --crash-after exits nonzero mid-sweep, a
#      rerun with the same --checkpoint-dir preseeds the surviving checkpoint and
#      finishes; the resumed CSV is byte-compared to mono.csv on every transport,
#      and a deliberately corrupted checkpoint must be a hard error, not a silent
#      restart.
# Socket-transport steps tee dispatcher stderr into ${WORK_DIR}/logs/ so CI can
# upload the lease/steal event stream as an artifact when a step fails.
# Invoked with -DSWEEP_SHARD=... -DSWEEP_DISPATCH=... -DWORK_DIR=...
foreach(var SWEEP_SHARD SWEEP_DISPATCH WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "dispatch_e2e: ${var} not defined")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR}/logs)

function(run_step)
  execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dispatch_e2e: '${ARGV}' failed with exit code ${rc}")
  endif()
endfunction()

# Like run_step, but keeps the dispatcher's stderr (the -v event stream: leases,
# revocations, steals, straggler verdicts) in logs/<name>.log for CI artifacts.
function(run_step_logged name)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  ERROR_FILE ${WORK_DIR}/logs/${name}.log)
  if(NOT rc EQUAL 0)
    file(READ ${WORK_DIR}/logs/${name}.log log_tail)
    message(FATAL_ERROR "dispatch_e2e: step '${name}' failed with exit code ${rc}; "
                        "log follows\n${log_tail}")
  endif()
endfunction()

function(compare_files a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${WORK_DIR}/${a}
                  ${WORK_DIR}/${b} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dispatch_e2e: ${a} and ${b} differ")
  endif()
endfunction()

run_step(${SWEEP_SHARD} --write-default-spec=spec.txt)
run_step(${SWEEP_SHARD} --spec=spec.txt --shards=1 --shard=0
         --out=mono.results --csv=mono.csv)

# 3 subprocess workers, clean pull-mode run.
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=3 --transport=subprocess
         --worker-bin=${SWEEP_SHARD} --worker-threads=2 --out=dispatched.csv)
compare_files(mono.csv dispatched.csv)

# 2 subprocess workers, worker 0 killed after reporting 1 unit (mid-lease): the
# dispatcher must requeue the unfinished remainder without re-running finished units.
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=2 --transport=subprocess
         --worker-bin=${SWEEP_SHARD} --worker-threads=2 --inject-fail=0:1
         --out=dispatched_fail.csv -v)
compare_files(mono.csv dispatched_fail.csv)

# Silent worker: accepts its first lease, never reports; the straggler deadline
# revokes it and the remainder lands on worker 1 / a replacement.
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=2 --transport=subprocess
         --worker-bin=${SWEEP_SHARD} --worker-threads=2 --inject-hang=0:0
         --deadline-ms=2000 --out=dispatched_hang.csv -v)
compare_files(mono.csv dispatched_hang.csv)

# Slow worker + small lease target: the idle fast worker must steal the overloaded
# lease (revocation + re-grant) and the duplicates race is settled first-wins.
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=2 --transport=subprocess
         --worker-bin=${SWEEP_SHARD} --worker-threads=2 --inject-delay=0:400
         --inject-dup=1 --target-lease-ms=150 --out=dispatched_steal.csv -v)
compare_files(mono.csv dispatched_steal.csv)

# Worker-count matrix over the in-process transport: the merged bytes must not
# depend on K.
foreach(k 2 4 8)
  run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=${k} --transport=inprocess
           --target-lease-ms=200 --out=dispatched_k${k}.csv)
  compare_files(mono.csv dispatched_k${k}.csv)
endforeach()

# Command transport: the worker command is a shell template ({worker} expands to the
# launch index) — locally it just execs sweep_shard, remotely it would be ssh.
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=2 --transport=command
         "--worker-cmd=${SWEEP_SHARD} --worker --threads={worker}"
         --out=dispatched_cmd.csv)
compare_files(mono.csv dispatched_cmd.csv)

# Socket transport: workers are launched locally and dial back over localhost TCP.
# Clean run, then a kill schedule; stderr goes to logs/ for CI artifacts.
run_step_logged(socket_clean ${SWEEP_DISPATCH} --spec=spec.txt --workers=4
                --transport=socket --worker-bin=${SWEEP_SHARD} --worker-threads=2
                --out=dispatched_socket.csv -v)
compare_files(mono.csv dispatched_socket.csv)

run_step_logged(socket_fail ${SWEEP_DISPATCH} --spec=spec.txt --workers=2
                --transport=socket --worker-bin=${SWEEP_SHARD} --worker-threads=2
                --inject-fail=0:1 --out=dispatched_socket_fail.csv -v)
compare_files(mono.csv dispatched_socket_fail.csv)

# Lease pipelining: each worker's next lease is granted while the current one
# drains.  Clean run plus a kill schedule (a dead worker's undelivered prefetch
# must be requeued like any other lease).
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=3 --transport=inprocess
         --pipeline-leases --max-lease-units=4 --out=dispatched_pipe.csv)
compare_files(mono.csv dispatched_pipe.csv)
run_step(${SWEEP_DISPATCH} --spec=spec.txt --workers=2 --transport=subprocess
         --worker-bin=${SWEEP_SHARD} --worker-threads=2 --pipeline-leases
         --inject-fail=0:1 --out=dispatched_pipe_fail.csv -v)
compare_files(mono.csv dispatched_pipe_fail.csv)

# --- kill the dispatcher, then resume ------------------------------------------------
# The dispatcher checkpoints merged results to ckpt_<transport>/checkpoint.sweep and
# is killed (--crash-after exits nonzero) partway in; the rerun preseeds the
# surviving checkpoint, re-leases only unfinished units, and must still produce the
# monolithic bytes.  Both runs keep their -v stderr in logs/ for CI artifacts.
function(run_step_expect_crash name)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE rc
                  ERROR_FILE ${WORK_DIR}/logs/${name}.log)
  if(rc EQUAL 0)
    message(FATAL_ERROR "dispatch_e2e: step '${name}' was injected a crash but "
                        "exited 0 — the kill never happened")
  endif()
endfunction()

foreach(transport inprocess subprocess socket)
  set(resume_flags --spec=spec.txt --workers=2 --transport=${transport}
      --worker-bin=${SWEEP_SHARD} --worker-threads=2
      --checkpoint-dir=ckpt_${transport} --checkpoint-every=2)
  run_step_expect_crash(resume_${transport}_crash ${SWEEP_DISPATCH} ${resume_flags}
                        --crash-after=4 --out=dispatched_resume_${transport}.csv -v)
  run_step_logged(resume_${transport} ${SWEEP_DISPATCH} ${resume_flags}
                  --out=dispatched_resume_${transport}.csv -v)
  compare_files(mono.csv dispatched_resume_${transport}.csv)
endforeach()

# Command transport (injection flags unsupported there, but --crash-after is
# dispatcher-side): same kill-then-resume cycle.
set(resume_cmd_flags --spec=spec.txt --workers=2 --transport=command
    "--worker-cmd=${SWEEP_SHARD} --worker --threads=2"
    --checkpoint-dir=ckpt_command --checkpoint-every=2)
run_step_expect_crash(resume_command_crash ${SWEEP_DISPATCH} ${resume_cmd_flags}
                      --crash-after=4 --out=dispatched_resume_command.csv -v)
run_step_logged(resume_command ${SWEEP_DISPATCH} ${resume_cmd_flags}
                --out=dispatched_resume_command.csv -v)
compare_files(mono.csv dispatched_resume_command.csv)

# A corrupted (truncated) checkpoint must be a loud refusal, never a silent restart.
file(MAKE_DIRECTORY ${WORK_DIR}/ckpt_corrupt)
file(WRITE ${WORK_DIR}/ckpt_corrupt/checkpoint.sweep
     "sweep-checkpoint v=1 plan=1 units=1\n")
run_step_expect_crash(resume_corrupt ${SWEEP_DISPATCH} --spec=spec.txt --workers=2
                      --transport=inprocess --checkpoint-dir=ckpt_corrupt
                      --out=dispatched_corrupt.csv)
if(EXISTS ${WORK_DIR}/dispatched_corrupt.csv)
  message(FATAL_ERROR "dispatch_e2e: a corrupt checkpoint still produced a CSV")
endif()

message(STATUS "dispatch_e2e: dispatched CSVs byte-identical to the monolithic sweep "
               "over all transports, worker counts, failure schedules, and "
               "kill-the-dispatcher resume cycles")
